package pagedb

import (
	"errors"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// BenchmarkTreePut/Get/Scan measure the pagedb instantiation of the unified
// B+-tree core — the same algorithm internal/btree benchmarks in-memory,
// here running over the store-backed NodeStore (node cache hits on the hot
// path; commits amortized every 10k ops in the Put case).

func benchDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open(Options{
		Store: store.Options{
			PageSize:     4096,
			SegmentPages: 128,
			MaxSegments:  4096,
		},
		CachePages: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func BenchmarkTreePut(b *testing.B) {
	db := benchDB(b)
	tr, err := db.Tree("bench")
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(uint64(i), v); err != nil {
			b.Fatal(err)
		}
		if i%10000 == 9999 {
			if err := db.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTreeGet(b *testing.B) {
	db := benchDB(b)
	tr, err := db.Tree("bench")
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, 64)
	for i := uint64(0); i < 100000; i++ {
		if err := tr.Put(i, v); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Get(uint64(i) % 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeGetSpill is the point read that misses: a file-backed tree 16
// times its cache, uniform keys, so nearly every GetInto faults a leaf in
// (faults/op) — one store read into a node buffer, parsed in place. What a
// fault allocates depends on whether anything cycles the guard: "reads" has no
// writer, so evicted nodes are retired but never proven free and every fault
// pays for its buffer and arrays; "writes" follows each read with a single-put
// transaction on a resident key (its own allocations are in B/op too), and
// the faults run on recycled nodes.
func BenchmarkTreeGetSpill(b *testing.B) {
	for _, mode := range []string{"reads", "writes"} {
		b.Run(mode, func(b *testing.B) {
			const cache, nkeys = 128, 100000
			db, err := Open(Options{
				Store:      store.Options{Dir: b.TempDir(), PageSize: 4096, SegmentPages: 128, MaxSegments: 256},
				CachePages: cache,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			tr, err := db.Tree("bench")
			if err != nil {
				b.Fatal(err)
			}
			v := make([]byte, 64)
			for k := uint64(0); k < nkeys; k++ {
				if err := tr.Put(k, v); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Commit(); err != nil {
				b.Fatal(err)
			}
			if pages := int(db.ids.Next()); pages < 16*cache {
				b.Fatalf("tree of %d pages, want ≥ 16 × the cache of %d", pages, cache)
			}
			var buf []byte
			key := uint64(12345)
			f0 := db.faults.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key = key*6364136223846793005 + 1442695040888963407
				if buf, _, err = tr.GetInto(key>>33%nkeys, buf); err != nil {
					b.Fatal(err)
				}
				if mode == "writes" {
					x, err := db.Begin()
					if err == nil {
						if err = x.Put("bench", key>>60, v); err == nil {
							err = x.Commit()
						}
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(db.faults.Load()-f0)/float64(b.N), "faults/op")
		})
	}
}

// BenchmarkPageDBGet is the single-thread point-read baseline over the
// fused read path: one FetchPinned (shard lookup + pin) per tree level,
// one lock-free Release each on the way out. GetInto reuses the value
// buffer, so a warm read allocates nothing.
func BenchmarkPageDBGet(b *testing.B) {
	db := benchDB(b)
	tr, err := db.Tree("bench")
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, 64)
	for i := uint64(0); i < 100000; i++ {
		if err := tr.Put(i, v); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		buf, ok, err = tr.GetInto(uint64(i)%100000, buf)
		if err != nil || !ok {
			b.Fatalf("GetInto = (%v, %v)", ok, err)
		}
	}
}

// BenchmarkPageDBGetParallel drives the concurrent read path: RunParallel
// readers share the DB's read guard, so they only contend on pool/node
// shard mutexes. Each goroutine reuses one GetInto buffer, so a warm
// reader allocates nothing per lookup. Run with -cpu 1,4,8 to see reader
// scaling (on a single-core host the -cpu variants measure only overhead).
func BenchmarkPageDBGetParallel(b *testing.B) {
	db := benchDB(b)
	tr, err := db.Tree("bench")
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, 64)
	for i := uint64(0); i < 100000; i++ {
		if err := tr.Put(i, v); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Decorrelate goroutines so they walk different leaves.
		i := seq.Add(1) * 7919
		var buf []byte
		for pb.Next() {
			var ok bool
			buf, ok, err = tr.GetInto(i%100000, buf)
			if err != nil || !ok {
				b.Fatalf("GetInto = (%v, %v)", ok, err)
			}
			i++
		}
	})
}

// BenchmarkPageDBScanParallel is the range-read variant: concurrent 1000-
// entry scans over the shared read guard.
func BenchmarkPageDBScanParallel(b *testing.B) {
	db := benchDB(b)
	tr, err := db.Tree("bench")
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, 64)
	for i := uint64(0); i < 100000; i++ {
		if err := tr.Put(i, v); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		start := seq.Add(1) * 7919 % 99000
		for pb.Next() {
			n := 0
			if err := tr.Scan(start, ^uint64(0), func(uint64, []byte) bool {
				n++
				return n < 1000
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTreeScan(b *testing.B) {
	db := benchDB(b)
	tr, err := db.Tree("bench")
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, 64)
	for i := uint64(0); i < 100000; i++ {
		if err := tr.Put(i, v); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := tr.Scan(0, ^uint64(0), func(uint64, []byte) bool {
			n++
			return n < 1000
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointCommit times one checkpoint of a tree four times its
// cache, every leaf dirtied since the last one (so most of the dirty set is
// parked, the rest resident), and reports what the checkpoint is charged per
// page it writes: heap bytes (B/page ≈ the page size: the batch buffer, once)
// and serializations (encodes/page = 1, however often a page was evicted).
// File-backed: the memory backend's segments are themselves heap.
func BenchmarkCheckpointCommit(b *testing.B) {
	db, err := Open(Options{
		Store:      store.Options{Dir: b.TempDir(), PageSize: 4096, SegmentPages: 128, MaxSegments: 128},
		CachePages: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tr, err := db.Tree("bench")
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, 100)
	dirtyAll := func(version byte) {
		v[0] = version
		for k := uint64(0); k < 30000; k++ {
			if err := tr.Put(k, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	dirtyAll(0)
	if err := db.Commit(); err != nil {
		b.Fatal(err)
	}
	encodes := db.Obs().Counter("pagedb.node.encodes")
	var allocated, pages, encoded uint64
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dirtyAll(byte(i + 1))
		p0, e0 := db.Stats().CommittedPages, encodes.Value()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		if err := db.Commit(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		allocated += m1.TotalAlloc - m0.TotalAlloc
		pages += db.Stats().CommittedPages - p0
		encoded += encodes.Value() - e0
		b.StartTimer()
	}
	b.ReportMetric(float64(allocated)/float64(pages), "B/page")
	b.ReportMetric(float64(encoded)/float64(pages-uint64(b.N)), "encodes/page") // less each batch's meta page
}

// BenchmarkTxnCommit is the write path without its I/O waits: Begin, the
// puts, Commit — WAL append to a file (unsynced) and tree apply. In 1put and
// 12ops the keys exist and stay resident, and B/op is what a transaction
// allocates: the Txn (TestCommitAllocBudget pins it). 1000new is a bulk load's
// shape, the kv workloads' load: 1,000 ascending new keys a transaction, a
// checkpoint every 8, an empty tree again every 200 (untimed). ns/put is the
// time per put, checkpoints included.
func BenchmarkTxnCommit(b *testing.B) {
	for _, c := range []struct {
		name  string
		ops   int
		fresh bool // every key new, ascending across transactions
		every int  // transactions between checkpoints, which bound the WAL
	}{{"1put", 1, false, 20000}, {"12ops", 12, false, 20000}, {"1000new", 1000, true, 8}} {
		b.Run(c.name, func(b *testing.B) {
			var dir string
			open := func() *DB {
				dir = b.TempDir()
				db, err := Open(Options{Store: store.Options{Dir: dir, SegmentPages: 64, MaxSegments: 1024}})
				if err != nil {
					b.Fatal(err)
				}
				return db
			}
			db := open()
			defer func() { db.Close() }()
			v := make([]byte, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, err := db.Begin()
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < c.ops; k++ {
					key := uint64(k)
					if c.fresh {
						key = uint64(i*c.ops + k)
					}
					if err := x.Put("bench", key, v); err != nil {
						b.Fatal(err)
					}
				}
				if err := x.Commit(); err != nil {
					b.Fatal(err)
				}
				if i%c.every == c.every-1 {
					if err := db.Commit(); err != nil {
						b.Fatal(err)
					}
				}
				if c.fresh && i%200 == 199 {
					b.StopTimer()
					if err := errors.Join(db.Close(), os.RemoveAll(dir)); err != nil {
						b.Fatal(err)
					}
					db = open()
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.ops), "ns/put")
		})
	}
}
