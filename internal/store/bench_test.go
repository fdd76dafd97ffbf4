package store

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"
)

// The headline benchmark of the background cleaning subsystem: identical
// concurrent skewed write workloads against foreground and background
// cleaning. Foreground mode pays for whole cleaning cycles inside unlucky
// writes (the tail); background mode moves that work off the write path,
// so p99 write latency drops while throughput holds or improves. Run with:
//
//	go test ./internal/store -bench WriteTail -benchtime 5x
//
// and compare the p99-µs metric between the two sub-benchmarks.

func benchWriteTail(b *testing.B, background bool) {
	opts := Options{
		PageSize:        1024,
		SegmentPages:    64,
		MaxSegments:     128,
		CleanBatch:      8,
		FreeLowWater:    12,
		BackgroundClean: background,
	}
	const livePages = 128 * 64 * 8 / 10 // fill factor 0.8
	const writers = 4
	const opsPerWriter = 8000

	var all []time.Duration
	for iter := 0; iter < b.N; iter++ {
		s, err := Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, opts.PageSize)
		for id := uint32(0); id < livePages; id++ {
			if err := s.WritePage(id, buf); err != nil {
				b.Fatal(err)
			}
		}

		lats := make([][]time.Duration, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewPCG(uint64(w), uint64(iter)))
				buf := make([]byte, opts.PageSize)
				lat := make([]time.Duration, 0, opsPerWriter)
				for i := 0; i < opsPerWriter; i++ {
					var id uint32
					if r.Float64() < 0.9 {
						id = uint32(r.IntN(livePages / 10)) // hot 10%
					} else {
						id = uint32(livePages/10 + r.IntN(livePages*9/10))
					}
					start := time.Now()
					if err := s.WritePage(id, buf); err != nil {
						b.Error(err)
						return
					}
					lat = append(lat, time.Since(start))
				}
				lats[w] = lat
			}(w)
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		for _, l := range lats {
			all = append(all, l...)
		}
	}

	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Microsecond)
	}
	b.ReportMetric(pct(0.50), "p50-µs")
	b.ReportMetric(pct(0.99), "p99-µs")
	b.ReportMetric(pct(0.999), "p99.9-µs")
}

func BenchmarkWriteTailForeground(b *testing.B) { benchWriteTail(b, false) }
func BenchmarkWriteTailBackground(b *testing.B) { benchWriteTail(b, true) }

// BenchmarkZipfApply is the benchmark's store_zipf_f80 at reduced size (see
// zipfStore): one op is a 32-page Apply with the foreground cleaning it
// triggers. B/op is what TestRelocationAllocBudget bounds per relocated page;
// the reported write amplification says how many of those an op carries.
// fsyncs/op counts store.fsync.ns samples; fsync-µs/op is their summed time and
// syncpoint-µs/op the wall time of the sync points that issued them (both from
// bucket means) — a sync point's fsyncs overlap, so the second is what an op
// waits, but for a seal's fsync, which runs behind the writer: seal-wait-µs/op
// is the part of those an op still waits (store.seal.wait.ns).
func BenchmarkZipfApply(b *testing.B) {
	z := openZipfStore(b)
	defer z.s.Close()
	before := z.s.Stats()
	series := func(name string) (count, sum float64) {
		h := z.s.Obs().Histogram(name).Snapshot()
		return float64(h.Count), h.Mean * float64(h.Count)
	}
	n0, fsync0 := series("store.fsync.ns")
	_, point0 := series("store.syncpoint.ns")
	_, wait0 := series("store.seal.wait.ns")
	b.ReportAllocs()
	b.ResetTimer()
	z.apply(b, b.N, z.zipf.Uint64)
	b.StopTimer()
	after := z.s.Stats()
	b.ReportMetric(float64(after.GCWrites-before.GCWrites)/float64(after.UserWrites-before.UserWrites), "gc-writes/user-write")
	n1, fsync1 := series("store.fsync.ns")
	_, point1 := series("store.syncpoint.ns")
	b.ReportMetric((n1-n0)/float64(b.N), "fsyncs/op")
	b.ReportMetric((fsync1-fsync0)/1e3/float64(b.N), "fsync-µs/op")
	b.ReportMetric((point1-point0)/1e3/float64(b.N), "syncpoint-µs/op")
	_, wait1 := series("store.seal.wait.ns")
	b.ReportMetric((wait1-wait0)/1e3/float64(b.N), "seal-wait-µs/op")
}

// BenchmarkSmallWritesAfterBigApply: steady writes to a memory store after one
// 2,048-op Apply, as WritePages (ops=1) and as two-op Applies (ops=2). A one-op
// batch keeps no page table, and a small batch deletes only its own pages from
// the table the big one grew, so neither pays for its capacity on every write.
func BenchmarkSmallWritesAfterBigApply(b *testing.B) {
	for _, ops := range []int{1, 2} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			s, err := Open(Options{PageSize: 4096, SegmentPages: 64, MaxSegments: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			buf := make([]byte, 256)
			big, small := NewBatch(), NewBatch()
			for id := uint32(1000); id < 1000+keptRefs; id++ {
				big.Write(id, buf)
			}
			if err := s.Apply(big); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := uint32(i % 100)
				if ops == 1 {
					err = s.WritePage(id, buf)
				} else {
					small.Reset()
					err = s.Apply(small.Write(id, buf).Write(id+100, buf))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
