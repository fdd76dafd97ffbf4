package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pagedb"
	"repro/internal/store"
)

// kvParams sizes the two single-tree workloads. An operation is a
// Tree.GetInto with probability getShare, a Tree.Scan of scanLen keys with
// probability scanShare, and otherwise a transaction of one Put.
type kvParams struct {
	keys            int
	cachePages      int
	getShare        float64
	scanShare       float64
	checkpointEvery int // operations between db.Commit calls while writing; 0 when nothing writes
	warmOps         int
	opsPerSec       int // measured operations per second of -seconds
	traceEvery      int // a traced phase records spans for one block of blockOps in this many
}

const (
	kvValueBytes  = 100
	kvTree        = "kv"
	kvScanLen     = 100
	kvLoadTxnPuts = 1000
	kvLoadCkpt    = 8 // load transactions between checkpoints
	// blockOps consecutive operations are timed as one latency sample, because
	// a pair of clock reads is a tenth of a cached Get. At 40, one block in 50
	// of kv_mixed_spill holds a checkpoint, so that workload's p99 is the
	// median checkpoint block: the middle of the slow regime, not its edge.
	blockOps = 40
)

// kv_mixed_spill: data about 16 times the cache, half the operations write.
var kvMixedFull = kvParams{keys: 400_000, cachePages: 1024, getShare: 0.5,
	checkpointEvery: 2000, warmOps: 50_000, opsPerSec: 47_000, traceEvery: 8}

var kvMixedSmoke = kvParams{keys: 20_000, cachePages: 64, getShare: 0.5,
	checkpointEvery: 2000, warmOps: 5_000, opsPerSec: 20_000, traceEvery: 8}

// kv_read_fit: everything resident, nothing writes while measured.
var kvReadFull = kvParams{keys: 200_000, cachePages: 16384, getShare: 0.95, scanShare: 0.05,
	warmOps: 2_000_000, opsPerSec: 1_350_000, traceEvery: 64}

var kvReadSmoke = kvParams{keys: 10_000, cachePages: 1024, getShare: 0.95, scanShare: 0.05,
	warmOps: 20_000, opsPerSec: 200_000, traceEvery: 64}

// kvWL is one pagedb tree under one closed-loop client. Writes go through
// Txn only (Begin/Put/Commit). DurSeal: the WAL is written but not fsynced
// per commit, so throughput is decided by the pool, the fault path and the
// checkpoint, not by the disk's flush latency.
type kvWL struct {
	p       kvParams
	seed    int64
	seconds int

	db      *pagedb.DB
	tree    *pagedb.Tree
	keys    *keyStream
	version []uint32 // oracle: last acknowledged version of each key
	issued  int      // operations since the load, which paces the checkpoints
	blocks  int
	val     []byte
	buf     []byte
}

func (w *kvWL) options(dir string) pagedb.Options {
	const pageSize, segPages, fill = 4096, 128, 0.6
	// A leaf entry is key, value and slot overhead; random-order updates
	// leave leaves about two-thirds full.
	dataPages := w.p.keys * (kvValueBytes + 20) * 3 / 2 / pageSize
	// The free pool must take a whole checkpoint batch in one Apply: at
	// most one leaf per put of the interval, or the leaves a load
	// checkpoint fills (about 16 entries to the half-full page).
	batchSegs := max(w.p.checkpointEvery/2, kvLoadTxnPuts*kvLoadCkpt/16)/segPages + 1
	lowWater := batchSegs + 14
	return pagedb.Options{
		Store: store.Options{
			Dir:             dir,
			PageSize:        pageSize,
			SegmentPages:    segPages,
			MaxSegments:     int(float64(dataPages)/fill)/segPages + lowWater,
			FreeLowWater:    lowWater,
			FreeEmergency:   batchSegs + 2,
			Algorithm:       core.MDC(),
			Durability:      core.DurSeal,
			BackgroundClean: true,
		},
		CachePages: w.p.cachePages,
	}
}

func (w *kvWL) load(dir string) (int64, int64, error) {
	db, err := pagedb.Open(w.options(dir))
	if err != nil {
		return 0, 0, err
	}
	w.db, w.issued, w.blocks = db, 0, 0
	w.keys = newKeyStream(uint64(w.seed), 2, w.p.keys, zipfTheta)
	w.version = make([]uint32, w.p.keys)
	w.val = make([]byte, kvValueBytes)
	w.buf = make([]byte, 0, kvValueBytes)
	if err := w.insertAll(); err != nil {
		db.Close()
		return 0, 0, err
	}
	return int64(w.p.keys), int64(w.p.keys) * (8 + kvValueBytes), nil
}

func (w *kvWL) warm() error {
	rec := &recorder{}
	w.ops(w.p.warmOps, rec)
	if rec.failed > 0 {
		return fmt.Errorf("%d operations failed", rec.failed)
	}
	return nil
}

// insertAll inserts the keys in ascending order through transactions of
// kvLoadTxnPuts puts, checkpointing every kvLoadCkpt of them.
func (w *kvWL) insertAll() error {
	var err error
	if w.tree, err = w.db.Tree(kvTree); err != nil {
		return err
	}
	for k, txns := 0, 0; k < w.p.keys; txns++ {
		x, err := w.db.Begin()
		if err != nil {
			return err
		}
		for i := 0; i < kvLoadTxnPuts && k < w.p.keys; i, k = i+1, k+1 {
			w.version[k] = 1
			fillValue(w.val, uint64(k), 1)
			if err := x.Put(kvTree, uint64(k), w.val); err != nil {
				return err
			}
		}
		if err := x.Commit(); err != nil {
			return err
		}
		if (txns+1)%kvLoadCkpt == 0 {
			if err := w.db.Commit(); err != nil {
				return err
			}
		}
	}
	return w.db.Commit()
}

func (w *kvWL) run(rec *recorder) int64 {
	n := w.p.opsPerSec * w.seconds
	w.ops(n, rec)
	return int64(n)
}

// ops is the client: n operations, timed in blocks of blockOps.
func (w *kvWL) ops(n int, rec *recorder) {
	mix := w.keys.rng()
	for done := 0; done < n; {
		m := min(blockOps, n-done)
		tr := rec.tr
		if w.blocks%w.p.traceEvery != 0 {
			tr = nil
		}
		w.blocks++
		t0 := time.Now()
		for i := 0; i < m; i++ {
			key := w.keys.next()
			op := tr.newOp()
			root := tr.begin(spKVOp, op, -1)
			switch r := mix.Float64(); {
			case r < w.p.getShare:
				w.get(key, rec, tr, op, root)
			case r < w.p.getShare+w.p.scanShare:
				w.scan(key, rec, tr, op, root)
			default:
				w.put(key, rec, tr, op, root)
			}
			tr.end(root)
			w.issued++
			if every := w.p.checkpointEvery; every > 0 && w.issued%every == 0 {
				s := rec.tr.begin(spCheckpoint, rec.tr.newOp(), -1) // every checkpoint, not one block's
				if err := w.db.Commit(); err != nil {
					rec.fail("checkpoint: %v", err)
				}
				rec.tr.end(s)
			}
		}
		rec.sample(int64(time.Since(t0)) / int64(m))
		done += m
	}
}

func (w *kvWL) get(key uint64, rec *recorder, tr *tracer, op uint32, root int32) {
	s := tr.begin(spTreeGet, op, root)
	v, ok, err := w.tree.GetInto(key, w.buf)
	tr.end(s)
	if err != nil || !ok {
		rec.fail("get %d: found=%v err=%v", key, ok, err)
		return
	}
	if ver, ok := valueVersion(v, key); !ok || ver != w.version[key] {
		rec.fail("get %d returned version %d (well-formed=%v), the oracle acknowledged %d", key, ver, ok, w.version[key])
	}
}

func (w *kvWL) scan(from uint64, rec *recorder, tr *tracer, op uint32, root int32) {
	if last := uint64(w.p.keys - kvScanLen); from > last {
		from = last
	}
	next := from
	s := tr.begin(spTreeScan, op, root)
	err := w.tree.Scan(from, from+kvScanLen-1, func(k uint64, v []byte) bool {
		ver, ok := valueVersion(v, k)
		if k != next || !ok || ver != w.version[k] {
			rec.fail("scan from %d: key %d version %d (well-formed=%v) where key %d was due", from, k, ver, ok, next)
			return false
		}
		next++
		return true
	})
	tr.end(s)
	if err != nil || next != from+kvScanLen {
		rec.fail("scan from %d: %d keys, err=%v", from, next-from, err)
	}
}

func (w *kvWL) put(key uint64, rec *recorder, tr *tracer, op uint32, root int32) {
	ver := w.version[key] + 1
	fillValue(w.val, key, ver)
	x, err := w.db.Begin()
	if err == nil {
		s := tr.begin(spTxnPut, op, root)
		err = x.Put(kvTree, key, w.val)
		tr.end(s)
		if err == nil {
			s = tr.begin(spTxnCommit, op, root)
			err = x.Commit()
			tr.end(s)
		} else {
			x.Rollback()
		}
	}
	if err != nil {
		rec.fail("put %d: %v", key, err)
		return
	}
	w.version[key] = ver
	rec.userBytes += 8 + kvValueBytes
}

func (w *kvWL) counters() (pagedb.Stats, obs.Snapshot) { return w.db.Stats(), w.db.Obs().Snapshot() }

func (w *kvWL) close() error {
	if w.db == nil {
		return nil
	}
	db := w.db
	w.db = nil
	return db.Close()
}

func (w *kvWL) killSafe() bool { return false }

func (w *kvWL) check(rec *recorder) state { return w.verify(w.db, rec) }

// verify walks the whole tree, which must hold exactly the oracle's version
// of every key, byte for byte, in a structurally sound tree.
func (w *kvWL) verify(db *pagedb.DB, rec *recorder) state {
	d := newDigester()
	t, err := db.Tree(kvTree)
	if err != nil {
		rec.fail("tree: %v", err)
		return state{}
	}
	if err := t.CheckInvariants(); err != nil {
		rec.fail("tree invariants: %v", err)
	}
	want := make([]byte, kvValueBytes)
	next := uint64(0)
	err = t.Scan(0, math.MaxUint64, func(k uint64, v []byte) bool {
		if k != next || k >= uint64(len(w.version)) {
			rec.fail("key %d where key %d was due", k, next)
			return false
		}
		next++
		fillValue(want, k, w.version[k])
		if !bytes.Equal(v, want) {
			ver, _ := valueVersion(v, k)
			rec.fail("key %d holds version %d, the oracle acknowledged %d (or the bytes differ)", k, ver, w.version[k])
			return true
		}
		d.add(k, v)
		return true
	})
	if err != nil || next != uint64(len(w.version)) {
		rec.fail("full scan: %d of %d keys, err=%v", next, len(w.version), err)
	}
	if err := db.CheckPinBalance(); err != nil {
		rec.fail("pin balance: %v", err)
	}
	return d.state()
}

func (w *kvWL) reopen(dir string, verify bool, live state, rec *recorder) (time.Duration, uint64) {
	t0 := time.Now()
	db, err := pagedb.Open(w.options(dir))
	d := time.Since(t0)
	if err != nil {
		rec.fail("reopen: %v", err)
		return d, 0
	}
	replayed := db.Stats().Txns
	if verify {
		if got := w.verify(db, rec); got != live {
			rec.fail("reopened image digests to %x, the live tree to %x", got.digest, live.digest)
		}
	}
	if err := db.Close(); err != nil {
		rec.fail("closing the reopened image: %v", err)
	}
	return d, replayed
}
