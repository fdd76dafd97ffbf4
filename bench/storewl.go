package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pagedb"
	"repro/internal/store"
)

// storeParams sizes store_zipf_f80.
type storeParams struct {
	pages        int
	segPages     int
	lowWater     int
	batch        int // page writes per Apply
	warmWrites   int
	writesPerSec int // measured page writes per second of -seconds
}

var storeFull = storeParams{pages: 40_000, segPages: 256, lowWater: 12, batch: 32, warmWrites: 80_000, writesPerSec: 29_000}

var storeSmoke = storeParams{pages: 2_000, segPages: 32, lowWater: 12, batch: 32, warmWrites: 4_000, writesPerSec: 8_000}

const (
	storePageSize = 4096
	storeFill     = 0.8
	zipfTheta     = 0.99
)

// storeWL is the paper's own experiment on the live engine: one writer
// overwriting Zipf-0.99 pages of a store at fill 0.8, MDC cleaning in the
// foreground (inside Apply), DurSeal. Only store, core and cleaner work.
type storeWL struct {
	p       storeParams
	seed    int64
	seconds int

	st      *store.Store
	keys    *keyStream
	version []uint32 // oracle: last acknowledged version of each page
	batch   *store.Batch
	page    []byte
}

func (w *storeWL) options(dir string) store.Options {
	dataSegs := int(float64(w.p.pages)/storeFill/float64(w.p.segPages)) + 1
	return store.Options{
		Dir:          dir,
		PageSize:     storePageSize,
		SegmentPages: w.p.segPages,
		MaxSegments:  dataSegs + w.p.lowWater,
		FreeLowWater: w.p.lowWater,
		Algorithm:    core.MDC(),
		Durability:   core.DurSeal,
	}
}

func (w *storeWL) load(dir string) (int64, int64, error) {
	st, err := store.Open(w.options(dir))
	if err != nil {
		return 0, 0, err
	}
	w.st = st
	w.keys = newKeyStream(uint64(w.seed), 1, w.p.pages, zipfTheta)
	w.version = make([]uint32, w.p.pages)
	w.batch = store.NewBatch()
	w.page = make([]byte, storePageSize)
	next := 0
	load := func() uint64 { next++; return uint64(next - 1) }
	if err := w.write(w.p.pages, load, nil); err != nil {
		st.Close()
		return 0, 0, fmt.Errorf("load: %w", err)
	}
	return int64(w.p.pages), int64(w.p.pages) * storePageSize, nil
}

func (w *storeWL) warm() error { return w.write(w.p.warmWrites, w.keys.next, nil) }

// write issues n page writes in Apply batches, each page's next version.
// With a recorder, every Apply is one latency sample and one span.
func (w *storeWL) write(n int, key func() uint64, rec *recorder) error {
	for done := 0; done < n; {
		w.batch.Reset()
		m := min(w.p.batch, n-done)
		for i := 0; i < m; i++ {
			id := key()
			w.version[id]++
			fillValue(w.page, id, w.version[id])
			w.batch.Write(uint32(id), w.page)
		}
		var t0 time.Time
		var s int32
		if rec != nil {
			s = rec.tr.begin(spStoreApply, rec.tr.newOp(), -1)
			t0 = time.Now()
		}
		if err := w.st.Apply(w.batch); err != nil {
			return err
		}
		if rec != nil {
			rec.sample(int64(time.Since(t0)))
			rec.tr.end(s)
			rec.userBytes += int64(m) * storePageSize
		}
		done += m
	}
	return nil
}

func (w *storeWL) run(rec *recorder) int64 {
	n := w.p.writesPerSec * w.seconds
	if err := w.write(n, w.keys.next, rec); err != nil {
		rec.fail("apply: %v", err)
	}
	return int64(n)
}

func (w *storeWL) counters() (pagedb.Stats, obs.Snapshot) {
	return pagedb.Stats{Store: w.st.Stats()}, w.st.Obs().Snapshot()
}

func (w *storeWL) close() error {
	if w.st == nil {
		return nil
	}
	st := w.st
	w.st = nil
	return st.Close()
}

func (w *storeWL) killSafe() bool { return false }

func (w *storeWL) check(rec *recorder) state { return w.verify(w.st, rec) }

// verify reads every page of st, which must hold exactly the oracle's
// version of each, byte for byte.
func (w *storeWL) verify(st *store.Store, rec *recorder) state {
	d := newDigester()
	got, want := make([]byte, storePageSize), make([]byte, storePageSize)
	for id := range w.version {
		if err := st.ReadPage(uint32(id), got); err != nil {
			rec.fail("page %d: %v", id, err)
			continue
		}
		fillValue(want, uint64(id), w.version[id])
		if !bytes.Equal(got, want) {
			rec.fail("page %d holds version %d, the oracle acknowledged %d (or the bytes differ)",
				id, binary.LittleEndian.Uint64(got[8:]), w.version[id])
			continue
		}
		d.add(uint64(id), got)
	}
	if n := st.Stats().LivePages; n != len(w.version) {
		rec.fail("store holds %d live pages, the oracle %d", n, len(w.version))
	}
	return d.state()
}

func (w *storeWL) reopen(dir string, verify bool, live state, rec *recorder) (time.Duration, uint64) {
	t0 := time.Now()
	st, err := store.Open(w.options(dir))
	d := time.Since(t0)
	if err != nil {
		rec.fail("reopen: %v", err)
		return d, 0
	}
	if verify {
		if got := w.verify(st, rec); got != live {
			rec.fail("reopened image digests to %x, the live store to %x", got.digest, live.digest)
		}
	}
	if err := st.Close(); err != nil {
		rec.fail("closing the reopened image: %v", err)
	}
	return d, 0
}
