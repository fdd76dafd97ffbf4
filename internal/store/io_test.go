package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// The tests in this file pin the I/O shape of the store through the counting
// backend of obs_test.go: a lock hold's appends are one backend write per run
// of consecutive appends to a segment, a cleaning cycle reads a victim one
// window at a time and writes once per window, and a run write that fails
// loses nothing that was acknowledged before it.

// TestApplyIsOneWritePerRun: a WritePage, a DeletePage and an Apply that fits
// the open segment are one backend write each; an Apply that crosses into a
// new segment is one more (the new segment's header rides at the head of its
// first run); a run longer than ioUnit is split there.
func TestApplyIsOneWritePerRun(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), PageSize: 64, SegmentPages: 16, MaxSegments: 32, CleanBatch: 4, FreeLowWater: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cb := count(s)
	next := uint32(0)
	apply := func(pages, size int) *Batch {
		b := NewBatch()
		for ; pages > 0; pages-- {
			b.Write(next, page(next, size))
			next++
		}
		return b
	}
	steps := []struct {
		what   string
		op     func() error
		writes int64
	}{
		{"first write: header and record in one run", func() error { return s.WritePage(1000, page(0, 64)) }, 1},
		{"Apply of 5 pages into the open segment", func() error { return s.Apply(apply(5, 64)) }, 1},
		{"Apply of 14 pages, 10 of which fill the segment", func() error { return s.Apply(apply(14, 64)) }, 2},
		{"Apply of short pages and a delete", func() error { return s.Apply(apply(3, 7).Delete(1000)) }, 1},
		{"WritePage", func() error { return s.WritePage(0, page(9, 33)) }, 1},
		{"DeletePage", func() error { return s.DeletePage(1) }, 1},
		{"Apply of 40 pages into three segments", func() error { return s.Apply(apply(40, 64)) }, 3},
	}
	for _, st := range steps {
		before := cb.counts().writes
		if err := st.op(); err != nil {
			t.Fatalf("%s: %v", st.what, err)
		}
		if got := cb.counts().writes - before; got != st.writes {
			t.Errorf("%s: %d backend writes, want %d", st.what, got, st.writes)
		}
	}
	if got, want := int64(s.Obs().Counter("store.write.ios").Value()), cb.counts().writes; got != want {
		t.Errorf("store.write.ios = %d, the backend took %d writes", got, want)
	}
	checkInvariants(t, s)

	// A run is at most ioUnit bytes: 40 full 4 KiB pages are two.
	big, err := Open(Options{PageSize: 4096, SegmentPages: 64, MaxSegments: 16, CleanBatch: 2, FreeLowWater: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	if err := big.WritePage(0, page(0, 4096)); err != nil {
		t.Fatal(err)
	}
	cb = count(big)
	b := NewBatch()
	for id := uint32(1); id <= 40; id++ {
		b.Write(id, page(id, 4096))
	}
	if err := big.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got, want := cb.counts().writes, int64(40*(RecordHeaderSize+4096)+ioUnit-1)/ioUnit; got != want {
		t.Errorf("Apply of 40 full pages: %d backend writes, want %d runs of at most %d bytes", got, want, ioUnit)
	}
}

// churnedStore returns a foreground store of 4 KiB pages in 64-page segments
// (so a victim is several windows long), cleaned by alg, loaded with pages
// 0..n-1 at version 0 and then overwritten at random until cleaning has run,
// and the oracle of each page's version.
func churnedStore(t *testing.T, dir string, dur core.Durability, alg core.Algorithm) (*Store, []uint32) {
	t.Helper()
	s, err := Open(Options{Dir: dir, PageSize: 4096, SegmentPages: 64, MaxSegments: 24, CleanBatch: 3, FreeLowWater: 5, Durability: dur, Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	count(s) // its fsyncs stop here: the churn is not what any test measures
	version := make([]uint32, 24*64*6/10)
	buf := make([]byte, 4096)
	r := rand.New(rand.NewPCG(11, 5))
	for op := 0; op < 3*len(version); op++ {
		id := uint32(op)
		if op >= len(version) {
			id = uint32(r.IntN(len(version)))
			version[id]++
		}
		stamp(buf, id, version[id])
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().SegmentsCleaned == 0 {
		t.Fatal("the churn never cleaned; the geometry is miscalibrated")
	}
	return s, version
}

// checkOracle reads every page of s back and compares it with the oracle.
func checkOracle(t *testing.T, s *Store, version []uint32) {
	t.Helper()
	got, want := make([]byte, 4096), make([]byte, 4096)
	for id := range version {
		if err := s.ReadPage(uint32(id), got); err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if stamp(want, uint32(id), version[id]); !bytes.Equal(got, want) {
			t.Fatalf("page %d does not hold version %d", id, version[id])
		}
	}
	checkInvariants(t, s)
}

// TestCycleIOShape: a foreground cycle reads each victim in at most
// ⌈extent ÷ ioUnit⌉ I/Os, and writes at most once per window it installs
// (one install chunk) per output segment: one write per window, plus one per
// output segment opened on the way.
func TestCycleIOShape(t *testing.T) {
	s, version := churnedStore(t, "", core.DurNone, core.MDC())
	defer s.Close()
	cb := count(s)
	gcBefore := s.Stats().GCWrites
	n, err := s.CleanOnce()
	if err != nil || n == 0 {
		t.Fatalf("CleanOnce = %d, %v", n, err)
	}
	extent := int(s.opts.segmentBytes())
	readsOf, c := cb.segReads(), cb.counts()
	if len(readsOf) > n {
		t.Errorf("the cycle read %d segments for %d victims", len(readsOf), n)
	}
	for seg, reads := range readsOf {
		if limit := (extent + ioUnit - 1) / ioUnit; reads > limit {
			t.Errorf("victim %d (%d bytes) was read in %d I/Os, want at most %d", seg, extent, reads, limit)
		}
	}
	moved := s.Stats().GCWrites - gcBefore
	if moved < 64 || c.writes == 0 || c.writes > c.reads+c.headers {
		t.Errorf("%d pages relocated in %d backend writes, for %d windows read and %d output segments opened",
			moved, c.writes, c.reads, c.headers)
	}
	if c.readBytes > int64(n*extent) {
		t.Errorf("the cycle read %d bytes of %d victims of %d bytes", c.readBytes, n, extent)
	}
	checkOracle(t, s, version)
}

var errInjected = errors.New("injected write failure")

// TestFailedRunWriteMidCycle: a run write that fails in the middle of a
// cleaning cycle surfaces from that cycle, which re-seals its victims and
// releases none; every live page still reads back (the victims' copies stay
// current until a relocated copy is on storage) and the accounting holds. Once
// the backend recovers, cleaning and recovery proceed as if nothing happened.
func TestFailedRunWriteMidCycle(t *testing.T) {
	for _, dur := range []core.Durability{core.DurNone, core.DurSeal, core.DurCommit} {
		t.Run(dur.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, version := churnedStore(t, dir, dur, core.MDC())
			cb := count(s)
			cb.failWrite = func(int, int64) error {
				if cb.counts().writes >= 2 { // the cycle's third run
					return errInjected
				}
				return nil
			}
			before := s.Stats()
			if n, err := s.CleanOnce(); !errors.Is(err, errInjected) || n != 0 {
				t.Fatalf("CleanOnce with a failing backend = %d, %v; want the injected error", n, err)
			}
			after := s.Stats()
			if after.FreeSegments > before.FreeSegments || after.SegmentsCleaned != before.SegmentsCleaned || after.GCWrites == before.GCWrites {
				t.Errorf("the failed cycle should have relocated some pages and released nothing: %+v -> %+v", before, after)
			}
			for seg := range s.meta {
				if s.meta[seg].State == core.SegCleaning {
					t.Errorf("victim %d was left in SegCleaning", seg)
				}
			}
			checkOracle(t, s, version)

			cb.failWrite = nil
			if n, err := s.CleanOnce(); err != nil || n == 0 {
				t.Fatalf("CleanOnce after the backend recovered = %d, %v", n, err)
			}
			checkOracle(t, s, version)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err := Open(s.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkOracle(t, s, version)
		})
	}
}

// TestCycleSyncShape pins the fsync budget of cleaning under DurSeal, over a
// seeded foreground run whose cycles the test drives itself: every segment is
// fsynced once, for its seal — a user segment at the seal, one a cycle filled
// with relocated copies at that cycle's sync point, an open GC tail at the
// point of the cycle that seals it — and an open segment only by a sync point
// forced by reusing a backing victim (store.backing.syncs; here they all come
// mid-cycle, for the GC segment the cycle just sealed, so they move an fsync
// and add none); no segment is fsynced twice with no write in between; and no
// victim is reset before every segment holding a copy of its pages has a
// successful fsync begun after the copies' writes. (Full-size pages only, so
// the count is exact: a tail is sealed by the copy that fills it.)
// It runs twice: the second time each seal's fsync is delayed 1 ms, so the
// writer runs ahead of it, and every count must repeat.
func TestCycleSyncShape(t *testing.T) {
	want := cycleSyncShape(t, 0)
	if got := cycleSyncShape(t, time.Millisecond); got != want {
		t.Errorf("with each seal fsync delayed 1 ms: %+v, want the undelayed run's %+v", got, want)
	}
}

// syncShape is what a cycleSyncShape run counted.
type syncShape struct{ fsyncs, forced, gcWrites, cleaned int }

func cycleSyncShape(t *testing.T, delay time.Duration) syncShape {
	const pages, pageSize = 600, 256
	s, err := Open(Options{Dir: t.TempDir(), PageSize: pageSize, SegmentPages: 16, MaxSegments: 64,
		CleanBatch: 4, FreeLowWater: 6, Durability: core.DurSeal})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cb := count(s)
	openSyncs := 0 // fsyncs of a segment still open: only a forced sync point issues one
	cb.failSync = func(seg int) error {
		// A seal's fsync runs on the syncer beside the writer, so it reads only
		// what the seal set at its claim: the segment it claimed, sealed then.
		// Any other runs while its sync point's caller holds the lock.
		if int32(seg) == s.sealing {
			time.Sleep(delay)
		} else if s.meta[seg].State == core.SegOpen {
			openSyncs++
		}
		return nil
	}
	var (
		rp      syncReplay
		victims int
		buf     = make([]byte, pageSize)
		r       = rand.New(rand.NewPCG(24, 1))
	)
	cycle := func() {
		from := locations(s)
		n, err := s.CleanOnce()
		if err != nil || n == 0 {
			t.Fatalf("CleanOnce = %d, %v", n, err)
		}
		victims += n
		rp.advance(t, cb)
		rp.relocated(s, from)
		checkInvariants(t, s)
	}
	for op := 0; op < 1200; op++ {
		b := NewBatch()
		for i := 0; i < 8; i++ {
			id := uint32(op*8 + i)
			if id >= pages {
				id = uint32(r.IntN(pages / (1 + 7*r.IntN(2)))) // half the writes to a hot eighth
			}
			stamp(buf, id, uint32(op))
			b.Write(id, buf)
		}
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		for s.Stats().FreeSegments < 16 {
			cycle()
		}
	}
	checkInvariants(t, s) // settles the last seal's fsync: every count below is final
	rp.advance(t, cb)
	st := s.Stats()
	if st.SegmentsCleaned != uint64(victims) || victims == 0 {
		t.Fatalf("%d segments cleaned, %d of them by the test's own cycles: the geometry is miscalibrated", st.SegmentsCleaned, victims)
	}
	sealed := int(cb.counts().headers) // every segment opened, less the ones still open
	for _, ss := range st.Streams {
		sealed -= ss.OpenSegments
	}
	fsyncs := int(s.Obs().Histogram("store.fsync.ns").Count())
	forced := int(s.Obs().Counter("store.backing.syncs").Value())
	t.Logf("%d fsyncs for %d sealed segments; %d sync points forced by a backing victim, %d fsyncs of an open segment", fsyncs, sealed, forced, openSyncs)
	if fsyncs != sealed+openSyncs || openSyncs > forced || fsyncs != rp.syncs {
		t.Errorf("%d fsyncs (the backend saw %d), want %d: one per sealed segment (%d) and one per open segment fsynced (%d), by no more than the %d forced sync points",
			fsyncs, rp.syncs, sealed+openSyncs, sealed, openSyncs, forced)
	}
	if forced == 0 || rp.resets == 0 {
		t.Errorf("%d forced sync points, %d victims reset: the run should exercise both", forced, rp.resets)
	}
	// Each sync point is one sample of each syncpoint series, and some cycle's
	// covers more than one sealed GC segment.
	ns, segs := s.Obs().Histogram("store.syncpoint.ns").Snapshot(), s.Obs().Histogram("store.syncpoint.segs").Snapshot()
	if ns.Count != segs.Count || int(ns.Count) >= fsyncs || segs.Buckets[len(segs.Buckets)-1].LE < 2 {
		t.Errorf("store.syncpoint.ns has %d samples, store.syncpoint.segs %d (largest bucket ≤ %d), for %d fsyncs",
			ns.Count, segs.Count, segs.Buckets[len(segs.Buckets)-1].LE, fsyncs)
	}
	if waits := s.Obs().Histogram("store.seal.wait.ns").Count(); delay > 0 && waits == 0 {
		t.Errorf("with seal fsyncs delayed %v, no step waited for one: the run did not overlap", delay)
	}
	return syncShape{fsyncs, forced, int(st.GCWrites), int(st.SegmentsCleaned)}
}

var errSyncInjected = errors.New("injected fsync failure")

// TestFailedSyncMidCycle: an fsync that fails at a cycle's sync point fails
// that cycle, which re-seals its victims and releases none, and poisons the
// store: with the backend recovered, the next cycle fails with the same error,
// and so does Close. Every page reads back throughout, and a reopen recovers
// every page from what the failed cycle left.
func TestFailedSyncMidCycle(t *testing.T) {
	for _, dur := range []core.Durability{core.DurSeal, core.DurCommit} {
		t.Run(dur.String(), func(t *testing.T) {
			s, version := churnedStore(t, t.TempDir(), dur, core.MDC())
			cb := count(s)
			cb.failSync = func(int) error { return errSyncInjected }
			before := s.Stats()
			if n, err := s.CleanOnce(); !errors.Is(err, errSyncInjected) || n != 0 {
				t.Fatalf("CleanOnce with failing fsyncs = %d, %v; want the injected error", n, err)
			}
			cb.failSync = nil
			after := s.Stats()
			if after.FreeSegments > before.FreeSegments || after.SegmentsCleaned != before.SegmentsCleaned || after.GCWrites == before.GCWrites {
				t.Errorf("the failed cycle should have relocated some pages and released nothing: %+v -> %+v", before, after)
			}
			for seg := range s.meta {
				if s.meta[seg].State == core.SegCleaning {
					t.Errorf("victim %d was left in SegCleaning", seg)
				}
			}
			checkOracle(t, s, version)
			if n, err := s.CleanOnce(); !errors.Is(err, errSyncInjected) || n != 0 {
				t.Fatalf("CleanOnce after the backend recovered = %d, %v; want the sticky error", n, err)
			}
			if err := s.Close(); !errors.Is(err, errSyncInjected) {
				t.Fatalf("Close of a poisoned store = %v, want the sticky error", err)
			}
			s, err := Open(s.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkOracle(t, s, version)
		})
	}
}

// TestFailedFsyncPoisons: the first failed fsync poisons the store. The
// DurCommit write whose commit it failed returns it; so does every later
// write, Apply, Sync, cleaning cycle and Close, wrapped, though
// fsyncs succeed again — the kernel may have dropped the pages the failed one
// did not write, and no later fsync can vouch for them. The commit watermark
// stays where it was, no segment is truncated, reads go on, and a reopen
// finds every page.
func TestFailedFsyncPoisons(t *testing.T) {
	s, version := churnedStore(t, t.TempDir(), core.DurCommit, core.MDC())
	cb := count(s)
	cb.failSync = func(int) error { return errSyncInjected }
	buf := make([]byte, 4096)
	version[0]++ // applied, so read back, though not durable
	stamp(buf, 0, version[0])
	if err := s.WritePage(0, buf); !errors.Is(err, errSyncInjected) {
		t.Fatalf("WritePage whose commit fsync fails = %v, want the injected error", err)
	}
	cb.failSync = nil
	durable, events := s.gcm.Durable(), len(cb.events)
	b := NewBatch()
	b.Write(1, buf)
	for _, op := range []struct {
		name string
		err  error
	}{
		{"WritePage", s.WritePage(1, buf)},
		{"DeletePage", s.DeletePage(2)},
		{"Apply", s.Apply(b)},
		{"Sync", s.Sync()},
		{"CleanOnce", func() error { _, err := s.CleanOnce(); return err }()},
	} {
		if !errors.Is(op.err, errSyncInjected) || op.err.Error() == errSyncInjected.Error() {
			t.Errorf("%s on a poisoned store = %v, want the fsync error, wrapped", op.name, op.err)
		}
	}
	if s.gcm.Durable() != durable || len(cb.events) != events {
		t.Errorf("a poisoned store moved its watermark %d -> %d, or reached the backend: %v", durable, s.gcm.Durable(), cb.events[events:])
	}
	checkOracle(t, s, version)
	if err := s.Close(); !errors.Is(err, errSyncInjected) {
		t.Fatalf("Close of a poisoned store = %v, want the sticky error", err)
	}
	s, err := Open(s.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkOracle(t, s, version)
}

// TestReleasedVictimHoldsNoBytes: a cycle truncates each victim it releases
// once nothing can need its records, so a free segment holds no bytes. Under
// DurSeal a victim with copies in the open GC tail is backing and keeps them
// until the sync point that covers the tail. The one other wait is for a
// header on storage to vouch for the victim's batches (discardFree). After
// every cycle and after Close, store.disk.bytes is what the segment files
// hold, and a kill image of the directory reopens to the oracle.
func TestReleasedVictimHoldsNoBytes(t *testing.T) {
	for _, dur := range []core.Durability{core.DurNone, core.DurSeal, core.DurCommit} {
		t.Run(dur.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, version := churnedStore(t, dir, dur, core.MDC())
			// check compares the gauge with the files and returns how many
			// free segments hold bytes because they back.
			check := func(when string) (backing int) {
				t.Helper()
				sizes, total := map[int32]int64{}, int64(0)
				names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
				for _, name := range names {
					var seg int32
					st, err := os.Stat(name)
					if _, serr := fmt.Sscanf(filepath.Base(name), "%06d.seg", &seg); err != nil || serr != nil {
						t.Fatal(err, serr)
					}
					sizes[seg] = st.Size()
					total += st.Size()
				}
				if g := s.Obs().Snapshot().Gauges["store.disk.bytes"]; g != total {
					t.Errorf("%s: store.disk.bytes %d, the segment files hold %d", when, g, total)
				}
				for _, v := range s.free {
					recs := s.recs[v]
					switch {
					case s.backs(v) && sizes[v] == 0:
						t.Errorf("%s: backing segment %d lost its bytes", when, v)
					case s.backs(v):
						backing++
					case sizes[v] != 0 && (len(recs) == 0 || s.newest[v] <= s.stamped):
						t.Errorf("%s: free segment %d, backing nothing, holds %d bytes", when, v, sizes[v])
					}
				}
				return backing
			}
			buf := make([]byte, 4096)
			r := rand.New(rand.NewPCG(7, 3))
			backed := 0
			for op := 0; op < 800; op++ {
				id := uint32(r.IntN(len(version)))
				version[id]++
				stamp(buf, id, version[id])
				if err := s.WritePage(id, buf); err != nil {
					t.Fatal(err)
				}
				if op%40 != 39 {
					continue
				}
				if n, err := s.CleanOnce(); err != nil || n == 0 {
					t.Fatalf("CleanOnce = %d, %v", n, err)
				}
				if b := check("after a cycle"); b > 0 {
					backed += b
					if err := s.Sync(); err != nil { // the sync point covering the tail
						t.Fatal(err)
					}
					if check("after the sync point") != 0 {
						t.Error("a victim is backing after the sync point that covered its copies")
					}
				}
			}
			if dur == core.DurSeal && backed == 0 {
				t.Error("no victim was backing after its cycle: the geometry is miscalibrated")
			}
			reopenAgainst(t, s.opts, liveImage(t, dir), version)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			check("after Close")
			for _, v := range s.free {
				if s.held[v] != 0 {
					t.Errorf("free segment %d holds %d bytes after Close", v, s.held[v])
				}
			}
		})
	}
}

// TestBackingVictimOutlivesLostTail: under DurSeal a cycle leaves its open GC
// tail unsynced, so a crash may lose the tail whole, and the victims whose
// copies it holds must still hold the originals. A churned store of
// single-page writes (no batches) keeps writing; after each write that reset
// a segment while a victim was backing, the test copies the open directory,
// empties the open GC tail's file in the copy — a legal crash image while
// that tail has had no fsync — and reopens the copy against the oracle.
func TestBackingVictimOutlivesLostTail(t *testing.T) {
	s, version := churnedStore(t, t.TempDir(), core.DurSeal, core.MDC())
	defer s.Close()
	cb := s.be.(*countingBackend) // churnedStore's: it saw every reset and fsync
	// synced reports whether tail had an fsync since its last reset, and reset
	// whether any segment was reset since event n.
	synced := func(tail int) bool {
		events := cb.log()
		for i := len(events) - 1; i >= 0 && events[i] != (ioEvent{'r', tail}); i-- {
			if events[i] == (ioEvent{'s', tail}) {
				return true
			}
		}
		return false
	}
	reset := func(n int) bool {
		return slices.ContainsFunc(cb.log()[n:], func(e ioEvent) bool { return e.op == 'r' })
	}
	buf := make([]byte, 4096)
	r := rand.New(rand.NewPCG(30, 7))
	crashes := 0
	for op := 0; op < 3000 && crashes < 5; op++ {
		n := len(cb.log())
		id := uint32(r.IntN(len(version)))
		version[id]++
		stamp(buf, id, version[id])
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		tail := -1
		for seg, m := range s.meta {
			if m.State == core.SegOpen && m.Stream == 1 {
				tail = seg
			}
		}
		if len(s.waits) == 0 || !reset(n) || tail < 0 || synced(tail) {
			continue
		}
		crashes++
		img := liveImage(t, s.opts.Dir)
		if err := os.Truncate((&fileBackend{dir: img}).path(tail), 0); err != nil {
			t.Fatal(err)
		}
		reopenAgainst(t, s.opts, img, version)
	}
	if crashes == 0 {
		t.Fatal("no write reset a segment while a victim was backing on an unsynced tail: the geometry is miscalibrated")
	}
}

// liveImage copies the files of an open store's directory, as they are now,
// into a new directory — the image a kill of the process would leave.
func liveImage(t *testing.T, dir string) string {
	t.Helper()
	img := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(img, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// reopenAgainst opens a store with opts on the image in img and checks it
// against the oracle.
func reopenAgainst(t *testing.T, opts Options, img string, version []uint32) {
	t.Helper()
	opts.Dir, opts.Obs = img, nil
	c, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, c, version)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedBatchOutlivesItsCleanedMembers: under DurSeal a batch whose
// records are all in sealed segments is durable, and must stay whole once the
// cleaner has relocated one of its members and reset the segment that member
// came from — that member's batch record is gone, and recovery must not take
// the rest for a torn batch. A churned store takes 4-page Applies, with a
// cleaning cycle forced after every third; whenever some earlier batch has a
// member relocated (its page unchanged since) out of a segment reset since, and
// another member still current in its batch record in a sealed segment, the
// test copies the open directory and reopens the copy against the oracle,
// until it has taken images of them. The subtest is named for unrouted
// placement, the only kind a live store runs.
func TestSealedBatchOutlivesItsCleanedMembers(t *testing.T) {
	t.Run("unrouted", sealedBatchOutlivesItsCleanedMembers)
}

func sealedBatchOutlivesItsCleanedMembers(t *testing.T) {
	const images = 5
	s, version := churnedStore(t, t.TempDir(), core.DurSeal, core.MDC())
	defer s.Close()
	cb := s.be.(*countingBackend)
	type member struct {
		id  uint32
		loc pageLoc
	}
	type batch struct {
		ver     uint32
		members []member
		events  int // the backend's events before the batch
	}
	var live []batch
	resetAt := map[int32]int{} // the last reset of each segment, as an event number
	seen := 0
	buf := make([]byte, 4096)
	r := rand.New(rand.NewPCG(31, 9))
	crashes := 0
	for op := 0; op < 20000 && crashes < images; op++ {
		bt := batch{ver: uint32(1_000_000 + op), events: len(cb.log())}
		b := NewBatch()
		for len(bt.members) < 4 {
			id := uint32(r.IntN(len(version)))
			if slices.ContainsFunc(bt.members, func(m member) bool { return m.id == id }) {
				continue
			}
			version[id] = bt.ver
			stamp(buf, id, bt.ver)
			b.Write(id, buf)
			bt.members = append(bt.members, member{id: id})
		}
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		for i := range bt.members {
			bt.members[i].loc = s.table[bt.members[i].id]
		}
		live = append(live, bt)
		if op%3 == 0 {
			if _, err := s.CleanOnce(); err != nil {
				t.Fatal(err)
			}
		}
		for events := cb.log(); seen < len(events); seen++ {
			if e := events[seen]; e.op == 'r' {
				resetAt[int32(e.seg)] = seen + 1
			}
		}
		// Keep the batches with a member still current in its batch record, and
		// look among them for one whose every such member is sealed and another
		// member was moved out of a segment since reset.
		broken := false
		live = slices.DeleteFunc(live, func(bt batch) bool {
			kept, sealed, moved := false, true, false
			for _, m := range bt.members {
				switch loc := s.table[m.id]; {
				case loc == m.loc:
					kept, sealed = true, sealed && s.meta[loc.seg].State != core.SegOpen
				case version[m.id] == bt.ver && resetAt[m.loc.seg] > bt.events:
					moved = true
				}
			}
			broken = broken || kept && sealed && moved
			return !kept
		})
		if broken {
			crashes++
			reopenAgainst(t, s.opts, liveImage(t, s.opts.Dir), version)
		}
	}
	// A backing victim's reset is stamped after its forced sync point.
	if backing := s.Obs().Counter("store.backing.syncs").Value(); crashes == 0 || backing == 0 {
		t.Fatalf("%d images of a batch that lost a relocated member's record to a reset while another member stayed current, %d backing victims reused: the geometry is miscalibrated", crashes, backing)
	}
}

// TestRelocationSealSyncsUserRecords: DurSeal owes a user's record an fsync at
// its segment's seal, not at a cleaning cycle's sync point, and relocated
// copies never share a segment with a user's record (they fill the GC
// stream). Checked at every fsync of a foreground run that cleans: no sealed
// segment but the one being fsynced holds a user record that no fsync has
// covered, and no unsynced segment holds both kinds of record. A seal's fsync
// runs on the syncer while the writer goes on, so its hook reads only the
// segment the seal claimed; the ledger as that claim left it is checked once
// the write that sealed returns, the seal's fsync still in flight.
func TestRelocationSealSyncsUserRecords(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), PageSize: 256, SegmentPages: 16, MaxSegments: 64, CleanBatch: 4,
		FreeLowWater: 8, Durability: core.DurSeal})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check := func(at int32) {
		for seg, e := range s.unsynced {
			if e.user && e.reloc {
				t.Errorf("segment %d holds both a user record and a relocated copy", seg)
			}
			if s.meta[seg].State != core.SegOpen && e.user && seg != at {
				t.Errorf("sealed segment %d holds a user record no fsync has covered", seg)
			}
		}
	}
	count(s).failSync = func(at int) error {
		if int32(at) != s.sealing { // a sync point's, its caller holding the lock
			check(int32(at))
		}
		return nil
	}
	const pages = 500
	r := rand.New(rand.NewPCG(5, 24))
	buf := make([]byte, 256)
	for op := 0; op < 12000; op++ {
		id := uint32(op)
		if op >= pages {
			id = uint32(r.IntN(pages / (1 + 7*r.IntN(2))))
		}
		stamp(buf, id, uint32(op))
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		check(s.sealing)
	}
	if st := s.Stats(); st.SegmentsCleaned == 0 {
		t.Error("no segment cleaned: the run should relocate")
	}
	checkInvariants(t, s)
}

// TestFailedRunWriteInApply: a run write that fails inside an Apply (or a
// WritePage) surfaces from that same call. The run stays staged, so the next
// write that reaches the backend carries it, and no hole is left in the log.
func TestFailedRunWriteInApply(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PageSize: 64, SegmentPages: 16, MaxSegments: 32, CleanBatch: 4, FreeLowWater: 6})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0); id < 8; id++ {
		if err := s.WritePage(id, page(id, 64)); err != nil {
			t.Fatal(err)
		}
	}
	cb := count(s)
	cb.failWrite = func(int, int64) error { return errInjected }
	b := NewBatch()
	for id := uint32(4); id < 12; id++ {
		b.Write(id, page(id+100, 64))
	}
	if err := s.Apply(b); !errors.Is(err, errInjected) {
		t.Fatalf("Apply with a failing backend: %v, want the injected error", err)
	}
	if err := s.WritePage(20, page(20, 64)); !errors.Is(err, errInjected) {
		t.Fatalf("WritePage with a failing backend: %v, want the injected error", err)
	}
	checkInvariants(t, s)

	cb.failWrite = nil
	if err := s.WritePage(21, page(21, 64)); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store) {
		t.Helper()
		buf := make([]byte, 64)
		for id := uint32(0); id < 22; id++ {
			want := page(id, 64)
			if id >= 4 && id < 12 {
				want = page(id+100, 64)
			}
			if err := s.ReadPage(id, buf); id >= 12 && id < 20 {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("page %d was never written: %v", id, err)
				}
			} else if id == 20 && errors.Is(err, ErrNotFound) {
				// The failed WritePage: staged and carried too, or refused
				// before it was, depending on where the batch left the segment.
			} else if err != nil || !bytes.Equal(buf, want) {
				t.Fatalf("page %d: %v, or not the bytes last written", id, err)
			}
		}
		checkInvariants(t, s)
	}
	check(s)
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(s.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
}

// TestSealErrorInWritePage: a backend error sealing the full open segment
// inside a write's apply loop reaches the caller as that error, not as a
// batch reservation violation (which only an ErrFull there would be). A
// seal's fsync runs behind the writer, so its failure comes back from the
// write whose seal settles it, and from Sync: the injected error, wrapped.
func TestSealErrorInWritePage(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), PageSize: 256, SegmentPages: 4, MaxSegments: 16, Durability: core.DurSeal})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := uint32(0); id < 4; id++ { // three full pages and a short one: room is left, but no full page fits
		if err := s.WritePage(id, page(id, 256-156*int(id/3))); err != nil {
			t.Fatal(err)
		}
	}
	count(s).failSync = func(int) error { return errSyncInjected }
	if err := s.WritePage(4, page(4, 256)); err != nil { // seals the segment: its fsync runs behind
		t.Fatalf("WritePage whose seal's fsync runs behind it: %v", err)
	}
	id := uint32(5)
	for ; err == nil && id < 5+4; id++ { // the next seal settles the failed fsync
		err = s.WritePage(id, page(id, 256))
	}
	if !errors.Is(err, errSyncInjected) || strings.Contains(err.Error(), "reservation") || id != 5+3 {
		t.Fatalf("WritePage %d whose seal settles a failed fsync: %v, want the injected fsync error, from the write that fills the next segment", id-1, err)
	}
	if err := s.Sync(); !errors.Is(err, errSyncInjected) {
		t.Fatalf("Sync after a seal's failed fsync: %v, want the injected error", err)
	}
}

// TestSealFsyncRunsBehindTheWriter: under DurSeal a seal hands its fsync to
// the store's syncer and returns, so the Apply that sealed returns while that
// fsync is held; the next seal, Sync, CleanOnce and Close each wait for it
// (one store.seal.wait.ns sample each); a failure of the held fsync poisons
// the store, and the next write returns it wrapped; and no goroutine is left
// once the stores are closed.
func TestSealFsyncRunsBehindTheWriter(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	// open returns a store whose next fill (four full pages: exactly a
	// segment, which it seals) hold makes the seal fsync of, held until the
	// test sends its outcome on release.
	open := func() (s *Store, fill func() error, hold func() int32, release chan error) {
		s, err := Open(Options{Dir: t.TempDir(), PageSize: 64, SegmentPages: 4, MaxSegments: 16, CleanBatch: 2,
			FreeLowWater: 4, Durability: core.DurSeal})
		if err != nil {
			t.Fatal(err)
		}
		arm, held, release := make(chan struct{}, 1), make(chan int, 1), make(chan error)
		count(s).failSync = func(seg int) error {
			select {
			case <-arm:
				held <- seg
				return <-release
			default:
				return nil
			}
		}
		ver := uint32(0)
		fill = func() error {
			b := NewBatch()
			for id := uint32(0); id < 4; id++ {
				b.Write(id, page(id+ver, 64))
			}
			ver++
			return s.Apply(b)
		}
		hold = func() int32 {
			checkInvariants(t, s) // settles the last seal: its fsync must not take the arm
			arm <- struct{}{}
			if err := fill(); err != nil {
				t.Fatalf("the Apply that seals: %v", err)
			}
			seg := int32(<-held) // the Apply has returned; the fsync has not
			if s.sealing != seg {
				t.Fatalf("segment %d's seal fsync is held, but the store has %d in flight", seg, s.sealing)
			}
			return seg
		}
		return s, fill, hold, release
	}

	s, fill, hold, release := open()
	waited := s.Obs().Histogram("store.seal.wait.ns")
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"the next seal", fill},
		{"Sync", s.Sync},
		{"CleanOnce", func() error {
			if n, err := s.CleanOnce(); err != nil || n == 0 {
				return fmt.Errorf("CleanOnce = %d, %v", n, err)
			}
			return nil
		}},
		{"Close", s.Close},
	} {
		seg, before := hold(), waited.Count()
		done := make(chan error, 1)
		go func() { done <- op.run() }()
		select {
		case err := <-done:
			t.Fatalf("%s returned (%v) while segment %d's seal fsync was held", op.name, err, seg)
		case <-time.After(50 * time.Millisecond):
		}
		release <- nil
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if n := waited.Count(); n != before+1 {
			t.Errorf("%s: %d store.seal.wait.ns samples, want %d", op.name, n, before+1)
		}
	}

	s, fill, hold, release = open()
	hold()
	release <- errSyncInjected
	if err := fill(); !errors.Is(err, errSyncInjected) || err.Error() == errSyncInjected.Error() {
		t.Fatalf("the write whose seal settles a failed fsync: %v, want the fsync error, wrapped", err)
	}
	if err := s.WritePage(9, page(9, 64)); !errors.Is(err, errSyncInjected) || err.Error() == errSyncInjected.Error() {
		t.Fatalf("a write after a failed seal fsync: %v, want the fsync error, wrapped", err)
	}
	if err := s.Close(); !errors.Is(err, errSyncInjected) {
		t.Fatalf("Close of the poisoned store: %v, want the fsync error", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestWriteErrorCuttingABatchPoisons: a run write that fails while sealing
// the segment a batch fills, half of the batch's records in and half not,
// poisons the store: the Apply, a later write and Close return the error even
// with the backend working again, and a reopen holds the pages as they were
// before the batch and none of it. (Without the poison, Close's sync point
// would vouch for the half batch.)
func TestWriteErrorCuttingABatchPoisons(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PageSize: 64, SegmentPages: 16, MaxSegments: 32, Durability: core.DurCommit})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0); id < 8; id++ {
		if err := s.WritePage(id, page(id, 64)); err != nil {
			t.Fatal(err)
		}
	}
	cb := count(s)
	cb.failWrite = func(int, int64) error { return errInjected }
	b := NewBatch()
	for id := uint32(4); id < 16; id++ { // the open segment has room for 8 of the 12
		b.Write(id, page(id+100, 64))
	}
	if err := s.Apply(b); !errors.Is(err, errInjected) {
		t.Fatalf("Apply whose seal fails mid-batch: %v, want the injected error", err)
	}
	cb.failWrite = nil
	if err := s.WritePage(30, page(30, 64)); !errors.Is(err, errInjected) {
		t.Errorf("WritePage after the cut batch: %v, want the injected error", err)
	}
	if err := s.Close(); !errors.Is(err, errInjected) {
		t.Errorf("Close after the cut batch: %v, want the injected error", err)
	}
	s, err = Open(s.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 64)
	for id := uint32(0); id < 16; id++ {
		if err := s.ReadPage(id, buf); id >= 8 {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("page %d, only ever in the cut batch: %v, want not found", id, err)
			}
		} else if err != nil || !bytes.Equal(buf, page(id, 64)) {
			t.Errorf("page %d: %v, or not its bytes from before the batch", id, err)
		}
	}
	checkInvariants(t, s)
}

// TestCleanOnceBesideBackgroundCleaner: a cycle owns its window, so a
// foreground CleanOnce (under the lock) can overlap the background cleaner's
// lock-free Load. Writers (each owning its pages, so the oracle is exact) and
// readers run beside a background-cleaning store whose victims are three
// windows long, and whenever the background cleaner is in a cycle a third
// party runs CleanOnce; no read is ever torn, misdirected or older than a
// version its writer had already seen acknowledged, and every page ends at
// its oracle version. The writers go on past their quota, up to a deadline,
// until both the background cleaner and CleanOnce have run a cycle: on one
// CPU the quota can be over before CleanOnce has seen a cycle under way. Run
// under -race this is the locking proof.
func TestCleanOnceBesideBackgroundCleaner(t *testing.T) {
	const pageSize, writers, perWriter, opsPerWriter = 1024, 3, 600, 1500
	s, err := Open(Options{PageSize: pageSize, SegmentPages: 192, MaxSegments: 24, CleanBatch: 4, FreeLowWater: 8, BackgroundClean: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if extent := s.opts.segmentBytes(); extent <= 2*ioUnit {
		t.Fatalf("a %d-byte victim is not three windows", extent)
	}
	const pages = writers * perWriter
	acked := make([]struct {
		sync.Mutex
		v uint32
	}, pages)
	buf := make([]byte, pageSize)
	for id := uint32(0); id < pages; id++ {
		stamp(buf, id, 0)
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	var wwg, bg sync.WaitGroup
	done := make(chan struct{})
	var fgCycles atomic.Int64
	bothCleaned := func() bool {
		cl := s.cl.snapshot()
		return fgCycles.Load() > 0 && cl.Cycles > 0
	}
	deadline := time.Now().Add(time.Minute)
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 3))
			buf := make([]byte, pageSize)
			for i := 0; i < opsPerWriter || !bothCleaned() && time.Now().Before(deadline); i++ {
				id := uint32(w*perWriter + r.IntN(perWriter/(1+3*r.IntN(2)))) // half the writes to a hot quarter
				a := &acked[id]
				stamp(buf, id, a.v+1)
				if err := s.WritePage(id, buf); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				a.Lock()
				a.v++
				a.Unlock()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 8))
			buf := make([]byte, pageSize)
			for {
				select {
				case <-done:
					return
				default:
				}
				id := uint32(r.IntN(pages))
				a := &acked[id]
				a.Lock()
				floor := a.v
				a.Unlock()
				if err := s.ReadPage(id, buf); err != nil {
					t.Errorf("reader: page %d: %v", id, err)
					return
				}
				if err := checkStampAtLeast(buf, id, floor); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				runtime.Gosched() // the writers set the pace, not the readers
			}
		}()
	}
	next := uint64(0)
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// Once per background cycle, while it is under way.
			if cl := s.cl.snapshot(); cl.State == "idle" || cl.Cycles < next {
				runtime.Gosched()
				continue
			} else {
				next = cl.Cycles + 1
			}
			if n, err := s.CleanOnce(); err != nil && !errors.Is(err, ErrFull) {
				t.Errorf("CleanOnce: %v", err)
				return
			} else if n > 0 {
				fgCycles.Add(1)
			}
		}
	}()
	wwg.Wait()
	close(done)
	bg.Wait()
	if st, cycles := s.Stats(), fgCycles.Load(); cycles == 0 || st.Cleaner.Cycles == 0 {
		t.Errorf("foreground CleanOnce ran %d cycles, the background cleaner %d; both should have", cycles, st.Cleaner.Cycles)
	}
	for id := range acked {
		if err := s.ReadPage(uint32(id), buf); err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if err := checkStampAtLeast(buf, uint32(id), acked[id].v); err != nil {
			t.Fatal(err)
		} else if err := checkStampAtLeast(buf, uint32(id), acked[id].v+1); err == nil {
			t.Fatalf("page %d is newer than its last acknowledged version %d", id, acked[id].v)
		}
	}
	checkInvariants(t, s)
}

// checkStampAtLeast verifies buf is one intact stamped version of page id, no
// older than floor.
func checkStampAtLeast(buf []byte, id, floor uint32) error {
	if err := checkStamp(buf, id); err != nil {
		return err
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v < floor {
		return fmt.Errorf("page %d read back at version %d, version %d was already acknowledged", id, v, floor)
	}
	return nil
}

// zipfStore is the store_zipf_f80 geometry of the benchmark at reduced size:
// 4 KiB pages at fill 0.8, MDC cleaning in the foreground, DurSeal, written in
// 32-page Applies drawn from a Zipf 0.99 distribution.
type zipfStore struct {
	s     *Store
	zipf  *rand.Zipf
	batch *Batch
	page  []byte
}

func openZipfStore(tb testing.TB) *zipfStore {
	tb.Helper()
	const pages, segPages, lowWater = 4000, 64, 12
	s, err := Open(Options{
		Dir: tb.TempDir(), PageSize: 4096, SegmentPages: segPages, FreeLowWater: lowWater,
		MaxSegments: pages*10/8/segPages + 1 + lowWater, Durability: core.DurSeal,
	})
	if err != nil {
		tb.Fatal(err)
	}
	z := &zipfStore{s: s, batch: NewBatch(), page: make([]byte, 4096)}
	z.zipf = rand.NewZipf(rand.New(rand.NewPCG(1, 2)), 1.01, 1, pages-1) // rand has no s ≤ 1: 1.01 stands in for 0.99
	next := uint64(0)
	z.apply(tb, pages/32, func() uint64 { next++; return next - 1 })
	z.apply(tb, 2*pages/32, z.zipf.Uint64)
	return z
}

// apply issues n 32-page Applies of pages drawn from key.
func (z *zipfStore) apply(tb testing.TB, n int, key func() uint64) {
	for ; n > 0; n-- {
		z.batch.Reset()
		for i := 0; i < 32; i++ {
			id := uint32(key())
			stamp(z.page, id, uint32(n))
			z.batch.Write(id, z.page)
		}
		if err := z.s.Apply(z.batch); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRelocationAllocBudget: relocating a page allocates no copy of it, nor a
// candidate table per cycle (the log keeps one between its cycles) — over a
// seeded foreground run at fill 0.8 the store allocates at most 8 bytes per
// relocated page, where the payload copy alone used to be a page size. The
// minimum of three rounds is the cost; anything above it is another test's
// leftover goroutine.
func TestRelocationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	z := openZipfStore(t)
	defer z.s.Close()
	best := 0.0
	for round := 0; round < 3; round++ {
		var m0, m1 runtime.MemStats
		before := z.s.Stats().GCWrites
		runtime.ReadMemStats(&m0)
		z.apply(t, 200, z.zipf.Uint64)
		runtime.ReadMemStats(&m1)
		moved := z.s.Stats().GCWrites - before
		if moved < 2000 {
			t.Fatalf("round %d relocated %d pages, the budget wants at least 2000", round, moved)
		}
		if per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(moved); best == 0 || per < best {
			best = per
		}
	}
	t.Logf("%.1f bytes allocated per relocated page", best)
	if best > 8 {
		t.Errorf("%.1f bytes allocated per relocated page, the budget is 8", best)
	}
}

// TestSingleWriteAllocBudget: a steady-state WritePage, and a DeletePage
// followed by a WritePage, on a memory store allocate nothing per op, foreground
// cleaning included: the one-op batch a single write applies stays on the
// stack.
func TestSingleWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	s, err := Open(Options{PageSize: 512, SegmentPages: 8, MaxSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, 300)
	id := uint32(0)
	next := func() uint32 { id = (id + 1) % 96; return id }
	write := func() {
		if err := s.WritePage(next(), data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8192; i++ {
		write()
	}
	cleaned := s.Stats().SegmentsCleaned
	if n := testing.AllocsPerRun(4000, write); n != 0 {
		t.Errorf("WritePage allocates %v per op, the budget is 0", n)
	}
	if n := testing.AllocsPerRun(4000, func() {
		p := next()
		if err := s.DeletePage(p); err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(p, data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DeletePage+WritePage allocates %v per op, the budget is 0", n)
	}
	if s.Stats().SegmentsCleaned == cleaned {
		t.Error("no cleaning ran while measuring")
	}
}
