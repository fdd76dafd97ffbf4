package store

import (
	"bytes"
	"math/rand/v2"
	"os"
	"sort"
	"testing"

	"repro/internal/core"
)

// writeGarbage simulates a torn partial file left behind by a crash.
func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("torn checkpoint bytes"), 0o644)
}

// TestRoutedAlgorithmsOnStore runs the routed algorithms (multi-log and the
// temperature-routed MDC) through a skewed churn and verifies data
// integrity, that cleaning ran, and that placement actually used more than
// the classic two streams.
func TestRoutedAlgorithmsOnStore(t *testing.T) {
	for _, alg := range []core.Algorithm{core.MultiLog(), core.MDCRouted()} {
		t.Run(alg.Name, func(t *testing.T) {
			opts := testOpts("")
			opts.MaxSegments = 128 // room for per-stream opens at real fill
			opts.Algorithm = alg
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const live = 600 // ~0.3 fill: victims carry live data to relocate
			r := rand.New(rand.NewPCG(17, 19))
			for id := uint32(0); id < live; id++ {
				if err := s.WritePage(id, page(id, 128)); err != nil {
					t.Fatal(err)
				}
			}
			want := map[uint32][]byte{}
			for i := 0; i < 20000; i++ {
				var id uint32
				if r.Float64() < 0.9 {
					id = uint32(r.IntN(live / 10)) // hot 10%
				} else {
					id = uint32(live/10 + r.IntN(live*9/10))
				}
				v := page(id+uint32(i), 128)
				if err := s.WritePage(id, v); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				want[id] = v
			}
			st := s.Stats()
			if st.SegmentsCleaned == 0 || st.GCWrites == 0 {
				t.Errorf("cleaning never ran under %s: %+v", alg.Name, st)
			}
			if n := core.WrittenStreams(st.Streams); n <= 2 {
				t.Errorf("routed %s used only %d streams", alg.Name, n)
			}
			buf := make([]byte, 128)
			for id := uint32(0); id < live; id++ {
				if err := s.ReadPage(id, buf); err != nil {
					t.Fatalf("ReadPage(%d) after routed churn: %v", id, err)
				}
				w := want[id]
				if w == nil {
					w = page(id, 128)
				}
				if !bytes.Equal(buf, w) {
					t.Fatalf("page %d corrupted under %s", id, alg.Name)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRoutedRecoveryRoundTrip churns a routed store on disk, closes it, and
// recovers: stream headers round-trip and every page survives.
func TestRoutedRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.Algorithm = core.MDCRouted()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(23, 29))
	want := map[uint32][]byte{}
	for i := 0; i < 8000; i++ {
		id := uint32(r.IntN(200))
		v := page(id*5+uint32(i), 128)
		if err := s.WritePage(id, v); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	if n := core.WrittenStreams(s.Stats().Streams); n <= 2 {
		t.Fatalf("routed store used only %d streams", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("routed reopen: %v", err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	// The observed-stream set (and with it the routed free-pool reserve)
	// must be rebuilt from the recovered segment headers, not relearned.
	if got := core.WrittenStreams(s2.Stats().Streams); got <= 2 {
		t.Errorf("recovered stream set = %d streams, want the routed layout restored", got)
	}
	buf := make([]byte, 128)
	for id, v := range want {
		if err := s2.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage(%d) after routed recovery: %v", id, err)
		}
		if !bytes.Equal(buf, v) {
			t.Fatalf("page %d lost in routed recovery", id)
		}
	}
	// The recovered store keeps routing and cleaning.
	for i := 0; i < 8000; i++ {
		id := uint32(r.IntN(200))
		if err := s2.WritePage(id, page(id, 128)); err != nil {
			t.Fatalf("write after routed recovery: %v", err)
		}
	}
}

// TestRoutedThinDataDoesNotWedge spreads a handful of pages across many
// frequency bands at the minimum geometry the routed validation accepts:
// every band pins an open segment and pads the cleaning reserve, and the
// 2x-streams validation floor must leave enough segments that thin data
// never wedges into ErrFull.
func TestRoutedThinDataDoesNotWedge(t *testing.T) {
	opts := Options{
		PageSize: 64, SegmentPages: 8, MaxSegments: 64,
		CleanBatch: 4, FreeLowWater: 6, Algorithm: core.MultiLog(),
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Page k is updated every 2^k ticks, so the interval estimates span 12
	// binary orders of magnitude and each page settles into its own log.
	for tick := 1; tick <= 20000; tick++ {
		for k := 0; k < 12; k++ {
			if tick%(1<<k) == 0 {
				if err := s.WritePage(uint32(k), page(uint32(k), 64)); err != nil {
					t.Fatalf("tick %d page %d: %v", tick, k, err)
				}
			}
		}
	}
	if n := core.WrittenStreams(s.Stats().Streams); n < 6 {
		t.Errorf("interval spread only reached %d streams", n)
	}
}

// TestReopenWithNarrowerRouter recovers a store written by a wide router
// (multi-log, 28 streams) with a narrow one (4 temperature bands): the
// recovered stream set must be clamped to the ACTIVE router's space, or
// the free-pool reserve stays inflated by stream ids the new router can
// never route to.
func TestReopenWithNarrowerRouter(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.MaxSegments = 128
	opts.Algorithm = core.MultiLog()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(53, 59))
	for i := 0; i < 10000; i++ {
		var id uint32
		if r.Float64() < 0.9 {
			id = uint32(r.IntN(40))
		} else {
			id = uint32(40 + r.IntN(360))
		}
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if n := core.WrittenStreams(s.Stats().Streams); n <= 4 {
		t.Fatalf("multi-log only used %d streams; test needs a wide layout", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	opts.Algorithm = core.MDCRouted() // 4 streams
	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("narrow reopen: %v", err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	if got := core.WrittenStreams(s2.Stats().Streams); got > int(core.DefaultTempBands) {
		t.Errorf("recovered stream set %d exceeds the active router's %d streams", got, core.DefaultTempBands)
	}
	// The store must keep absorbing writes under the narrow router.
	for i := 0; i < 10000; i++ {
		id := uint32(r.IntN(400))
		if err := s2.WritePage(id, page(id, 128)); err != nil {
			t.Fatalf("write after narrow reopen: %v", err)
		}
	}
}

// TestRecoverySealOrderMatchesLogOrder is the regression test for the
// recovery bug where SealSeq was assigned in segment-id scan order: the
// free list is popped from the back, so id order is typically the REVERSE
// of write order, and a restart handed age-based cleaning an inverted age
// ordering. Recovery must re-seal ordered by header incarnation (log
// order), which makes SealSeq order agree with record-sequence order.
func TestRecoverySealOrderMatchesLogOrder(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SegmentPages = 4
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct pages only: every record stays live, and each sealed
	// segment's minimum record sequence identifies its position in the log.
	for id := uint32(0); id < 40; id++ {
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s2)
	defer s2.Close()

	type seg struct {
		id      int32
		sealSeq uint64
		minSeq  uint64
	}
	var segs []seg
	s2.mu.RLock()
	for id := range s2.log.Meta {
		m := &s2.log.Meta[id]
		if m.State != core.SegSealed || len(s2.recs[id]) == 0 {
			continue
		}
		minSeq := s2.recs[id][0].seq
		for _, si := range s2.recs[id] {
			if si.seq < minSeq {
				minSeq = si.seq
			}
		}
		segs = append(segs, seg{id: int32(id), sealSeq: m.SealSeq, minSeq: minSeq})
	}
	s2.mu.RUnlock()
	if len(segs) < 5 {
		t.Fatalf("only %d sealed segments recovered", len(segs))
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].sealSeq < segs[j].sealSeq })
	for i := 1; i < len(segs); i++ {
		if segs[i].minSeq < segs[i-1].minSeq {
			t.Fatalf("recovered seal order disagrees with log order: seg %d (SealSeq %d, minSeq %d) after seg %d (SealSeq %d, minSeq %d)",
				segs[i].id, segs[i].sealSeq, segs[i].minSeq,
				segs[i-1].id, segs[i-1].sealSeq, segs[i-1].minSeq)
		}
	}
}

// TestRecoveryClockNeverRegresses is the regression test for restoring the
// update clock from a stale checkpoint: writes after the checkpoint push
// the record sequence past ck.unow, and resuming the clock below it would
// let up2 estimates run ahead of "now".
func TestRecoveryClockNeverRegresses(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0); id < 100; id++ {
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes advance both clocks well past the checkpoint.
	for i := 0; i < 3000; i++ {
		id := uint32(i % 100)
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	s2.mu.RLock()
	unow, seq := s2.log.Unow, s2.seq
	var maxUp2 float64
	for i := range s2.log.Meta {
		if s2.log.Meta[i].Up2 > maxUp2 {
			maxUp2 = s2.log.Meta[i].Up2
		}
	}
	s2.mu.RUnlock()
	if unow < seq {
		t.Errorf("recovered update clock %d below max record sequence %d: clock ran backwards", unow, seq)
	}
	if maxUp2 > float64(unow) {
		t.Errorf("recovered up2 estimate %.1f exceeds update clock %d", maxUp2, unow)
	}
}

// TestCheckpointCrashMidInstall simulates a crash between writing the
// checkpoint's temporary file and renaming it into place: the leftover tmp
// file must be ignored and the previous checkpoint must still govern
// recovery (including its deletion set).
func TestCheckpointCrashMidInstall(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.Durability = core.DurSeal // exercise the fsync-and-propagate path too
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32][]byte{}
	for id := uint32(0); id < 80; id++ {
		v := page(id, 128)
		if err := s.WritePage(id, v); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	if err := s.DeletePage(7); err != nil {
		t.Fatal(err)
	}
	delete(want, 7)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More writes, then a torn checkpoint attempt: the tmp file exists with
	// garbage, the rename never happened.
	for id := uint32(100); id < 150; id++ {
		v := page(id, 128)
		if err := s.WritePage(id, v); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	if err := writeGarbage(s.checkpointPath() + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen with torn checkpoint tmp: %v", err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	buf := make([]byte, 128)
	for id, v := range want {
		if err := s2.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage(%d): %v", id, err)
		}
		if !bytes.Equal(buf, v) {
			t.Fatalf("page %d corrupted after torn checkpoint install", id)
		}
	}
	if err := s2.ReadPage(7, buf); err == nil {
		t.Error("deleted page 7 resurrected after torn checkpoint install")
	}
	// Checkpointing still works on the recovered store (and replaces the
	// torn tmp file cleanly).
	if err := s2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after torn install: %v", err)
	}
}
