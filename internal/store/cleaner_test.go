package store

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// The background cleaner tested on a real store: in memory, 8-byte pages ten
// to a segment (cycle_test.go), 16 segments, CleanBatch 2, FreeLowWater 6 and
// FreeEmergency 3, so the high watermark is 8. Its policy names no victim
// until let is called: a test writes the pool down to where it wants it with
// the cleaner running but finding nothing to clean, then lets it clean the
// emptiest segments, two a cycle (greedy).

// held is greedy once let, and names no victim before.
type held struct {
	core.Policy
	let bool
}

func (p *held) Victims(v core.View, max int, dst []int32) []int32 {
	if !p.let {
		return dst
	}
	return p.Policy.Victims(v, max, dst)
}

type heldStore struct {
	*scriptedStore
	p *held
	n int // pages written by fill
}

func openHeld(t *testing.T) *heldStore {
	t.Helper()
	p := &held{Policy: core.Greedy().Policy}
	s := openScripted(t, nil, Options{MaxSegments: 16, CleanBatch: 2, FreeLowWater: 6, FreeEmergency: 3, BackgroundClean: true,
		Algorithm: core.Algorithm{Name: "held", Policy: p}})
	t.Cleanup(func() { s.Close() })
	return &heldStore{scriptedStore: s, p: p}
}

// let lets the policy name victims. The cleaner asks it under the store lock.
func (s *heldStore) let() {
	s.mu.Lock()
	s.p.let = true
	s.mu.Unlock()
}

// fill writes full-length pages until the free pool is down to free segments.
// Of every ten pages, live have names of their own; the rest overwrite the
// same names every ten pages, so a segment keeps live pages once the next is
// written. With nothing cleaning, only these writes move the pool.
func (s *heldStore) fill(t *testing.T, free, live int) {
	t.Helper()
	for ; s.cl.free() > free; s.n++ {
		name := fmt.Sprintf("hot%d", s.n%10)
		if s.n%10 < live {
			name = fmt.Sprintf("keep%d", s.n)
		}
		s.put(t, name, s.opts.PageSize)
	}
}

// park makes every backend read wait until the returned gate is closed, and
// returns once the cleaner is relocating: its cycle is parked in the read of
// its victim (these tests read no page).
func (s *heldStore) park(t *testing.T) chan struct{} {
	t.Helper()
	gate := make(chan struct{})
	count(s.Store).failRead = func(int, int64) error {
		<-gate
		return nil
	}
	s.let()
	waitFor(t, "the cleaner to relocate", func() bool { return s.cl.snapshot().State == "relocating" })
	return gate
}

// stall parks the cleaner, writes the pool below the emergency floor and
// starts one more write, which admission blocks; its error arrives on the
// returned channel.
func (s *heldStore) stall(t *testing.T) (gate chan struct{}, written chan error) {
	t.Helper()
	s.fill(t, s.opts.FreeEmergency, 2)
	gate = s.park(t)
	s.fill(t, s.opts.FreeEmergency-1, 2)
	written = make(chan error, 1)
	id := s.id("blocked")
	go func() { written <- s.WritePage(id, make([]byte, 8)) }()
	waitFor(t, "the write to stall", func() bool { return s.cl.snapshot().WriterStalls > 0 })
	return gate, written
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackgroundWatermarkHysteresis: below the low watermark the cleaner
// cleans until the pool reaches the high one, goes idle, and stays quiet while
// the pool is above the low one. Every victim is empty, so each cycle nets a
// segment and the cost rule never stops it early.
func TestBackgroundWatermarkHysteresis(t *testing.T) {
	s := openHeld(t)
	s.fill(t, 4, 0)
	s.let()
	waitFor(t, "the pool to recover to the high watermark", func() bool { return s.cl.free() >= s.cl.high })
	waitFor(t, "the cleaner to go idle", func() bool { return s.Stats().Cleaner.State == "idle" })
	st := s.Stats().Cleaner
	if st.Cycles < 2 || st.SegmentsReclaimed < 4 || st.BytesReclaimed == 0 {
		t.Errorf("%d cycles reclaimed %d segments, %d bytes; want at least 4 empty segments in 2 cycles to go from 4 free to 8", st.Cycles, st.SegmentsReclaimed, st.BytesReclaimed)
	}
	time.Sleep(4 * cleanPoll)
	if got := s.Stats().Cleaner.Cycles; got != st.Cycles {
		t.Errorf("the cleaner ran %d more cycles with the pool above the low watermark", got-st.Cycles)
	}
	s.check(t)
}

// TestCloseCleansToTheHighWatermark: Close runs cycles until the pool reaches
// the high watermark, so a store closed with the pool between the watermarks
// (where the cleaner does not wake) is closed at the high one; and it stops
// at a cycle that nets less than a segment, where the high one is out of
// reach.
func TestCloseCleansToTheHighWatermark(t *testing.T) {
	for _, tc := range []struct {
		name     string
		live     int // pages of every ten that stay live
		wantFree int
		cleaned  uint64 // segments Close cleans
	}{
		{"garbage", 0, 9, 2},   // one cycle frees 2 empty segments: 7 → 9
		{"all-live", 10, 7, 2}, // one cycle moves 2 full segments: 7 → 7
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openHeld(t)
			s.fill(t, s.opts.FreeLowWater+1, tc.live)
			s.let()
			before := s.Stats().SegmentsCleaned
			time.Sleep(2 * cleanPoll) // the pool is above the low watermark: no cycle
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.FreeSegments != tc.wantFree || st.SegmentsCleaned-before != tc.cleaned {
				t.Errorf("closed with %d free segments after cleaning %d; want %d after %d",
					st.FreeSegments, st.SegmentsCleaned-before, tc.wantFree, tc.cleaned)
			}
		})
	}
}

// TestBackgroundAdmissionBlocksBelowFloorUntilRelease: a write finding the
// pool below FreeEmergency waits while the cleaner's relocation is parked and
// goes through once a release lifts the pool back to the floor.
func TestBackgroundAdmissionBlocksBelowFloorUntilRelease(t *testing.T) {
	s := openHeld(t)
	gate, written := s.stall(t)
	select {
	case err := <-written:
		t.Fatalf("write = %v with the pool below the emergency floor", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-written:
		if err != nil {
			t.Fatalf("write = %v after the cleaner released space", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write still blocked after a release")
	}
	s.check(t)
}

// TestBackgroundStallCountersSurfaceInStatsAndObs: one stall below the
// emergency floor is in Stats and in the registry alike
// (cleaner.admission.stalls / .stall_ns), and traced as emergency.floor.
func TestBackgroundStallCountersSurfaceInStatsAndObs(t *testing.T) {
	s := openHeld(t)
	gate, written := s.stall(t)
	close(gate)
	if err := <-written; err != nil {
		t.Fatalf("write = %v after the cleaner released space", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, snap := s.Stats().Cleaner, s.Obs().Snapshot()
	if st.WriterStalls != 1 || st.WriterStallTime == 0 {
		t.Fatalf("stalls=%d stallTime=%v, want one stall with a wait", st.WriterStalls, st.WriterStallTime)
	}
	if got := snap.Counters["cleaner.admission.stalls"]; got != st.WriterStalls {
		t.Errorf("registry stalls = %d, stats say %d", got, st.WriterStalls)
	}
	if got := snap.Counters["cleaner.admission.stall_ns"]; got != uint64(st.WriterStallTime) {
		t.Errorf("registry stall_ns = %d, stats say %d", got, st.WriterStallTime)
	}
	floorEvents := 0
	for _, ev := range snap.Events {
		if ev.Kind == "emergency.floor" {
			floorEvents++
		}
	}
	if floorEvents != 1 {
		t.Errorf("%d emergency.floor trace events for one stall", floorEvents)
	}
}

// TestBackgroundExhaustion: a write blocked below the floor learns ErrFull
// from the cleaner's verdict, not from a timeout — when there is nothing to
// clean (the policy names no victim, as with nothing sealed), and when two
// cycles in a row reclaim nothing (every victim is all live: relocation takes
// a segment for each one released).
func TestBackgroundExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name      string
		let       bool
		minCycles uint64
	}{
		{name: "nothing to clean"},
		{name: "two dry cycles", let: true, minCycles: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openHeld(t)
			s.fill(t, s.opts.FreeEmergency, 10)
			if tc.let {
				// A cycle that found no victim before let could still
				// conclude: wait until the cleaner has cycled after it.
				s.let()
				waitFor(t, "a dry cycle", func() bool { return s.cl.snapshot().Cycles > 0 })
			}
			var err error
			for i := 0; err == nil && i < 1000; i++ {
				err = s.WritePage(s.id(fmt.Sprintf("more%d", i)), make([]byte, 8))
			}
			s.cl.mu.Lock()
			full := s.cl.full
			s.cl.mu.Unlock()
			if !errors.Is(err, ErrFull) || !full {
				t.Fatalf("write = %v, cleaner's verdict full: %v; want ErrFull on that verdict", err, full)
			}
			// Each wakeup stands down after two dry cycles, and the first
			// below the floor gives the verdict: a few wakeups' worth of
			// cycles (6 to 14 seen), where a cleaner drawing no verdict from
			// dry cycles runs on.
			if st := s.Stats().Cleaner; st.Cycles < tc.minCycles || st.Cycles > 100 || st.BytesReclaimed != 0 || st.Errors != 0 {
				t.Errorf("%d cycles reclaimed %d bytes, %d failed; want %d to 100 reclaiming none, none failing",
					st.Cycles, st.BytesReclaimed, st.Errors, tc.minCycles)
			}
		})
	}
}

// TestBackgroundRelocationErrorAborts: a failed relocation aborts its cycle —
// its victims are sealed again (or released, if drained), none is left
// mid-clean — and counts in Errors and LastError.
func TestBackgroundRelocationErrorAborts(t *testing.T) {
	s := openHeld(t)
	s.fill(t, 4, 2)
	count(s.Store).failRead = func(int, int64) error { return errReadInjected }
	s.let()
	waitFor(t, "a failed cycle", func() bool { return s.cl.snapshot().Errors > 0 })
	s.stopCleaner() // a later cycle may be under way; stopping lets it abort
	for seg := range s.meta {
		if s.meta[seg].State == core.SegCleaning {
			t.Errorf("segment %d left mid-clean after the aborts", seg)
		}
	}
	if st := s.Stats().Cleaner; !strings.Contains(st.LastError, errReadInjected.Error()) {
		t.Errorf("LastError = %q after %d errors", st.LastError, st.Errors)
	}
	s.check(t)
}

// TestCloseWakesStalledWriter: Close gives a write blocked in admission the
// closed error every later write gets, without waiting for the cleaner's
// parked cycle.
func TestCloseWakesStalledWriter(t *testing.T) {
	s := openHeld(t)
	gate, written := s.stall(t)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-written:
		if !errors.Is(err, errClosed) {
			t.Fatalf("write = %v, want the closed error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write still blocked after Close")
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(1, make([]byte, 8)); !errors.Is(err, errClosed) {
		t.Errorf("write after Close = %v", err)
	}
}

// TestBackgroundCleanerState: each state has its name, Stats().Cleaner.State
// reads idle on a store with nothing to clean and stopped after Close, and
// the trace numbers the states as obs.EvCleanerState documents.
func TestBackgroundCleanerState(t *testing.T) {
	for st, want := range map[cleanerState]string{
		stateIdle: "idle", stateSelecting: "selecting", stateRelocating: "relocating",
		stateReleasing: "releasing", stateStopped: "stopped",
	} {
		if st.String() != want {
			t.Errorf("cleanerState(%d) = %q, want %q", st, st.String(), want)
		}
	}
	s := openHeld(t)
	if st := s.Stats().Cleaner.State; st != "idle" {
		t.Errorf("cleaner state %q on a fresh store, want idle", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Cleaner.State; st != "stopped" {
		t.Errorf("cleaner state %q after Close, want stopped", st)
	}
	events := s.Obs().Snapshot().Events
	if i := slices.IndexFunc(events, func(ev obs.Event) bool { return ev.Kind == "cleaner.state" && ev.Args[1] == 4 }); i < 0 {
		t.Error("no cleaner.state event into state 4 (stopped)")
	}
}

// TestBackgroundStallTimeout: a write blocked in admission longer than
// stallTimeout fails with errStalled.
func TestBackgroundStallTimeout(t *testing.T) {
	defer func(d time.Duration) { stallTimeout = d }(stallTimeout)
	stallTimeout = 20 * time.Millisecond
	s := openHeld(t)
	gate, written := s.stall(t)
	defer close(gate)
	if err := <-written; !errors.Is(err, errStalled) {
		t.Fatalf("write = %v, want errStalled", err)
	}
}
