package cleaner

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeTarget is a scriptable Target: a pool of free segments, a pool of
// sealed victims, and an optional gate that parks Relocate until the test
// releases it.
type fakeTarget struct {
	mu            sync.Mutex
	free          int
	sealed        int
	liveBytes     int64 // bytes "relocated" per victim
	segBytes      int64
	holdFree      bool // Release yields no free segments (GC consumed them)
	relocErr      error
	relocGate     chan struct{} // when non-nil, Relocate blocks on it
	selects       int
	relocates     int
	releases      int
	aborts        int
	cleaningCount int
}

func (f *fakeTarget) FreeSegments() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.free
}

func (f *fakeTarget) SelectVictims(max int) []int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.selects++
	n := min(max, f.sealed)
	f.sealed -= n
	f.cleaningCount += n
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(i)
	}
	return vs
}

func (f *fakeTarget) Relocate(victims []int32) (int, int64, error) {
	f.mu.Lock()
	gate := f.relocGate
	err := f.relocErr
	moved := f.liveBytes * int64(len(victims))
	f.relocates++
	f.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if err != nil {
		return 0, 0, err
	}
	return len(victims), moved, nil
}

func (f *fakeTarget) Release(victims []int32) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.releases++
	f.cleaningCount -= len(victims)
	if !f.holdFree {
		f.free += len(victims)
	}
	return f.segBytes * int64(len(victims))
}

func (f *fakeTarget) Abort(victims []int32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborts++
	f.cleaningCount -= len(victims)
	f.sealed += len(victims)
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

func TestWatermarkHysteresis(t *testing.T) {
	ft := &fakeTarget{free: 2, sealed: 40, segBytes: 1000}
	c, err := Start(ft, Options{LowWater: 4, HighWater: 8, Batch: 2, TotalSegments: 64,
		PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Kick()
	waitFor(t, "pool to recover to high water", func() bool { return ft.FreeSegments() >= 8 })
	waitFor(t, "cleaner to go idle", func() bool { return c.State() == StateIdle })

	st := c.Stats()
	if st.Cycles < 3 || st.SegmentsReclaimed < 6 {
		t.Errorf("cycles=%d reclaimed=%d, want >=3 cycles reaching 8 free from 2 in pairs", st.Cycles, st.SegmentsReclaimed)
	}
	if st.BytesReclaimed == 0 {
		t.Errorf("BytesReclaimed = 0 with empty victims")
	}
	// Above the low watermark the cleaner must stay quiet (hysteresis).
	cycles := st.Cycles
	time.Sleep(20 * time.Millisecond)
	if got := c.Stats().Cycles; got != cycles {
		t.Errorf("cleaner ran %d extra cycles while pool above low water", got-cycles)
	}
}

func TestAdmitBlocksBelowFloorUntilRelease(t *testing.T) {
	gate := make(chan struct{})
	ft := &fakeTarget{free: 1, sealed: 20, segBytes: 1000, relocGate: gate}
	c, err := Start(ft, Options{LowWater: 6, HighWater: 10, EmergencyFloor: 3, Batch: 4,
		TotalSegments: 64, PollInterval: time.Hour}) // cleaner acts only on kicks
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- c.Admit() }()

	// Below the floor and with relocation parked, the write must stay blocked.
	select {
	case err := <-admitted:
		t.Fatalf("Admit returned %v while pool below emergency floor", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(gate) // relocation completes, victims released, writers woken
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("Admit = %v after cleaner released space", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Admit still blocked after release")
	}
	if st := c.Stats(); st.WriterStalls == 0 || st.WriterStallTime == 0 {
		t.Errorf("stall accounting empty: %+v", st)
	}
	c.Stop()
}

func TestAdmitExhausted(t *testing.T) {
	// Nothing sealed, nothing free: the cleaner must conclude the space is
	// gone and fail blocked admissions instead of hanging them.
	ft := &fakeTarget{free: 0, sealed: 0, segBytes: 1000}
	c, err := Start(ft, Options{LowWater: 4, Batch: 2, TotalSegments: 16, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Admit(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Admit = %v, want ErrExhausted", err)
	}
}

func TestDryCyclesMeanExhausted(t *testing.T) {
	// Victims exist but are fully live: every cycle relocates exactly what
	// it releases (and the GC output consumes the released segments, so
	// the pool never grows). Two consecutive dry cycles must mark the
	// space exhausted.
	ft := &fakeTarget{free: 0, sealed: 100, segBytes: 1000, liveBytes: 1000, holdFree: true}
	c, err := Start(ft, Options{LowWater: 4, Batch: 2, TotalSegments: 128, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Admit(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Admit = %v, want ErrExhausted", err)
	}
}

func TestRelocateErrorAborts(t *testing.T) {
	ft := &fakeTarget{free: 1, sealed: 20, segBytes: 1000, relocErr: errors.New("boom")}
	c, err := Start(ft, Options{LowWater: 4, Batch: 2, TotalSegments: 64, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Kick()
	waitFor(t, "a failed cycle", func() bool { return c.Stats().Errors > 0 })
	c.Stop() // a later cycle may have selected victims; Stop lets it abort them
	ft.mu.Lock()
	aborts, cleaning := ft.aborts, ft.cleaningCount
	ft.mu.Unlock()
	if aborts == 0 {
		t.Error("failed relocation never aborted its victims")
	}
	if cleaning != 0 {
		t.Errorf("%d victims stuck in cleaning state after aborts", cleaning)
	}
	if c.Stats().LastError == "" {
		t.Error("LastError not recorded")
	}
}

// stallingTarget keeps the pool below the emergency floor without the
// cleaner concluding exhaustion: every cycle reclaims bytes (live data is
// half a victim) but the GC output consumes the released segments, and the
// victims never run out.
func stallingTarget() *fakeTarget {
	return &fakeTarget{free: 1, sealed: 1 << 40, segBytes: 1000, liveBytes: 500, holdFree: true}
}

func TestAdmitStopReturnsErrStopped(t *testing.T) {
	c, err := Start(stallingTarget(), Options{LowWater: 4, Batch: 2, TotalSegments: 64,
		PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- c.Admit() }()
	waitFor(t, "the write to stall", func() bool { return c.Stats().WriterStalls > 0 })
	c.Stop()
	select {
	case err := <-admitted:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("Admit = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Admit still blocked after Stop")
	}
	if c.State() != StateStopped {
		t.Errorf("state = %v after Stop", c.State())
	}
	c.Stop() // idempotent
}

func TestAdmitStallTimeout(t *testing.T) {
	c, err := Start(stallingTarget(), Options{LowWater: 4, Batch: 2, TotalSegments: 64,
		PollInterval: time.Hour, StallTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Admit(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Admit = %v, want ErrStalled", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []Options{
		{}, // all zero
		{LowWater: 4, Batch: 0, TotalSegments: 8},                    // no batch
		{LowWater: 4, Batch: 2, TotalSegments: 0},                    // no total
		{LowWater: 4, Batch: 2, TotalSegments: 8, EmergencyFloor: 6}, // floor above low
	}
	for i, o := range cases {
		if _, err := Start(&fakeTarget{}, o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateIdle: "idle", StateSelecting: "selecting", StateRelocating: "relocating",
		StateReleasing: "releasing", StateStopped: "stopped",
	} {
		if st.String() != want {
			t.Errorf("State(%d) = %q, want %q", st, st.String(), want)
		}
	}
}

func TestStallCountersSurfaceInStatsAndObs(t *testing.T) {
	// An admission-constrained pool (below the emergency floor, relocation
	// parked) must stall the writer, and the stall must surface both in
	// Stats (WriterStalls/WriterStallTime) and in the shared obs registry
	// (cleaner.admission.* counters, emergency-floor trace event).
	gate := make(chan struct{})
	ft := &fakeTarget{free: 1, sealed: 20, segBytes: 1000, relocGate: gate}
	c, err := Start(ft, Options{LowWater: 6, HighWater: 10, EmergencyFloor: 3, Batch: 4,
		TotalSegments: 64, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- c.Admit() }()
	waitFor(t, "stall to register", func() bool { return c.Stats().WriterStalls > 0 })
	close(gate)
	if err := <-admitted; err != nil {
		t.Fatalf("Admit = %v after release", err)
	}
	c.Stop()

	st := c.Stats()
	if st.WriterStalls != 1 || st.WriterStallTime == 0 {
		t.Fatalf("stall counters: stalls=%d stallTime=%v, want one stall with a wait", st.WriterStalls, st.WriterStallTime)
	}
	snap := c.Obs().Snapshot()
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
	if floorEvents == 0 {
		t.Error("no emergency.floor trace event emitted for the stall")
	}
}
