// Package cleaner runs background space reclamation for the one
// record engine, internal/store (the value log internal/vlog is a key index
// over a store), whose adapter is this package's one Target implementation.
//
// Cleaning in the foreground runs inside the write path: a write that finds
// the free pool below the low-water mark blocks behind entire cleaning
// cycles, so the quality of the victim-selection policy never translates
// into tail latency. This package moves the cleaning lifecycle into a
// dedicated goroutine driven by free-pool watermarks:
//
//   - below LowWater the cleaner starts running cycles;
//   - it keeps going until the pool recovers to HighWater (hysteresis, so
//     it does not thrash at the threshold);
//   - user writes are never delayed by cleaning itself — admission control
//     blocks writers only when the pool falls below an emergency floor, the
//     regime where the only alternative would be running out of space
//     entirely.
//
// The log being cleaned implements Target (an interface so this package
// need not import the store, and so tests can script a target). One cleaning
// cycle is an explicit state machine — Idle → Selecting → Relocating →
// Releasing. The split into
// SelectVictims / Relocate / Release is what enables concurrency: victims
// are marked (core.SegCleaning) under the engine lock, their records are
// then immutable, so the expensive relocation I/O can proceed while
// readers and writers keep using the engine, and only the final pointer
// re-installation and release need brief lock holds again.
//
// Crash-safety contract (durable engines): Relocate must make relocated
// copies durable before it returns, and Release must be the only step
// that allows victim space to be reused. The cleaner never reorders these,
// so at any instant every live record has at least one intact on-disk
// copy; recovery picks the highest-sequence version.
package cleaner

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Errors surfaced through Admit.
var (
	// ErrExhausted means cleaning cannot reclaim any more space: live data
	// has (nearly) reached physical capacity.
	ErrExhausted = errors.New("cleaner: space exhausted")
	// ErrStopped means the cleaner was stopped while the caller waited.
	ErrStopped = errors.New("cleaner: stopped")
	// ErrStalled means a blocked writer exceeded StallTimeout without the
	// cleaner recovering the emergency floor.
	ErrStalled = errors.New("cleaner: admission stalled")
)

// Target is the engine-side contract of the cleaning lifecycle. The
// cleaner drives one cycle at a time, always in the order SelectVictims →
// Relocate → (Release | Abort), so implementations may carry per-cycle
// state between the calls.
type Target interface {
	// FreeSegments reports the engine's current free-pool size. It is
	// called concurrently with everything else (including from writers
	// inside Admit), so it must not take engine locks — engines keep an
	// atomic counter.
	FreeSegments() int
	// SelectVictims chooses up to max victim segments with the engine's
	// policy and marks them as cleaning (core.SegCleaning) so their
	// records stay immutable and no other selector picks them. It returns
	// nil when nothing is eligible.
	SelectVictims(max int) []int32
	// Relocate copies the victims' live records to the engine's GC stream,
	// re-installing mapping entries as it goes, and (for durable engines)
	// makes the copies durable before returning. It reports how many
	// records and bytes were moved.
	Relocate(victims []int32) (records int, bytes int64, err error)
	// Release returns the victims to the free pool and reports the gross
	// capacity bytes released. It must only be called after Relocate
	// succeeded for the same victims.
	Release(victims []int32) (releasedBytes int64)
	// Abort reverts victims selected by SelectVictims back to sealed after
	// a failed relocation, so a later cycle can retry them.
	Abort(victims []int32)
}

// State is the cleaner's lifecycle state.
type State int32

const (
	// StateIdle means the free pool is above the watermarks.
	StateIdle State = iota
	// StateSelecting means a cycle is choosing victims.
	StateSelecting
	// StateRelocating means live records are being copied out of victims.
	StateRelocating
	// StateReleasing means victims are being returned to the free pool.
	StateReleasing
	// StateStopped means Stop was called; no further cycles run.
	StateStopped
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateSelecting:
		return "selecting"
	case StateRelocating:
		return "relocating"
	case StateReleasing:
		return "releasing"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Options configures a Cleaner.
type Options struct {
	// LowWater starts cleaning when the free pool falls below it.
	LowWater int
	// HighWater stops cleaning once the free pool recovers to it
	// (default LowWater+Batch, clamped to the pool size).
	HighWater int
	// EmergencyFloor is the admission-control threshold: writers block
	// while the pool is below it (default min(Batch+1, LowWater), at least
	// 1).
	EmergencyFloor int
	// Batch is the number of victims per cleaning cycle.
	Batch int
	// TotalSegments is the engine's physical segment count; it bounds the
	// cycles one reclamation attempt may run (convergence guard).
	TotalSegments int
	// PollInterval is the fallback wakeup period when no writer kicks the
	// cleaner (default 25ms).
	PollInterval time.Duration
	// StallTimeout bounds how long one admission may stay blocked before
	// failing with ErrStalled (default 30s).
	StallTimeout time.Duration
	// Obs receives the cleaner's metrics (cleaner.* series) and trace
	// events. Engines pass their own registry so one snapshot covers the
	// whole stack; nil creates a private registry, so the cleaner.Stats
	// fields fed from obs counters are always live.
	Obs *obs.Registry
}

func (o Options) withDefaults() (Options, error) {
	if o.LowWater <= 0 || o.Batch <= 0 || o.TotalSegments <= 0 {
		return o, fmt.Errorf("cleaner: LowWater (%d), Batch (%d) and TotalSegments (%d) must be positive",
			o.LowWater, o.Batch, o.TotalSegments)
	}
	if o.HighWater == 0 {
		o.HighWater = o.LowWater + o.Batch
	}
	if o.HighWater > o.TotalSegments-1 {
		o.HighWater = o.TotalSegments - 1
	}
	if o.HighWater <= o.LowWater {
		o.HighWater = o.LowWater + 1
	}
	if o.EmergencyFloor == 0 {
		o.EmergencyFloor = min(o.Batch+1, o.LowWater)
	}
	if o.EmergencyFloor < 1 {
		o.EmergencyFloor = 1
	}
	if o.EmergencyFloor > o.LowWater {
		return o, fmt.Errorf("cleaner: EmergencyFloor (%d) must not exceed LowWater (%d)",
			o.EmergencyFloor, o.LowWater)
	}
	if o.PollInterval == 0 {
		o.PollInterval = 25 * time.Millisecond
	}
	if o.StallTimeout == 0 {
		o.StallTimeout = 30 * time.Second
	}
	if o.Obs == nil {
		o.Obs = obs.New()
	}
	return o, nil
}

// Stats describes the cleaner's activity. Engines embed it in their own
// stats snapshots.
type Stats struct {
	// State is the current lifecycle state ("idle", "relocating", ...).
	State string
	// Cycles counts completed cleaning cycles.
	Cycles uint64
	// SegmentsReclaimed counts victims released back to the free pool.
	SegmentsReclaimed uint64
	// RecordsRelocated counts live records copied out of victims.
	RecordsRelocated uint64
	// BytesRelocated is the relocation write volume (the cleaning cost).
	BytesRelocated uint64
	// BytesReclaimed is the net space recovered (released minus relocated).
	BytesReclaimed uint64
	// Errors counts failed cycles; LastError describes the most recent.
	Errors    uint64
	LastError string
	// Kicks counts writer wakeups delivered to the cleaner goroutine.
	Kicks uint64
	// WriterStalls counts writes blocked below the emergency floor and
	// WriterStallTime their cumulative wait. Both are read from the obs
	// counters cleaner.admission.stalls / .stall_ns, so an engine's Stats
	// and its Registry.Snapshot always agree.
	WriterStalls    uint64
	WriterStallTime time.Duration
}

// Cleaner owns the background cleaning lifecycle for one Target.
type Cleaner struct {
	t    Target
	opts Options

	state atomic.Int32

	mu      sync.Mutex
	waitCh  chan struct{} // replaced on every broadcast; closed to wake waiters
	full    bool          // last attempt concluded space is exhausted
	stopped bool
	stats   Stats

	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	errRun int // consecutive failed cycles (cleaner goroutine only)

	// obs handles, resolved once at Start (the registry is never nil after
	// withDefaults, but nil handles would be safe no-ops regardless).
	obs       *obs.Registry
	mStalls   *obs.Counter   // cleaner.admission.stalls
	mStallNS  *obs.Counter   // cleaner.admission.stall_ns
	hSelect   *obs.Histogram // cleaner.select.ns
	hRelocate *obs.Histogram // cleaner.relocate.ns
	hRelease  *obs.Histogram // cleaner.release.ns
	trace     *obs.Trace
}

// Start validates opts and launches the cleaning goroutine.
func Start(t Target, opts Options) (*Cleaner, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Cleaner{
		t:         t,
		opts:      opts,
		waitCh:    make(chan struct{}),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		obs:       opts.Obs,
		mStalls:   opts.Obs.Counter("cleaner.admission.stalls"),
		mStallNS:  opts.Obs.Counter("cleaner.admission.stall_ns"),
		hSelect:   opts.Obs.Histogram("cleaner.select.ns"),
		hRelocate: opts.Obs.Histogram("cleaner.relocate.ns"),
		hRelease:  opts.Obs.Histogram("cleaner.release.ns"),
		trace:     opts.Obs.Trace(),
	}
	go c.run()
	return c, nil
}

// Obs returns the registry the cleaner reports into (its own when the
// engine did not supply one).
func (c *Cleaner) Obs() *obs.Registry { return c.obs }

// Kick wakes the cleaner goroutine; writers call it when they notice the
// free pool below the low-water mark. It never blocks.
func (c *Cleaner) Kick() {
	select {
	case c.kick <- struct{}{}:
		c.mu.Lock()
		c.stats.Kicks++
		c.mu.Unlock()
		c.trace.Emit(obs.EvCleanerKick, int64(c.t.FreeSegments()))
	default:
	}
}

// Stop terminates the cleaning goroutine, waits for the in-flight cycle to
// finish, and wakes any blocked writers with ErrStopped. It is idempotent.
func (c *Cleaner) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// State reports the cleaner's current lifecycle state.
func (c *Cleaner) State() State { return State(c.state.Load()) }

// setState records a lifecycle transition, tracing it when it changes.
func (c *Cleaner) setState(s State) {
	if old := State(c.state.Swap(int32(s))); old != s {
		c.trace.Emit(obs.EvCleanerState, int64(old), int64(s))
	}
}

// Stats returns a snapshot of the cleaner's counters.
func (c *Cleaner) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.State = c.State().String()
	st.WriterStalls = c.mStalls.Value()
	st.WriterStallTime = time.Duration(c.mStallNS.Value())
	return st
}

// Admit applies write admission control, once per user write or batch: it
// wakes the cleaner when the pool is low and blocks the caller while the
// pool is below the emergency floor. Cleaning itself therefore never adds
// latency to writes — only imminent space exhaustion does. A batch is
// admitted whole; its space is reserved later, under the engine lock.
// Engines call it before taking their own locks (so a blocked writer never
// holds a lock the cleaner needs).
func (c *Cleaner) Admit() error {
	var deadline time.Time
	for {
		free := c.t.FreeSegments()
		if free < c.opts.LowWater {
			c.Kick()
		}
		if free >= c.opts.EmergencyFloor {
			return nil
		}

		// Blocked: wait for the cleaner to release space. Capture the
		// broadcast channel first, then re-check the pool so a release
		// that lands in between is not missed.
		c.mu.Lock()
		if c.stopped {
			c.mu.Unlock()
			return ErrStopped
		}
		if c.full {
			c.mu.Unlock()
			return ErrExhausted
		}
		ch := c.waitCh
		c.mu.Unlock()
		if c.t.FreeSegments() >= c.opts.EmergencyFloor {
			continue
		}
		if deadline.IsZero() {
			// One stall per blocked write, however many wait/wake rounds
			// it takes to get through.
			deadline = time.Now().Add(c.opts.StallTimeout)
			c.mStalls.Inc()
			c.trace.Emit(obs.EvEmergencyFloor, int64(free), int64(c.opts.EmergencyFloor))
		}
		start := time.Now()
		timer := time.NewTimer(time.Until(deadline))
		var err error
		select {
		case <-ch:
		case <-c.stop:
			err = ErrStopped
		case <-timer.C:
			err = ErrStalled
		}
		timer.Stop()
		c.mStallNS.Add(uint64(time.Since(start)))
		if err != nil {
			return err
		}
	}
}

// broadcast wakes every writer blocked in Admit.
func (c *Cleaner) broadcast() {
	c.mu.Lock()
	close(c.waitCh)
	c.waitCh = make(chan struct{})
	c.mu.Unlock()
}

func (c *Cleaner) setFull(full bool) {
	c.mu.Lock()
	changed := c.full != full
	c.full = full
	c.mu.Unlock()
	if changed && full {
		// Exhaustion is an answer, not just an absence of progress: blocked
		// writers must learn it now rather than wait out their timeout.
		c.broadcast()
	}
}

// concludeNoProgress ends a reclamation attempt that cannot make progress.
// That only means "space exhausted" when the pool is below the emergency
// floor — the regime where writers are blocked and need the verdict. Above
// it, an unreachable high watermark (e.g. live data permanently occupies
// most of the store) is normal: the cleaner just stands down until garbage
// accumulates.
func (c *Cleaner) concludeNoProgress() {
	if c.t.FreeSegments() < c.opts.EmergencyFloor {
		c.setFull(true)
	}
}

func (c *Cleaner) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.opts.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			c.setState(StateStopped)
			c.mu.Lock()
			c.stopped = true
			c.mu.Unlock()
			c.broadcast()
			return
		case <-c.kick:
		case <-ticker.C:
		}
		c.reclaim()
	}
}

// reclaim runs cleaning cycles with hysteresis: it does nothing until the
// pool is below LowWater, then cleans until it recovers to HighWater.
// Under sustained writer pressure one invocation may run for a long time —
// that is the cleaner doing its job — so exhaustion is detected from
// per-cycle progress, not from how long the loop has run.
func (c *Cleaner) reclaim() {
	if c.t.FreeSegments() >= c.opts.LowWater {
		return
	}
	dry := 0
	for c.t.FreeSegments() < c.opts.HighWater {
		select {
		case <-c.stop:
			return
		default:
		}
		if !c.cycleOnce(&dry) {
			break
		}
	}
	c.setState(StateIdle)
	c.broadcast()
}

// cycleOnce runs one Select → Relocate → Release cycle and reports whether
// the reclaim loop should keep going. The whole cycle is bracketed by a
// "cleaner.cycle" span with one child per phase, so a cycle that crosses
// the slow-op threshold (a large relocation, a stalled release) lands in
// the slow-op ring with the phase breakdown — the span ends on every exit
// path, success or not.
func (c *Cleaner) cycleOnce(dry *int) bool {
	sp := obs.StartSpan(c.obs, "cleaner.cycle")
	defer sp.End()

	c.setState(StateSelecting)
	leg := sp.Child("select")
	t0 := time.Now()
	victims := c.t.SelectVictims(c.opts.Batch)
	c.hSelect.Record(uint64(time.Since(t0)))
	leg.End()
	if len(victims) == 0 {
		// Nothing sealed to clean while the pool is low: every
		// remaining segment is open, already being cleaned, or free.
		c.concludeNoProgress()
		return false
	}

	c.setState(StateRelocating)
	leg = sp.Child("relocate")
	t0 = time.Now()
	records, moved, err := c.t.Relocate(victims)
	c.hRelocate.Record(uint64(time.Since(t0)))
	leg.End()
	if err != nil {
		c.t.Abort(victims)
		c.mu.Lock()
		c.stats.Errors++
		c.stats.LastError = err.Error()
		c.mu.Unlock()
		// Transient errors (e.g. the GC stream lost a race for the
		// last free segment) are retried on the next wakeup; repeated
		// failure without an intervening success means space is
		// exhausted. The counter persists across wakeups.
		if c.errRun++; c.errRun >= 3 {
			c.concludeNoProgress()
		}
		return false
	}
	c.errRun = 0

	c.setState(StateReleasing)
	leg = sp.Child("release")
	t0 = time.Now()
	released := c.t.Release(victims)
	c.hRelease.Record(uint64(time.Since(t0)))
	leg.End()
	net := released - moved

	c.mu.Lock()
	c.stats.Cycles++
	c.stats.SegmentsReclaimed += uint64(len(victims))
	c.stats.RecordsRelocated += uint64(records)
	c.stats.BytesRelocated += uint64(moved)
	if net > 0 {
		c.stats.BytesReclaimed += uint64(net)
	}
	c.mu.Unlock()
	c.broadcast() // space became available: wake blocked writers

	// Cycles that only shuffle fully-live segments reclaim nothing:
	// live data has (nearly) reached physical capacity. Cycles with
	// small positive net are NOT exhaustion — under sustained writer
	// pressure thin garbage is normal and the loop simply keeps
	// working (StallTimeout backstops the pathological case where
	// per-segment slack alone keeps net barely positive forever).
	if net <= 0 {
		if (*dry)++; *dry >= 2 {
			c.concludeNoProgress()
			return false
		}
	} else {
		*dry = 0
		c.setFull(false)
	}
	// Diminishing returns: below the low watermark the cleaner pushes
	// no matter the cost, but the extra headroom up to the high
	// watermark is only worth building while it is cheap. Stopping
	// when a whole batch nets less than one segment keeps a store
	// whose live data sits near its watermarks (an unreachable high)
	// from cleaning in a permanent low-yield churn.
	return c.t.FreeSegments() < c.opts.LowWater || net >= released/int64(len(victims))
}
