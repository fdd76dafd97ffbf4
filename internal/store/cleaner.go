package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// The background cleaner (Options.BackgroundClean) is a trigger policy on the
// cleaning cycle of clean.go, not a second engine. Cleaning in the foreground
// runs inside the write path: a write that finds the free pool below the
// low-water mark blocks behind entire cleaning cycles, so the quality of the
// victim-selection policy never translates into tail latency. Here a
// dedicated goroutine runs the cycles, driven by free-pool watermarks:
//
//   - below FreeLowWater it starts running cycles;
//   - it keeps going until the pool recovers to the high watermark,
//     FreeLowWater+CleanBatch capped at MaxSegments−1 (hysteresis, so it
//     does not thrash at the threshold);
//   - user writes are never delayed by cleaning itself — admission control
//     blocks writers only while the pool is below FreeEmergency, the regime
//     where the only alternative would be running out of space entirely.
//
// One cycle is a state machine — idle → selecting → relocating → releasing.
// The split is what enables concurrency: victims are marked core.SegCleaning
// under the store lock, their records are then immutable, so the expensive
// relocation I/O proceeds while readers and writers keep using the store, and
// only the installs of relocated copies and the release need brief lock holds
// again. Release follows a successful relocation, whose durability point
// covers the copies (syncRelocated), and only release lets victim space be
// reused, so at any instant every live record has an intact on-disk copy;
// recovery picks the highest-sequence version.

// cleanPoll is the cleaner's fallback wakeup period when no writer kicks it.
const cleanPoll = 25 * time.Millisecond

// stallTimeout bounds how long one admission may stay blocked before it fails
// with errStalled (a variable so tests can shorten it).
var stallTimeout = 30 * time.Second

var (
	// errExhausted means background cleaning cannot reclaim any more space:
	// live data has (nearly) reached physical capacity.
	errExhausted = fmt.Errorf("%w: background cleaning reclaims no more space", ErrFull)
	// errStalled means a blocked writer waited stallTimeout without the
	// cleaner recovering the emergency floor.
	errStalled = errors.New("store: write admission stalled")
)

// cleanerState is the background cleaner's lifecycle state; the trace's
// cleaner.state events carry it as a number, in this order.
type cleanerState int32

const (
	stateIdle       cleanerState = iota // the free pool is above the watermarks
	stateSelecting                      // a cycle is choosing victims
	stateRelocating                     // live records are being copied out of victims
	stateReleasing                      // victims are being returned to the free pool
	stateStopped                        // the store closed; no further cycles run
)

var stateNames = [...]string{"idle", "selecting", "relocating", "releasing", "stopped"}

func (st cleanerState) String() string { return stateNames[st] }

// CleanerStats describes the background cleaner's activity (Stats.Cleaner).
type CleanerStats struct {
	// State is the current lifecycle state ("idle", "relocating", ...).
	State string
	// Cycles counts completed cleaning cycles.
	Cycles uint64
	// SegmentsReclaimed counts victims released back to the free pool.
	SegmentsReclaimed uint64
	// BytesRelocated is the relocation write volume (the cleaning cost).
	BytesRelocated uint64
	// BytesReclaimed is the net space recovered (released minus relocated).
	BytesReclaimed uint64
	// Errors counts failed cycles; LastError describes the most recent.
	Errors    uint64
	LastError string
	// WriterStalls counts writes blocked below the emergency floor and
	// WriterStallTime their cumulative wait. Both are read from the obs
	// counters cleaner.admission.stalls / .stall_ns, so Stats and
	// Registry.Snapshot always agree.
	WriterStalls    uint64
	WriterStallTime time.Duration
}

// cleaner runs the store's cleaning cycles in a goroutine of its own and
// applies write admission. It drives one cycle at a time (selectVictims →
// relocate → release | abort), so the candidate snapshot is carried between
// the phases, and its table and I/O window between cycles.
type cleaner struct {
	s     *Store
	high  int // the high watermark
	cands []recCand
	win   []byte

	state atomic.Int32

	mu     sync.Mutex
	waitCh chan struct{} // replaced on every broadcast; closed to wake waiters
	full   bool          // last attempt concluded space is exhausted
	counts CleanerStats

	kicked   chan struct{}
	stopping chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	errRun int // consecutive failed cycles (cleaner goroutine only)

	mStalls   *obs.Counter   // cleaner.admission.stalls
	mStallNS  *obs.Counter   // cleaner.admission.stall_ns
	hSelect   *obs.Histogram // cleaner.select.ns
	hRelocate *obs.Histogram // cleaner.relocate.ns
	hRelease  *obs.Histogram // cleaner.release.ns
}

// newCleaner returns s's cleaner; run is its goroutine.
func newCleaner(s *Store) *cleaner {
	o := s.opts
	return &cleaner{
		s:         s,
		high:      min(o.FreeLowWater+o.CleanBatch, o.MaxSegments-1),
		waitCh:    make(chan struct{}),
		kicked:    make(chan struct{}, 1),
		stopping:  make(chan struct{}),
		done:      make(chan struct{}),
		mStalls:   o.Obs.Counter("cleaner.admission.stalls"),
		mStallNS:  o.Obs.Counter("cleaner.admission.stall_ns"),
		hSelect:   o.Obs.Histogram("cleaner.select.ns"),
		hRelocate: o.Obs.Histogram("cleaner.relocate.ns"),
		hRelease:  o.Obs.Histogram("cleaner.release.ns"),
	}
}

// free is the store's free-pool size, read without its lock.
func (c *cleaner) free() int { return int(c.s.freeCount.Load()) }

// kick wakes the cleaner goroutine; writers call it when they notice the free
// pool below the low-water mark. It never blocks.
func (c *cleaner) kick() {
	select {
	case c.kicked <- struct{}{}:
		c.s.trace.Emit(obs.EvCleanerKick, int64(c.free()))
	default:
	}
}

// stop terminates the cleaning goroutine, waits for the in-flight cycle to
// finish, and wakes any blocked writers with errClosed. It is idempotent.
func (c *cleaner) stop() {
	c.stopOnce.Do(func() { close(c.stopping) })
	<-c.done
}

// setState records a lifecycle transition, tracing it when it changes.
func (c *cleaner) setState(st cleanerState) {
	if old := cleanerState(c.state.Swap(int32(st))); old != st {
		c.s.trace.Emit(obs.EvCleanerState, int64(old), int64(st))
	}
}

// snapshot returns the cleaner's counters.
func (c *cleaner) snapshot() CleanerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.counts
	st.State = cleanerState(c.state.Load()).String()
	st.WriterStalls = c.mStalls.Value()
	st.WriterStallTime = time.Duration(c.mStallNS.Value())
	return st
}

// admit applies write admission control, once per user write or batch: it
// wakes the cleaner when the pool is low and blocks the caller while the pool
// is below the emergency floor. Cleaning itself therefore never adds latency
// to writes — only imminent space exhaustion does. A batch is admitted whole;
// its space is reserved later, under the store lock. Writers call it before
// taking the store lock, so a blocked writer never holds a lock the cleaner
// needs.
func (c *cleaner) admit() error {
	floor := c.s.opts.FreeEmergency
	var deadline time.Time
	for {
		free := c.free()
		if free < c.s.opts.FreeLowWater {
			c.kick()
		}
		if free >= floor {
			return nil
		}

		// Blocked: wait for the cleaner to release space. Capture the
		// broadcast channel first, then re-check the pool so a release
		// that lands in between is not missed.
		select {
		case <-c.stopping:
			return errClosed
		default:
		}
		c.mu.Lock()
		full, ch := c.full, c.waitCh
		c.mu.Unlock()
		if full {
			return errExhausted
		}
		if c.free() >= floor {
			continue
		}
		if deadline.IsZero() {
			// One stall per blocked write, however many wait/wake rounds
			// it takes to get through.
			deadline = time.Now().Add(stallTimeout)
			c.mStalls.Inc()
			c.s.trace.Emit(obs.EvEmergencyFloor, int64(free), int64(floor))
		}
		start := time.Now()
		timer := time.NewTimer(time.Until(deadline))
		var err error
		select {
		case <-ch:
		case <-c.stopping:
			err = errClosed
		case <-timer.C:
			err = errStalled
		}
		timer.Stop()
		c.mStallNS.Add(uint64(time.Since(start)))
		if err != nil {
			return err
		}
	}
}

// broadcast wakes every writer blocked in admit.
func (c *cleaner) broadcast() {
	c.mu.Lock()
	close(c.waitCh)
	c.waitCh = make(chan struct{})
	c.mu.Unlock()
}

func (c *cleaner) setFull(full bool) {
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
// it, an unreachable high watermark (e.g. live data permanently occupies most
// of the store) is normal: the cleaner just stands down until garbage
// accumulates.
func (c *cleaner) concludeNoProgress() {
	if c.free() < c.s.opts.FreeEmergency {
		c.setFull(true)
	}
}

func (c *cleaner) run() {
	defer close(c.done)
	ticker := time.NewTicker(cleanPoll)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopping:
			c.setState(stateStopped)
			return
		case <-c.kicked:
		case <-ticker.C:
		}
		c.reclaim()
	}
}

// reclaim runs cleaning cycles with hysteresis: it does nothing until the
// pool is below the low watermark, then cleans until it recovers to the high
// one. Under sustained writer pressure one invocation may run for a long time
// — that is the cleaner doing its job — so exhaustion is detected from
// per-cycle progress, not from how long the loop has run.
func (c *cleaner) reclaim() {
	if c.free() >= c.s.opts.FreeLowWater {
		return
	}
	dry := 0
	for c.free() < c.high {
		select {
		case <-c.stopping:
			return
		default:
		}
		if !c.cycleOnce(&dry) {
			break
		}
	}
	c.setState(stateIdle)
	c.broadcast()
}

// cycleOnce runs one select → relocate → release cycle and reports whether
// the reclaim loop should keep going. The whole cycle is bracketed by a
// "cleaner.cycle" span with one child per phase, so a cycle that crosses the
// slow-op threshold (a large relocation, a stalled release) lands in the
// slow-op ring with the phase breakdown — the span ends on every exit path,
// success or not.
func (c *cleaner) cycleOnce(dry *int) bool {
	sp := obs.StartSpan(c.s.opts.Obs, "cleaner.cycle")
	defer sp.End()

	c.setState(stateSelecting)
	leg := sp.Child("select")
	t0 := time.Now()
	victims := c.selectVictims(c.s.opts.CleanBatch)
	c.hSelect.Record(uint64(time.Since(t0)))
	leg.End()
	if len(victims) == 0 {
		// Nothing sealed to clean while the pool is low: every remaining
		// segment is open, already being cleaned, or free.
		c.concludeNoProgress()
		return false
	}

	c.setState(stateRelocating)
	leg = sp.Child("relocate")
	t0 = time.Now()
	moved, err := c.relocate()
	c.hRelocate.Record(uint64(time.Since(t0)))
	leg.End()
	if err != nil {
		c.abort(victims)
		c.mu.Lock()
		c.counts.Errors++
		c.counts.LastError = err.Error()
		c.mu.Unlock()
		// Transient errors (e.g. the GC stream lost a race for the last
		// free segment) are retried on the next wakeup; repeated failure
		// without an intervening success means space is exhausted. The
		// counter persists across wakeups.
		if c.errRun++; c.errRun >= 3 {
			c.concludeNoProgress()
		}
		return false
	}
	c.errRun = 0

	c.setState(stateReleasing)
	leg = sp.Child("release")
	t0 = time.Now()
	released := c.release(victims)
	c.hRelease.Record(uint64(time.Since(t0)))
	leg.End()
	net := released - moved

	c.mu.Lock()
	c.counts.Cycles++
	c.counts.SegmentsReclaimed += uint64(len(victims))
	c.counts.BytesRelocated += uint64(moved)
	if net > 0 {
		c.counts.BytesReclaimed += uint64(net)
	}
	c.mu.Unlock()
	c.broadcast() // space became available: wake blocked writers

	// Cycles that only shuffle fully-live segments reclaim nothing: live
	// data has (nearly) reached physical capacity. Cycles with small
	// positive net are NOT exhaustion — under sustained writer pressure thin
	// garbage is normal and the loop simply keeps working (stallTimeout
	// backstops the pathological case where per-segment slack alone keeps
	// net barely positive forever).
	if net <= 0 {
		if (*dry)++; *dry >= 2 {
			c.concludeNoProgress()
			return false
		}
	} else {
		*dry = 0
		c.setFull(false)
	}
	// Diminishing returns: below the low watermark the cleaner pushes no
	// matter the cost, but the extra headroom up to the high watermark is
	// only worth building while it is cheap. Stopping when a whole batch
	// nets less than one segment keeps a store whose live data sits near
	// its watermarks (an unreachable high) from cleaning in a permanent
	// low-yield churn.
	return c.free() < c.s.opts.FreeLowWater || net >= released/int64(len(victims))
}

// selectVictims marks up to max victims and snapshots their candidates under
// the store lock. It returns nil when the store is closed or poisoned, nothing is
// eligible, or the policy broke the sealed-victims contract (a bug: the cycle
// is skipped rather than corrupt state).
func (c *cleaner) selectVictims(max int) []int32 {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil
	}
	victims, cands, err := s.selectVictims(max, c.cands)
	if err != nil {
		return nil
	}
	c.cands = cands
	return victims
}

// relocate copies the selected victims' live records out with no lock held
// but per install chunk, and runs the cycle's durability point.
func (c *cleaner) relocate() (moved int64, err error) {
	return c.s.relocate(c.cands, relocChunk, &c.win, false)
}

// release returns the relocated victims to the free pool.
func (c *cleaner) release(victims []int32) int64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.release(victims)
}

// abort reverts victims after a failed relocation — but a victim whose every
// record was already relocated or dead holds nothing, and releasing it
// guarantees the cleaner makes progress even when the failure was the GC
// stream running out of space mid-batch (re-sealing everything would wedge:
// no free segments, no new garbage from blocked writers, every retry failing
// the same way). Durability ordering still holds: the relocated copies are
// synced before any drained victim can be reused.
func (c *cleaner) abort(victims []int32) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	var drained, rest []int32
	for _, v := range victims {
		if s.meta[v].State != core.SegCleaning {
			continue
		}
		if s.meta[v].Live == 0 {
			drained = append(drained, v)
		} else {
			rest = append(rest, v)
		}
	}
	s.reseal(rest)
	if len(drained) == 0 {
		return
	}
	if err := s.syncRelocated(true); err != nil {
		// Without the durability point the drained victims must stay
		// frozen; re-seal them for a later cycle.
		s.reseal(drained)
		return
	}
	s.release(drained)
}
