package seglog

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cleaner"
	"repro/internal/core"
)

// Cleaning is decomposed into the phases of the cleaner state machine
// (select → relocate → release), shared by both modes:
//
//   - foreground mode runs all phases back to back under the write lock (a
//     write blocks until the pool recovers);
//   - background mode (internal/cleaner) interleaves: victims are marked
//     core.SegCleaning under the lock, their records — then immutable —
//     are loaded with NO lock held, and relocated copies are installed in
//     small chunks so user reads and writes proceed throughout. Each
//     install re-checks that the record is still current, because a
//     concurrent overwrite may have superseded it mid-flight.
//
// Crash safety relies on ordering in both modes: every live record of a
// victim batch is rewritten BEFORE any victim is released, and made durable
// BEFORE that victim is reset for reuse (Engine.Backs), so at any instant
// every live record has at least one intact durable copy.

// cleanUntil runs foreground cleaning cycles until the free pool reaches
// target segments. Batch reservation passes a higher target than the
// low-water mark. Caller holds the write lock.
func (l *Log[R]) cleanUntil(target int) error {
	guard := 0
	dry := 0
	for len(l.free) < target {
		n, net, err := l.CleanCycle()
		if err != nil {
			return err
		}
		if n == 0 {
			return l.cfg.ErrFull
		}
		// Cycles that only shuffle full segments reclaim nothing: the
		// log's live data has (nearly) reached physical capacity.
		if net <= 0 {
			if dry++; dry >= 2 {
				return fmt.Errorf("%s: live data at physical capacity: %w", l.cfg.Name, l.cfg.ErrFull)
			}
		} else {
			dry = 0
		}
		if guard++; guard > 4*l.cfg.MaxSegments {
			return fmt.Errorf("%s: cleaning cannot reach %d free segments: %w", l.cfg.Name, target, l.cfg.ErrFull)
		}
	}
	return nil
}

// CleanCycle runs one full cycle under the write lock and reports the
// victim count and the net bytes reclaimed (released minus relocated).
func (l *Log[R]) CleanCycle() (victimCount int, netBytes int64, err error) {
	victims, cands, err := l.selectVictims(l.cfg.CleanBatch, l.cands)
	if err != nil || len(victims) == 0 {
		return 0, 0, err
	}
	l.cands = cands
	_, moved, err := l.relocate(cands, len(cands), &l.win, true)
	if err != nil {
		l.reseal(victims)
		return 0, 0, err
	}
	return len(victims), l.release(victims) - moved, nil
}

// relocate is the middle of a cycle: sort the candidates (the key is their
// victim's up2, so each victim's stay together, in log order), load a window
// of them and install it chunk at a time until none is left, then run the
// durability point. The foreground cycle holds the engine lock throughout
// (locked); the background one runs the bulk I/O of Load with no lock held —
// victim records are frozen by SegCleaning — and takes the lock per chunk, so
// user operations interleave with it. An error returns the partial totals.
func (l *Log[R]) relocate(cands []Cand[R], chunk int, win *[]byte, locked bool) (installed int, moved int64, err error) {
	l.sortForGC(cands) // reads only the immutable configuration
	for n := 0; len(cands) > 0; cands = cands[n:] {
		if n, err = l.eng.Load(cands, win); err != nil {
			return installed, moved, err
		}
		for lo := 0; lo < n; lo += chunk {
			k, b, err := l.install(cands[lo:min(lo+chunk, n)], *win, locked)
			installed += k
			moved += b
			if err != nil {
				return installed, moved, err
			}
		}
	}
	return installed, moved, l.eng.SyncRelocated(locked)
}

// selectVictims asks the policy for up to max victims, marks them
// SegCleaning (freezing their records), and snapshots their live records into
// dst's memory, the table the caller keeps between its cycles. Caller holds
// the write lock.
func (l *Log[R]) selectVictims(max int, dst []Cand[R]) ([]int32, []Cand[R], error) {
	view := core.View{Now: l.Unow, Segs: l.Meta}
	victims := l.cfg.Algorithm.Policy.Victims(view, max, nil)
	live := 0 // Meta.Live counts what the index points at: the candidates to come
	for _, v := range victims {
		if l.Meta[v].State != core.SegSealed {
			return nil, nil, fmt.Errorf("%s: policy %s selected non-sealed segment %d", l.cfg.Name, l.cfg.Algorithm.Name, v)
		}
		live += int(l.Meta[v].Live)
	}
	cands := slices.Grow(dst[:0], live)
	for _, v := range victims {
		m := &l.Meta[v]
		m.State = core.SegCleaning
		// Emptiness-at-clean is measured now but credited to the stats
		// only when the victim is actually released (an aborted victim
		// was not cleaned and will be re-selected).
		l.pendingE[v] = m.Emptiness()
		l.hVictimE.Record(uint64(m.Emptiness() * 1000))
		n := len(cands)
		cands = l.eng.LiveRecords(v, cands)
		for i := n; i < len(cands); i++ {
			cands[i].Seg, cands[i].Up2 = v, m.Up2
		}
	}
	return victims, cands, nil
}

// sortForGC separates relocations by update frequency (§5.3) when the
// algorithm asks for it: coldest first by carried up2.
func (l *Log[R]) sortForGC(cands []Cand[R]) {
	if l.cfg.Algorithm.SortGC {
		slices.SortStableFunc(cands, func(a, b Cand[R]) int { return cmp.Compare(a.Up2, b.Up2) })
	}
}

// install relocates the candidates that are still current, taking the
// write lock for the chunk unless the caller already holds it.
func (l *Log[R]) install(cands []Cand[R], win []byte, locked bool) (installed int, bytes int64, err error) {
	if !locked {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.Closed {
			return 0, 0, l.cfg.ErrClosed
		}
	}
	for i := range cands {
		var n int64
		if n, err = l.eng.Install(&cands[i], win); err != nil {
			break
		}
		if n > 0 {
			installed++
			bytes += n
		}
	}
	return installed, bytes, cmp.Or(err, l.eng.Flush())
}

// release returns victims to the free pool, SealSeq kept (pick), and reports
// the gross capacity bytes released. Caller holds the write lock.
func (l *Log[R]) release(victims []int32) (releasedBytes int64) {
	for _, v := range victims {
		m := &l.Meta[v]
		if e, ok := l.pendingE[v]; ok {
			l.cleanedSegs++
			l.sumEAtClean += e
			delete(l.pendingE, v)
		}
		releasedBytes += m.Capacity
		m.State = core.SegFree
		m.Live = 0
		m.Free = m.Capacity
		m.Up2 = 0
		l.fill[v] = 0
		l.eng.ReleaseSegment(v)
		l.free = append(l.free, v)
	}
	l.freeCount.Store(int64(len(l.free)))
	return releasedBytes
}

// reseal reverts victims to sealed after a failed relocation so a later
// cycle can retry them.
func (l *Log[R]) reseal(victims []int32) {
	for _, v := range victims {
		if l.Meta[v].State == core.SegCleaning {
			l.Meta[v].State = core.SegSealed
			delete(l.pendingE, v)
		}
	}
}

// target adapts the log to cleaner.Target. The cleaner drives one cycle at
// a time (SelectVictims → Relocate → Release/Abort), so the candidate
// snapshot can be carried between calls, and its table between cycles.
type target[R any] struct {
	l     *Log[R]
	cands []Cand[R]
	win   []byte // this cleaner's I/O window, kept between its cycles
}

// Target returns a fresh cleaner.Target over the log: the background
// cleaner's view of it, and the tests' way to place crash points between
// the phases.
func (l *Log[R]) Target() cleaner.Target { return &target[R]{l: l} }

func (t *target[R]) FreeSegments() int { return int(t.l.freeCount.Load()) }

func (t *target[R]) SelectVictims(max int) []int32 {
	l := t.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Closed {
		return nil
	}
	victims, cands, err := l.selectVictims(max, t.cands)
	if err != nil {
		// A policy violating the sealed-victims contract is a bug; skip the
		// cycle rather than corrupt state.
		return nil
	}
	t.cands = cands
	return victims
}

func (t *target[R]) Relocate(victims []int32) (int, int64, error) {
	return t.l.relocate(t.cands, t.l.cfg.RelocChunk, &t.win, false)
}

func (t *target[R]) Release(victims []int32) int64 {
	t.l.mu.Lock()
	defer t.l.mu.Unlock()
	return t.l.release(victims)
}

// Abort reverts victims after a failed relocation — but a victim whose
// every record was already relocated or dead holds nothing, and releasing
// it guarantees the cleaner makes progress even when the failure was the
// GC stream running out of space mid-batch (re-sealing everything would
// wedge: no free segments, no new garbage from blocked writers, every
// retry failing the same way). Durability ordering still holds: the
// relocated copies are synced before any drained victim can be reused.
func (t *target[R]) Abort(victims []int32) {
	l := t.l
	l.mu.Lock()
	defer l.mu.Unlock()
	var drained, rest []int32
	for _, v := range victims {
		if l.Meta[v].State != core.SegCleaning {
			continue
		}
		if l.Meta[v].Live == 0 {
			drained = append(drained, v)
		} else {
			rest = append(rest, v)
		}
	}
	l.reseal(rest)
	if len(drained) == 0 {
		return
	}
	if err := l.eng.SyncRelocated(true); err != nil {
		// Without the durability point the drained victims must stay
		// frozen; re-seal them for a later cycle.
		l.reseal(drained)
		return
	}
	l.release(drained)
}

// Check validates the segment accounting against the engine's index (tests
// and probes): liveCount and liveBytes are, per segment, the records the
// index points into it and their summed sizes. Beyond that: the free pool,
// its atomic count and the segment states agree (so a free segment holds
// nothing live), and a segment is open exactly when it is its stream's
// open segment (so at most one per stream). Caller holds the read lock.
func (l *Log[R]) Check(liveCount []int32, liveBytes []int64) error {
	pooled := make([]int, len(l.Meta))
	for _, seg := range l.free {
		pooled[seg]++
	}
	if n := l.freeCount.Load(); n != int64(len(l.free)) {
		return fmt.Errorf("%s: free count %d, free pool holds %d", l.cfg.Name, n, len(l.free))
	}
	for i := range l.Meta {
		m := &l.Meta[i]
		if m.Live != liveCount[i] || m.Capacity-m.Free != liveBytes[i] {
			return fmt.Errorf("%s: %s segment %d accounts %d live records in %d bytes, index says %d in %d",
				l.cfg.Name, m.State, i, m.Live, m.Capacity-m.Free, liveCount[i], liveBytes[i])
		}
		free, open := 0, l.open[m.Stream].seg == int32(i)
		if m.State == core.SegFree {
			free = 1
		}
		if pooled[i] != free || open != (m.State == core.SegOpen) || free == 1 && m.Live != 0 {
			return fmt.Errorf("%s: %s segment %d (stream %d, %d live) is %d times in the free pool, open for its stream: %v",
				l.cfg.Name, m.State, i, m.Stream, m.Live, pooled[i], open)
		}
	}
	return nil
}
