package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/seglog"
)

// Batch collects page writes and deletions for one atomic Apply. Build it
// with NewBatch and the chainable Write/Delete, then hand it to
// Store.Apply. A Batch is not safe for concurrent use, but may be reused
// (Reset) once Apply returns; page data is copied into the batch at Write
// time, so callers may reuse their buffers immediately.
//
// A caller whose pages do not exist as bytes yet — a checkpoint holding
// decoded nodes — adds fill-at-apply writes instead (SetFill once, Reserve
// per page): the batch carries the page's id and length only, and Apply has
// the fill function write it straight into the store's run buffer, where the
// record's header and checksum are then computed over the bytes in place.
type Batch struct{ b seglog.Batch }

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Write adds a page write of len(data) bytes. The data is copied; its length
// is validated against the store's page size (the maximum) at Apply time.
func (b *Batch) Write(id uint32, data []byte) *Batch {
	b.b.Put(id, data)
	return b
}

// SetFill installs the function that produces the batch's reserved writes
// (it survives Reset): fill(i, dst) writes the page of the batch's i-th
// operation into dst, exactly the reserved length, every byte of it. Apply
// calls it under the store's lock, once per reserved write, in order, and only
// after validating the whole batch and reserving its space — fill cannot fail,
// so check what it will encode before Apply — and it must not call the store.
func (b *Batch) SetFill(fill func(i int, dst []byte)) { b.b.Fill = fill }

// Reserve adds a page write of n bytes that the SetFill function produces
// at Apply time.
func (b *Batch) Reserve(id uint32, n int) *Batch {
	b.b.PutReserved(id, n)
	return b
}

// Delete adds a page deletion (a durable tombstone). The page must exist
// when the batch is applied — either in the store or written earlier in
// this batch — or Apply fails with ErrNotFound before changing anything.
func (b *Batch) Delete(id uint32) *Batch {
	b.b.Delete(id)
	return b
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.b.Ops) }

// Reset empties the batch for reuse, keeping its allocations.
func (b *Batch) Reset() { b.b.Reset() }

// Apply atomically applies a batch: one admission check, one lock hold,
// and all-or-nothing visibility. Space for every record is reserved before
// any current version is invalidated, so a batch that cannot fit fails
// with ErrFull leaving the store exactly as it was; a Delete of a
// nonexistent page fails the whole batch with ErrNotFound the same way.
// Entries apply in order, so a later Write/Delete of the same page
// supersedes an earlier one.
//
// Under DurCommit, Apply returns only after the batch is durable —
// concurrent committers coalesce onto one group fsync — and recovery
// guarantees a torn batch is never surfaced partially. (Backend I/O
// errors mid-apply are the one non-atomic failure: the store state is
// whatever the error left, exactly as for single writes.)
func (s *Store) Apply(b *Batch) error { return s.ApplySpanned(b, nil) }

// ApplySpanned is Apply with an optional parent span: with a non-nil
// parent the admission check, the locked apply, and the group-fsync wait
// are recorded as child spans ("store.admit", "store.apply",
// "store.commit.wait"), so a slow checkpoint's capture shows where inside
// the store the time went. A nil parent records nothing and costs one
// branch per leg — the path every non-traced caller takes through Apply.
func (s *Store) ApplySpanned(b *Batch, parent *obs.Span) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	return s.write(parent, func() error { return s.applyLocked(b) })
}

// applyLocked validates the whole batch, has the core plan it and reserve
// its space (seglog.Log.Reserve), then appends every record: by the time
// the first old version is invalidated, the apply loop can no longer fail
// with ErrFull.
func (s *Store) applyLocked(b *Batch) error {
	// Existence is tracked virtually across the batch, so a Delete may
	// follow a Write of the same page. The map is built at the first Delete
	// (everything before it is a write): most batches have none.
	var vexists map[uint32]bool
	for i := range b.b.Ops {
		op := &b.b.Ops[i]
		if op.Del {
			if vexists == nil {
				vexists = make(map[uint32]bool)
				for j := range b.b.Ops[:i] {
					vexists[b.b.Ops[j].Key] = true
				}
			}
			exists, known := vexists[op.Key]
			if !known {
				_, exists = s.table[op.Key]
			}
			if !exists {
				return fmt.Errorf("store: batch op %d deletes page %d: %w", i, op.Key, ErrNotFound)
			}
		} else if op.DataLen() > s.opts.PageSize {
			return fmt.Errorf("batch op %d: %w: %d > %d bytes", i, ErrTooLarge, op.DataLen(), s.opts.PageSize)
		} else if op.Reserved() && b.b.Fill == nil {
			return fmt.Errorf("store: batch op %d reserves page %d but the batch has no fill function", i, op.Key)
		}
		if vexists != nil {
			vexists[op.Key] = !op.Del
		}
		op.Size = int64(RecordHeaderSize + op.DataLen()) // a tombstone is a bare header
	}
	if err := s.log.Reserve(&b.b); err != nil {
		return err
	}
	last, i := len(b.b.Ops)-1, 0
	put := func(dst []byte) { b.b.CopyData(i, dst) } // one closure, following i
	for i = range b.b.Ops {
		op, pl := &b.b.Ops[i], &b.b.Plan[i]
		if err := s.log.RoomReserved(pl.Stream, op.Size); err != nil {
			// Unreachable when the plan is sound; surface rather than hide.
			return fmt.Errorf("store: batch reservation violated at op %d: %w", i, err)
		}
		flags := uint32(0)
		if op.Del {
			flags = flagTombstone
		}
		if last > 0 {
			// Multi-record batches carry commit markers so recovery can
			// discard a torn batch wholesale. Single-record batches are
			// trivially atomic.
			flags |= flagBatch
			if i == last {
				flags |= flagBatchLast
			}
		}
		if err := s.userAppend(pl.Stream, pl.Tick, op.Key, flags, uint32(i), op.DataLen(), put); err != nil {
			return err
		}
	}
	if last > 0 {
		s.batches++
	}
	return nil
}

// groupCommit coalesces concurrent DurCommit committers onto shared fsync
// rounds: the first committer to find no round in flight flushes the
// unsynced-segment ledger; everyone else piggybacks on the round's outcome
// and only starts another if their records are still not covered. Its counts
// are the store.commit.commits / .rounds / .syncs counters.
type groupCommit struct {
	mu      sync.Mutex
	durable uint64       // highest seq known flushed to storage
	cur     *commitRound // in-flight flush, nil when idle
}

type commitRound struct {
	done chan struct{}
	err  error
}

// commitWait blocks until every record up to target is durable,
// contributing to the group-commit statistics. Caller must not hold s.mu.
func (s *Store) commitWait(target uint64) error {
	t0 := time.Now()
	s.cCommits.Inc()
	err := s.waitDurable(target)
	s.hCommit.Record(uint64(time.Since(t0)))
	return err
}

// waitDurable is the group fsync: one goroutine runs a flush round — a sync
// point over the whole ledger — and concurrent callers wait on it and
// re-check. Caller must not hold s.mu (the round claims under it).
func (s *Store) waitDurable(target uint64) error {
	g := &s.gcm
	g.mu.Lock()
	for g.durable < target {
		if r := g.cur; r != nil {
			// Piggyback on the in-flight round, then re-check: the round
			// may have started before our records were appended.
			g.mu.Unlock()
			<-r.done
			if r.err != nil {
				return r.err
			}
			g.mu.Lock()
			continue
		}
		r := &commitRound{done: make(chan struct{})}
		g.cur = r
		g.mu.Unlock()
		synced, err := s.syncPoint(false, nil) // publishes g.durable
		g.mu.Lock()
		s.cRounds.Inc()
		s.cSyncs.Add(uint64(synced))
		s.trace.Emit(obs.EvCommitRound, int64(s.cRounds.Value()), int64(s.cSyncs.Value()), int64(synced))
		r.err = err
		g.cur = nil
		close(r.done)
		if err != nil {
			g.mu.Unlock()
			return err
		}
	}
	g.mu.Unlock()
	return nil
}

// syncInFlight bounds the fsyncs a sync point has outstanding at once.
const syncInFlight = 4

// syncPoint is how a segment gets fsynced, at every durability point: seal,
// cleaning cycle, group flush, Sync, Close. Under the store lock (the
// caller's if locked, else its own) it writes the staged run and claims the
// ledger entries pick wants (nil: all of them, which makes the log durable up
// to the seq at the claim, and publishes that); it fsyncs the claimed segments
// concurrently, holding the lock only if the caller does; and, under the lock
// again, retires the entries no append has touched since the claim. An error
// retires nothing. n is the number of segments claimed.
func (s *Store) syncPoint(locked bool, pick func(int32, unsyncedSeg) bool) (n int, err error) {
	if !locked {
		s.mu.Lock()
	}
	err = errClosed
	if !s.log.Closed {
		err = s.Flush()
	}
	segs := make([]int32, 0, len(s.unsynced))
	for seg, e := range s.unsynced {
		if pick == nil || pick(seg, e) {
			segs = append(segs, seg)
		}
	}
	applied := s.seq
	if !locked {
		s.mu.Unlock()
	}
	if err == nil && len(segs) > 0 {
		t0 := time.Now()
		err = s.fsyncAll(segs)
		s.hSyncNs.Record(uint64(time.Since(t0)))
		s.hSyncN.Record(uint64(len(segs)))
	}
	if err != nil {
		return len(segs), err
	}
	if !locked {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	for _, seg := range segs {
		if s.unsynced[seg].seq <= applied { // else appended to since: still owed one
			delete(s.unsynced, seg)
		}
	}
	if pick == nil {
		s.gcm.mu.Lock()
		if applied > s.gcm.durable {
			s.gcm.durable = applied
			s.trace.Emit(obs.EvWatermark, int64(applied))
		}
		s.gcm.mu.Unlock()
	}
	return len(segs), nil
}

// fsyncAll fsyncs segs — the first on the caller, the rest on goroutines, at
// most syncInFlight at once, one store.fsync.ns sample each — and returns the
// first error.
func (s *Store) fsyncAll(segs []int32) error {
	var (
		next  atomic.Int32
		once  sync.Once
		wg    sync.WaitGroup
		first error
	)
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(segs); i = int(next.Add(1)) - 1 {
			t0 := time.Now()
			err := s.be.sync(int(segs[i]))
			s.hFsync.Record(uint64(time.Since(t0)))
			if err != nil {
				once.Do(func() { first = err })
				next.Store(int32(len(segs))) // start no more
			}
		}
	}
	for w := 1; w < min(len(segs), syncInFlight); w++ {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	return first
}

// commitWatermarkLocked is the highest seq currently known fully durable:
// the group-commit durable point, or the last checkpoint's coverage.
// Caller holds s.mu (read or write); gcm.mu nests inside it.
func (s *Store) commitWatermarkLocked() uint64 {
	s.gcm.mu.Lock()
	d := s.gcm.durable
	s.gcm.mu.Unlock()
	return max(d, s.prunedSeq)
}

// Sync makes every write applied so far durable, regardless of the
// durability policy: the explicit flush for callers running DurNone or
// DurSeal who occasionally need a hard durability point. Concurrent Syncs
// and DurCommit committers share flush rounds.
func (s *Store) Sync() error {
	s.mu.RLock()
	if s.log.Closed {
		s.mu.RUnlock()
		return errClosed
	}
	target := s.seq
	s.mu.RUnlock()
	return s.waitDurable(target)
}
