package store

import (
	"fmt"
	"sync"
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
type Batch struct{ b seglog.Batch[uint32] }

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
	return s.write(b.Len(), parent, func() error { return s.applyLocked(b) })
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
			return fmt.Errorf("store: batch op %d: page data %d bytes, page size is %d", i, op.DataLen(), s.opts.PageSize)
		} else if op.Reserved() && b.b.Fill == nil {
			return fmt.Errorf("store: batch op %d reserves page %d but the batch has no fill function", i, op.Key)
		}
		if vexists != nil {
			vexists[op.Key] = !op.Del
		}
		op.Size = int64(recHeaderSize + op.DataLen()) // a tombstone is a bare header
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
// rounds: the first committer to find no round in flight flushes the dirty
// segment set; everyone else piggybacks on the round's outcome and only
// starts another if their records are still not covered.
type groupCommit struct {
	mu      sync.Mutex
	durable uint64       // highest seq known flushed to storage
	cur     *commitRound // in-flight flush, nil when idle
	commits uint64       // DurCommit waits served
	rounds  uint64       // flush rounds run
	syncs   uint64       // per-segment fsync calls issued
}

type commitRound struct {
	done chan struct{}
	err  error
}

// commitWait blocks until every record up to target is durable,
// contributing to the group-commit statistics. Caller must not hold s.mu.
func (s *Store) commitWait(target uint64) error {
	t0 := time.Now()
	s.gcm.mu.Lock()
	s.gcm.commits++
	s.gcm.mu.Unlock()
	s.cCommits.Inc()
	err := s.waitDurable(target)
	s.hCommit.Record(uint64(time.Since(t0)))
	return err
}

// waitDurable is the group fsync: one goroutine runs a flush round over
// the dirty segments, concurrent callers wait on it and re-check. Caller
// must not hold s.mu (the flush snapshots under it).
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
		applied, synced, err := s.flushDirty()
		g.mu.Lock()
		g.rounds++
		g.syncs += uint64(synced)
		s.cRounds.Inc()
		s.cSyncs.Add(uint64(synced))
		s.trace.Emit(obs.EvCommitRound, int64(g.rounds), int64(g.syncs), int64(synced))
		if err == nil && applied > g.durable {
			g.durable = applied
			s.trace.Emit(obs.EvWatermark, int64(applied))
		}
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

// flushDirty snapshots the dirty segment set and the applied seq under the
// store lock, fsyncs the segments with no lock held, then retires the
// entries that were not re-dirtied meanwhile. Everything appended before
// the snapshot is durable once it returns nil.
func (s *Store) flushDirty() (applied uint64, synced int, err error) {
	type entry struct {
		seg int32
		seq uint64
	}
	s.mu.Lock()
	if s.log.Closed {
		s.mu.Unlock()
		return 0, 0, errClosed
	}
	applied = s.seq
	segs := make([]entry, 0, len(s.dirty))
	for seg, seq := range s.dirty {
		segs = append(segs, entry{seg: seg, seq: seq})
	}
	s.mu.Unlock()
	for _, e := range segs {
		if err := s.syncSeg(e.seg); err != nil {
			return 0, synced, err
		}
		synced++
	}
	s.mu.Lock()
	for _, e := range segs {
		if s.dirty[e.seg] == e.seq {
			delete(s.dirty, e.seg)
		}
	}
	s.mu.Unlock()
	return applied, synced, nil
}

// syncAllDirtyLocked flushes every dirty segment under the write lock and
// publishes the durability point — the foreground-cleaning and Close
// variant of a group flush, where the caller already owns the lock.
func (s *Store) syncAllDirtyLocked() error {
	for seg := range s.dirty {
		if err := s.syncSeg(seg); err != nil {
			return err
		}
		delete(s.dirty, seg)
	}
	s.gcm.mu.Lock()
	if s.seq > s.gcm.durable {
		s.gcm.durable = s.seq
		s.trace.Emit(obs.EvWatermark, int64(s.seq))
	}
	s.gcm.mu.Unlock()
	return nil
}

// syncSeg fsyncs one segment through the backend, feeding the fsync
// latency histogram.
func (s *Store) syncSeg(seg int32) error {
	t0 := time.Now()
	err := s.be.sync(int(seg))
	s.hFsync.Record(uint64(time.Since(t0)))
	return err
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
