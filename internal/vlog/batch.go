package vlog

import (
	"fmt"
	"time"

	"repro/internal/seglog"
)

// Batch collects Puts and Deletes for one atomic Commit. Build it with
// NewBatch and the chainable Put/Delete, then hand it to Store.Commit. A
// Batch is not safe for concurrent use, but may be reused (Reset) once
// Commit returns; keys and values are copied into the batch at Put time,
// so callers may reuse their buffers immediately.
type Batch struct{ b seglog.Batch[string] }

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put adds a key/value write. The value is copied.
func (b *Batch) Put(key string, value []byte) *Batch {
	b.b.Put(key, value)
	return b
}

// Delete adds a key deletion. Deleting an absent key stays a no-op, as for
// the single-op Delete.
func (b *Batch) Delete(key string) *Batch {
	b.b.Delete(key)
	return b
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.b.Ops) }

// Reset empties the batch for reuse, keeping its allocations.
func (b *Batch) Reset() { b.b.Reset() }

// Commit atomically applies a batch: one admission check, one lock hold,
// and all-or-nothing visibility. Space for every record is reserved before
// any current version is invalidated, so a batch that cannot fit fails
// with ErrFull (or ErrTooLarge) leaving the store exactly as it was.
// Entries apply in order, so a later Put/Delete of the same key supersedes
// an earlier one. The store is volatile, so "committed" means visible to
// every later Get until Close, at every Durability level. The commit
// histogram covers admission, planning, the apply, and retries.
func (s *Store) Commit(b *Batch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	for i := range b.b.Ops {
		op := &b.b.Ops[i]
		op.Size = 0 // a delete appends nothing
		if !op.Del {
			op.Size = int64(recSize(op.Key, op.DataLen()))
			if op.Size > int64(s.opts.SegmentBytes) {
				return fmt.Errorf("%w: batch op %d: %d > %d", ErrTooLarge, i, op.Size, s.opts.SegmentBytes)
			}
		}
	}
	t0 := time.Now()
	err := s.log.Write(b.Len(), nil, func() error { return s.commitLocked(b) })
	s.hCommit.Record(uint64(time.Since(t0)))
	return err
}

// commitLocked has the core plan the whole batch and reserve its space
// (seglog.Log.Reserve), then applies every operation: by the time the
// first old version is invalidated, the apply loop can no longer fail with
// ErrFull.
func (s *Store) commitLocked(b *Batch) error {
	if err := s.log.Reserve(&b.b); err != nil {
		return err
	}
	for i := range b.b.Ops {
		op, pl := &b.b.Ops[i], &b.b.Plan[i]
		if op.Del {
			s.deleteLocked(op.Key)
			continue
		}
		s.log.Unow++
		if err := s.log.RoomReserved(pl.Stream, op.Size); err != nil {
			// Unreachable when the plan is sound; surface rather than hide.
			return fmt.Errorf("vlog: batch reservation violated at op %d: %w", i, err)
		}
		s.userPut(pl.Stream, pl.Tick, op.Key, b.b.Data(op), int(op.Size))
	}
	if len(b.b.Ops) > 1 {
		s.commits++
	}
	return nil
}
