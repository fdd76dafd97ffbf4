package store

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
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
type Batch struct {
	ops  []batchOp
	fill func(i int, dst []byte)
	buf  []byte // arena holding every Write's payload
}

// batchOp is one batch operation.
type batchOp struct {
	id  uint32
	del bool
	// size is the log bytes this operation appends: the record size of a
	// write or of a deletion's tombstone, 0 if it is absorbed (set by Apply).
	size int64
	off  int // payload range in buf (writes only); off < 0: reserved, fill has it
	n    int
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Write adds a page write of len(data) bytes. The data is copied; its length
// is validated against the store's page size (the maximum) at Apply time.
func (b *Batch) Write(id uint32, data []byte) *Batch {
	b.ops = append(b.ops, batchOp{id: id, off: len(b.buf), n: len(data)})
	b.buf = append(b.buf, data...)
	return b
}

// SetFill installs the function that produces the batch's reserved writes
// (it survives Reset): fill(i, dst) writes the page of the batch's i-th
// operation into dst, exactly the reserved length, every byte of it. Apply
// calls it under the store's lock, once per reserved write it appends (not for
// one a later op on its page supersedes), in the order it appends them (see
// Apply) but always with the op's own index i, and only after validating the
// whole batch and reserving its space — fill cannot fail, so check what it
// will encode before Apply — and it must not call the store.
func (b *Batch) SetFill(fill func(i int, dst []byte)) { b.fill = fill }

// Reserve adds a page write of n bytes that the SetFill function produces
// at Apply time.
func (b *Batch) Reserve(id uint32, n int) *Batch {
	b.ops = append(b.ops, batchOp{id: id, off: -1, n: n})
	return b
}

// Delete adds a page deletion (a durable tombstone). The page must exist
// when the batch is applied — either in the store or written earlier in
// this batch — or Apply fails with ErrNotFound before changing anything.
func (b *Batch) Delete(id uint32) *Batch {
	b.ops = append(b.ops, batchOp{id: id, del: true})
	return b
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch for reuse, keeping its allocations and its fill.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.buf = b.buf[:0]
}

// copyData puts write ops[i]'s payload into dst, n bytes long: the arena's
// copy, or what fill makes of a reserved one.
func (b *Batch) copyData(i int, dst []byte) {
	if op := &b.ops[i]; op.off < 0 {
		b.fill(i, dst)
	} else {
		copy(dst, b.buf[op.off:op.off+op.n])
	}
}

// Apply atomically applies a batch: one admission check, one lock hold,
// and all-or-nothing visibility. Space for every record is reserved before
// any current version is invalidated, so a batch that cannot fit fails
// with ErrFull leaving the store exactly as it was; a Delete of a
// nonexistent page fails the whole batch with ErrNotFound the same way.
// Entries take effect in order, and the batch is a write buffer: an entry a
// later Write/Delete of its page supersedes is never written, nor is a Delete
// of a page that did not exist before the batch (store.user.absorbed). The
// rest, one per page, are appended in batch order, or coldest first under an
// algorithm that separates user writes (core.Algorithm.SortUser: MDC).
//
// Under DurCommit, Apply returns only after the batch is durable —
// concurrent committers coalesce onto one group fsync — and recovery
// guarantees a torn batch is never surfaced partially. (A backend I/O error
// that cuts a batch mid-apply poisons the store, so nothing vouches for the
// half batch.) WritePage and DeletePage are Applies of one op.
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
	return s.write(parent, b)
}

// applyLocked validates the whole batch (prepare), plans it and reserves its
// space (reserve), then appends the k records not absorbed in plan's order,
// numbered 0..k-1: by the time the first old version is invalidated, the apply
// loop can no longer fail with ErrFull. With k > 1 they carry commit markers, so recovery can
// discard a torn batch wholesale; a single record is trivially atomic. An
// error that cuts the batch, some of its records in and some not, poisons the
// store, or a later sync point would vouch for the half batch.
func (s *Store) applyLocked(b *Batch) (err error) {
	absorbed, err := s.prepare(b)
	if err != nil {
		return err
	}
	if err := s.reserve(b); err != nil {
		return err
	}
	k, pos := len(s.order), uint32(0)
	if k > 1 {
		s.applying = s.seq + 1
		defer func() { s.applying = 0 }()
	}
	defer func() {
		if err != nil && pos > 0 && int(pos) < k {
			err = s.poison(err)
		}
	}()
	for _, key := range s.order {
		op := &b.ops[key.i]
		if err := s.openRoom(userStream, op.size, s.userNeed()); errors.Is(err, ErrFull) {
			return fmt.Errorf("store: batch reservation violated at op %d: %w", key.i, err) // an unsound plan
		} else if err != nil {
			return err // a backend error sealing or opening a segment
		}
		flags := uint32(0)
		if op.del {
			flags = flagTombstone
		}
		if k > 1 {
			flags |= flagBatch
			if int(pos) == k-1 {
				flags |= flagBatchLast
			}
		}
		s.unow++
		carried := s.invalidate(op.id)
		if loc, deleted := s.tombstones[op.id]; deleted {
			// A rewrite supersedes the pending deletion; its tombstone record
			// is garbage from here on.
			delete(s.tombstones, op.id)
			s.pruned(loc.seg, RecordHeaderSize)
		}
		rec, err := s.stage(userStream, int(op.size))
		if err != nil {
			return err
		}
		b.copyData(int(key.i), rec[RecordHeaderSize:])
		err = s.appendRecord(userStream, op.id, flags, pos, rec, carried, nil)
		pos++ // the record is in, even if sealing after it failed
		if err != nil {
			return err
		}
		s.cUserBytes.Add(uint64(op.size))
		if !op.del {
			s.userWrites++
		}
	}
	if k > 1 {
		s.batches++
	}
	s.cAbsorbed.Add(uint64(absorbed))
	return nil
}

// keptRefs bounds the batch whose page table (prepare) and order (plan) are kept.
const keptRefs = 2048

// prepare validates the batch in order and sets each op's size, the log bytes
// it appends, or 0 if it is absorbed: superseded by a later op on its page, or
// a Delete of a page that did not exist before the batch. An absorbed op was
// never visible, so it is never written. refs maps each page to its latest op
// so far, which says whether the page exists there: a Delete may follow a Write.
func (s *Store) prepare(b *Batch) (absorbed int, err error) {
	var refs map[uint32]int32 // nil for one op: there is no earlier op to absorb
	if len(b.ops) > keptRefs {
		refs = make(map[uint32]int32, len(b.ops)) // a big batch's table is not kept
	} else if len(b.ops) > 1 {
		refs = s.refs
		defer func() { // not clear(refs): that costs the capacity a bigger batch left
			for i := range b.ops {
				delete(refs, b.ops[i].id)
			}
		}()
	}
	for i := range b.ops {
		op := &b.ops[i]
		j, seen := refs[op.id]
		if seen && b.ops[j].size > 0 {
			b.ops[j].size, absorbed = 0, absorbed+1
		}
		op.size = int64(RecordHeaderSize + op.n) // a tombstone is a bare header
		if op.del {
			_, before := s.table[op.id]
			if seen && b.ops[j].del || !seen && !before {
				return 0, fmt.Errorf("store: batch op %d deletes page %d: %w", i, op.id, ErrNotFound)
			}
			if !before { // the page was made in this batch
				op.size, absorbed = 0, absorbed+1
			}
		} else if op.n > s.opts.PageSize {
			return 0, fmt.Errorf("batch op %d: %w: %d > %d bytes", i, ErrTooLarge, op.n, s.opts.PageSize)
		} else if op.off < 0 && b.fill == nil {
			return 0, fmt.Errorf("store: batch op %d reserves page %d but the batch has no fill function", i, op.id)
		}
		if refs != nil {
			refs[op.id] = int32(i)
		}
	}
	return absorbed, nil
}

// reserve plans the batch (every op's size set) and secures the free segments
// it needs, before any old version is invalidated: once it returns nil the
// apply loop (openRoom per op) can no longer fail with ErrFull. In foreground
// mode it runs cleaning first, so every segment open happens at or above the
// low-water mark; in background mode it fails fast with ErrFull and lets the
// admission loop in write retry while the cleaner catches up. A batch of only
// deletions frees at least the tombstones it writes, so where cleaning cannot
// reach the mark it may draw on the cleaning reserve (foreground only): that
// is how a full log is drained.
func (s *Store) reserve(b *Batch) error {
	newSegs := s.plan(b)
	if s.cl != nil {
		// Segment opens pass need=2 (the last free segment is the
		// cleaner's), so the pool must cover newSegs plus that one.
		if len(s.free) >= newSegs+1 {
			return nil
		}
		return ErrFull
	}
	// Cleaning appends to the GC stream only, so it leaves the plan valid.
	target := s.opts.FreeLowWater + newSegs - 1
	if newSegs == 0 || len(s.free) >= target {
		return nil
	}
	if err := s.cleanUntil(target); err != nil {
		deletesOnly := !slices.ContainsFunc(b.ops, func(op batchOp) bool { return !op.del && op.size > 0 })
		if deletesOnly && errors.Is(err, ErrFull) && len(s.free) >= newSegs+s.userNeed()-1 {
			return nil
		}
		return err
	}
	return nil
}

// appendKey places a batch op in the apply order: the seq of its page's
// current version (0: none) and its index.
type appendKey struct {
	seq uint64
	i   int32
}

// plan puts the batch's non-absorbed ops in the order the apply loop appends
// them (s.order) and counts, without mutating any log state, the fresh
// segments those appends to the user stream consume, so the reservation is
// exact. An algorithm that separates user writes (SortUser, §5.3) appends
// them coldest first: in ascending seq of each page's current version, a page
// with none first, ties in batch order. The order is fixed here, before
// reserve's cleaning renews the seqs of the pages it relocates.
func (s *Store) plan(b *Batch) (newSegs int) {
	if cap(s.order) > keptRefs {
		s.order = nil // a big batch's order is not kept
	}
	s.order = s.order[:0]
	for i := range b.ops {
		if op := &b.ops[i]; op.size > 0 { // an absorbed op appends nothing
			s.order = append(s.order, appendKey{s.table[op.id].seq, int32(i)})
		}
	}
	if s.opts.Algorithm.SortUser {
		slices.SortStableFunc(s.order, func(a, b appendKey) int { return cmp.Compare(a.seq, b.seq) })
	}
	segBytes := s.opts.segmentBytes()
	rem := int64(-1) // room left in the open user segment; -1: none is open
	if seg := s.open[userStream].seg; seg >= 0 {
		rem = segBytes - s.fill[seg]
	}
	for _, key := range s.order {
		size := b.ops[key.i].size
		if rem < size {
			newSegs++
			rem = segBytes
		}
		rem -= size
	}
	return newSegs
}

// commitWait blocks until every record up to target is durable,
// contributing to the group-commit statistics. Caller must not hold s.mu.
func (s *Store) commitWait(target uint64) error {
	t0 := time.Now()
	s.cCommits.Inc()
	err := s.gcm.Wait(target, s.commitRound)
	s.hCommit.Record(uint64(time.Since(t0)))
	return err
}

// commitRound is one group-commit round: a sync point over the whole ledger,
// which publishes the durable seq itself. Its counts are the
// store.commit.rounds / .syncs counters.
func (s *Store) commitRound() (uint64, error) {
	synced, err := s.syncPoint(false, nil)
	s.cRounds.Inc()
	s.cSyncs.Add(uint64(synced))
	s.trace.Emit(obs.EvCommitRound, int64(s.cRounds.Value()), int64(s.cSyncs.Value()), int64(synced))
	return 0, err
}

// syncInFlight bounds the fsyncs a sync point has outstanding at once.
const syncInFlight = 4

// syncPoint is how a segment gets fsynced, at every durability point but a
// DurSeal seal: cleaning cycle, backing reuse, group flush, Sync, Close. Under
// the store lock (the caller's if locked, else its own) it settles, so no
// segment is fsynced twice with no write between, writes the staged run, and
// claims the ledger entries pick wants (nil: all of them, which makes the log
// durable up to the seq at the claim, and publishes that); it fsyncs the
// claimed segments concurrently, holding the lock only if the caller does;
// and, under the lock again, retires the entries no append has touched since
// the claim (and the waits on them). An error retires nothing, and a failed
// fsync poisons the store (poison). n is the number of segments claimed.
func (s *Store) syncPoint(locked bool, pick func(int32, unsyncedSeg) bool) (n int, err error) {
	if !locked {
		s.mu.Lock()
	}
	if err = s.settle(); err == nil {
		err = s.flush()
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
	var failed error
	if err == nil && len(segs) > 0 {
		t0 := time.Now()
		failed = s.fsyncAll(segs)
		s.hSyncNs.Record(uint64(time.Since(t0)))
		s.hSyncN.Record(uint64(len(segs)))
	}
	if !locked {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if err = cmp.Or(err, s.poison(failed)); err != nil { // a concurrent sync point's failure voids this one's fsyncs too
		return len(segs), err
	}
	retired := false
	for _, seg := range segs {
		if e := s.unsynced[seg]; e.seq <= applied { // else appended to since: still owed one
			delete(s.unsynced, seg)
			retired = retired || e.owed()
		}
	}
	if retired {
		s.pruneWaits()
	}
	if pick == nil && s.gcm.Advance(applied) {
		s.trace.Emit(obs.EvWatermark, int64(applied))
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

// commitWatermarkLocked is the stamp of a new segment header, the highest seq
// known fully durable: the group-commit point, or the seq before the first
// batch still being appended (applying) or with a member no fsync has covered
// (the ledger's low). A batch starting at or below it is whole on storage,
// whichever members cleaning recycles later. Caller holds s.mu (read or
// write); gcm's lock nests inside it.
func (s *Store) commitWatermarkLocked() uint64 {
	w := s.gcm.Durable()
	low := cmp.Or(s.applying, s.seq+1)
	for _, e := range s.unsynced {
		if e.low != 0 {
			low = min(low, e.low)
		}
	}
	return max(w, low-1)
}

// poison makes err, if not nil, the store's sticky error unless one is set,
// and returns that. err is a failed fsync's — the kernel may have dropped the
// pages it failed to write, so no later fsync can vouch for them — or the
// write error that cut a batch in two (applyLocked). Caller holds the write
// lock.
func (s *Store) poison(err error) error {
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("store: a write or fsync failed, the store takes no more writes: %w", err)
	}
	return s.err
}

// Sync makes every write applied so far durable, regardless of the
// durability policy: the explicit flush for callers running DurNone or
// DurSeal who occasionally need a hard durability point. Concurrent Syncs
// and DurCommit committers share flush rounds.
func (s *Store) Sync() error {
	s.mu.Lock()
	err, target := s.settle(), s.seq
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.gcm.Wait(target, s.commitRound)
}
