package store

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// The segment log: everything about segments that is neither bytes nor
// index — the metadata table the cleaning policies read, the free pool, the
// two streams' open segments, the update clock and write admission. Appends
// go openRoom → stage → appendRecord; the cleaning cycle is in clean.go.

// The two append streams: user writes fill one, relocated copies the other.
const (
	userStream int32 = 0
	gcStream   int32 = 1
)

// openSeg is a stream's open segment: its id (-1 = none), the records
// appended so far and their summed carried up2 (§5.2.2 seal-time average).
type openSeg struct {
	seg    int32
	count  int
	up2Sum float64
}

// write applies batch b under the write lock behind write admission (a closed
// or poisoned store fails with err instead), then under DurCommit makes it
// durable: the write is already visible; concurrent committers coalesce onto
// one group fsync. In background mode a write can lose the race for the last
// free segments to concurrent writers; those transient ErrFulls are retried
// through admission (which blocks below the emergency floor until the cleaner
// catches up). A write it returns ErrFull for counts once in store.errfull. A
// non-nil parent gets "store.admit", "store.apply" and "store.commit.wait"
// child spans.
func (s *Store) write(parent *obs.Span, b *Batch) (err error) {
	for attempt := 0; ; attempt++ {
		if s.cl != nil {
			leg := parent.Child("store.admit")
			err = s.cl.admit()
			leg.End()
			if err != nil {
				s.mu.RLock()
				err = cmp.Or(s.err, err) // a poisoned store's cleaner stands down
				s.mu.RUnlock()
				break
			}
		}
		leg := parent.Child("store.apply")
		s.mu.Lock()
		if err = s.err; err == nil {
			err = cmp.Or(s.applyLocked(b), s.flush())
		}
		seq := s.seq
		lowWater := s.cl != nil && len(s.free) < s.opts.FreeLowWater
		s.mu.Unlock()
		leg.End()
		if lowWater {
			s.cl.kick()
		}
		if errors.Is(err, ErrFull) && s.cl != nil && attempt < 4 {
			continue
		}
		if err == nil && s.opts.Durability == core.DurCommit {
			leg := parent.Child("store.commit.wait")
			err = s.commitWait(seq)
			leg.End()
		}
		break
	}
	if errors.Is(err, ErrFull) {
		s.cErrFull.Inc()
		s.trace.Emit(obs.EvErrFull, s.freeCount.Load())
	}
	return err
}

// gcRoom guarantees the GC stream room for a relocation of size bytes; GC
// appends may consume the reserve they are defending.
func (s *Store) gcRoom(size int64) error {
	return s.openRoom(gcStream, size, 1)
}

// userNeed is the free-pool floor a user append's segment open respects: in
// background mode the last free segment is left for the cleaner's GC
// output, so relocation can always make progress.
func (s *Store) userNeed() int {
	if s.cl != nil {
		return 2
	}
	return 1
}

// fits reports whether stream has an open segment with size free bytes,
// sealing one that is too full.
func (s *Store) fits(stream int32, size int64) (bool, error) {
	seg := s.open[stream].seg
	if seg >= 0 && s.fill[seg]+size > s.opts.segmentBytes() {
		if err := s.seal(stream); err != nil {
			return false, err
		}
	}
	return s.open[stream].seg >= 0, nil
}

// openRoom makes stream's open segment fit size more bytes, taking a free
// segment when it has none (left). need is the minimum free-pool size the
// caller may consume from. It settles first if pick or openSegment would read
// a wait or records; if not, the new stamp counts a seal in flight as unsynced.
func (s *Store) openRoom(stream int32, size int64, need int) error {
	if ok, err := s.fits(stream, size); ok || err != nil {
		return err
	}
	if len(s.free) < need {
		return ErrFull
	}
	if (len(s.waits) > 0 || len(s.recs[s.free[len(s.free)-1]]) > 0) && s.settle() != nil {
		return s.err
	}
	i := s.pick()
	seg := s.free[i]
	if err := s.openSegment(seg, stream); err != nil {
		return err // seg stays in the pool
	}
	s.free = slices.Delete(s.free, i, i+1)
	s.freeCount.Store(int64(len(s.free)))
	return nil
}

// pick returns the free-pool index of the segment openRoom opens: the topmost
// that backs nothing, else the topmost. It looks no deeper than the first
// segment not written since start-up (a free one keeps its last SealSeq; 0 is
// never): reusing a backing segment behind a sync point keeps the directory at
// the files it has, where a never-used segment would create one more.
func (s *Store) pick() int {
	top := len(s.free) - 1
	for i := top; i >= 0 && s.meta[s.free[i]].SealSeq != 0; i-- {
		if !s.backs(s.free[i]) {
			return i
		}
	}
	return top
}

// openSegment makes free segment seg stream's open segment: it empties the
// segment's file (the header's write creates one never written) and stages the
// header, the start of the run its first records will extend. A victim not yet
// truncated (discardFree) dies here, so when it backs (a relocated copy of its
// records, or a user record superseding one, owes an fsync) or the stamp is
// below its newest record, a sync point (store.backing.syncs) first covers the
// segments it waits on and the ledger entries of batches starting at or
// before it.
func (s *Store) openSegment(seg, stream int32) error {
	if err := s.flush(); err != nil {
		return err
	}
	var newest uint64 // recs[seg] is the victim's until it is truncated
	if len(s.recs[seg]) > 0 {
		newest = s.newest[seg]
	}
	if s.backs(seg) || s.commitWatermarkLocked() < newest {
		s.cBacking.Inc()
		if _, err := s.syncPoint(true, func(g int32, e unsyncedSeg) bool {
			return e.low != 0 && e.low <= newest || slices.Contains(s.waits[seg], g)
		}); err != nil {
			return err
		}
	}
	if err := s.truncate(seg); err != nil {
		return err
	}
	s.incarnation++
	s.run, s.runSeg, s.runOff = s.run[:segHeaderSize], seg, 0
	// The header carries the current commit watermark: recovery uses it to
	// tell a provably-committed batch (some members garbage-collected,
	// their segments since reused — this one, maybe) from a torn one.
	encodeSegHeader(s.run, s.incarnation, stream, s.commitWatermarkLocked())
	if s.unsynced != nil {
		s.unsynced[seg] = unsyncedSeg{seq: s.seq} // the header itself needs flushing
	}
	if s.recs[seg] == nil {
		// First use: a segment that is never opened costs no record table, and
		// one that is gets room for a quarter more records than the last seal's.
		s.recs[seg] = make([]recInfo, 0, max(s.opts.SegmentPages, s.sealedRecs*5/4))
	}
	segBytes := s.opts.segmentBytes()
	s.meta[seg] = core.SegmentMeta{Capacity: segBytes, Free: segBytes, Stream: stream, State: core.SegOpen}
	s.fill[seg] = 0
	s.open[stream] = openSeg{seg: seg}
	return nil
}

// truncate empties segment seg's file, if it holds anything, and its records.
func (s *Store) truncate(seg int32) error {
	if s.held[seg] > 0 {
		if err := s.be.reset(int(seg)); err != nil {
			return err
		}
	}
	s.hold(seg, 0)
	s.recs[seg] = s.recs[seg][:0]
	return nil
}

// discardFree truncates each free segment that backs nothing (no segment it
// waits on owes an fsync) and whose newest record a header on storage stamps
// past (stamped): recovery needs no record in it, not even a batch member.
// openSegment may reset on the watermark in memory, as its own header carries
// it. Its callers have settled. A poisoned store truncates nothing.
func (s *Store) discardFree() {
	for _, v := range s.free {
		if len(s.recs[v]) > 0 && s.err == nil && !s.backs(v) && s.newest[v] <= s.stamped {
			_ = s.truncate(v) // a failure leaves the bytes to openSegment, whose truncate reports it
		}
	}
}

// tail returns stream's open segment (which must exist, see openRoom) and the
// offset its next record goes to.
func (s *Store) tail(stream int32) (seg int32, off int64) {
	seg = s.open[stream].seg
	return seg, s.fill[seg]
}

// appended accounts one record of size bytes just written at stream's tail,
// carrying the record's up2 estimate into the segment's seal-time average.
func (s *Store) appended(stream int32, size int64, carried float64) {
	o := &s.open[stream]
	o.count++
	o.up2Sum += carried
	s.fill[o.seg] += size
	m := &s.meta[o.seg]
	m.Live++
	m.Free -= size
}

// relocated credits victim for one record of size bytes now living
// elsewhere and counts the GC write; pruned credits it for a record that
// needed no copy. Victim accounting stays truthful mid-cycle, which is what
// lets Abort release a fully drained victim.
func (s *Store) relocated(victim int32, size int64) {
	s.pruned(victim, size)
	s.gcWrites++
}

func (s *Store) pruned(victim int32, size int64) {
	m := &s.meta[victim]
	m.Live--
	m.Free += size
}

// seal closes stream's open segment, if any: the segment's up2 starts as the
// average carried up2 of its members (§5.2.2). Then it writes the staged run
// and, under DurSeal, settles the seal in flight and hands the syncer the fsync
// of a segment holding a user's record no fsync has covered. A segment whose
// unsynced records are all relocated copies waits in the ledger for the sync
// point of the cycle that sealed it (syncRelocated), as every sealed segment
// does for DurCommit's group flush.
func (s *Store) seal(stream int32) error {
	o := &s.open[stream]
	if o.seg < 0 {
		return nil
	}
	seg := o.seg
	m := &s.meta[seg]
	m.State = core.SegSealed
	s.sealSeq++
	m.SealSeq = s.sealSeq
	m.SealTime = s.unow
	s.sealedRecs = len(s.recs[seg])
	if o.count > 0 {
		m.Up2 = o.up2Sum / float64(o.count)
	}
	*o = openSeg{seg: -1}
	if err := s.flush(); err != nil || s.opts.Durability != core.DurSeal || !s.unsynced[seg].user {
		return err
	}
	if s.settle() == nil {
		s.sealing = seg
		s.sealq <- s.be
	}
	return s.err
}

// syncer runs a DurSeal store's seal fsyncs, one at a time, each on the
// backend seal hands it, recorded as a sync point of one segment would be.
func (s *Store) syncer() {
	defer close(s.sealDone)
	for be := range s.sealq {
		t0 := time.Now()
		err := be.sync(int(s.sealing)) // set before the handoff, cleared after the outcome
		d := uint64(time.Since(t0))
		s.hFsync.Record(d)
		s.hSyncNs.Record(d)
		s.hSyncN.Record(1)
		s.sealDone <- err
	}
}

// settle waits for the seal fsync in flight, if any (a store.seal.wait.ns
// sample if it must), and retires its entry as an fsync in place would have,
// or poisons the store; it returns the sticky error. Caller holds the lock.
func (s *Store) settle() error {
	if s.sealing < 0 {
		return s.err
	}
	t0, waits := time.Now(), len(s.sealDone) == 0
	err := <-s.sealDone
	if waits {
		s.hSealWait.Record(uint64(time.Since(t0)))
	}
	seg := s.sealing
	if s.sealing = -1; s.poison(err) == nil { // a sealed segment takes no append: its entry is the claim's
		delete(s.unsynced, seg)
		s.pruneWaits()
	}
	return s.err
}
