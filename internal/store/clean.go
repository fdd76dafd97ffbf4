package store

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Cleaning is decomposed into the phases of the cleaner state machine
// (select → relocate → release), shared by both modes:
//
//   - foreground mode runs all phases back to back under the write lock (a
//     write blocks until the pool recovers);
//   - background mode (cleaner.go) interleaves: victims are marked
//     core.SegCleaning under the lock, their records — then immutable —
//     are loaded with NO lock held, and relocated copies are installed in
//     small chunks so user reads and writes proceed throughout. Each
//     install re-checks that the record is still current, because a
//     concurrent overwrite may have superseded it mid-flight.
//
// Two promises keep every live record with an intact durable copy. Marking a
// victim SegCleaning freezes it: it is never opened, reused or re-selected
// until release, so its records may be read with no lock held. And release
// follows a successful syncRelocated, which may leave copies in a still-open
// segment unsynced: release may precede the copies' fsync, reuse may not.
// Such a victim is backing (backs). Recovery picks the highest sequence
// number, so two copies are harmless.

// recCand is one live victim record captured at selection time, under the
// lock: its victim and that victim's up2 (the GC order), where it is and how
// long, so that load needs no index to find it. Once install has staged its
// copy, off and seq are the copy's.
type recCand struct {
	seg  int32
	page uint32
	off  uint32
	size int32 // header included
	seq  uint64
	up2  float64
	woff uint32 // set by load: where the record is in the cycle's window
	tomb bool
}

// CleanOnce runs a single cleaning cycle regardless of the low-water mark
// and returns the number of segments reclaimed.
func (s *Store) CleanOnce() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	n, _, err := s.cleanCycle()
	return n, err
}

// cleanUntil runs foreground cleaning cycles until the free pool reaches
// target segments. Batch reservation passes a higher target than the
// low-water mark. Caller holds the write lock.
func (s *Store) cleanUntil(target int) error {
	guard := 0
	dry := 0
	for len(s.free) < target {
		n, net, err := s.cleanCycle()
		if err != nil {
			return err
		}
		if n == 0 {
			return ErrFull
		}
		// Cycles that only shuffle full segments reclaim nothing: the
		// log's live data has (nearly) reached physical capacity.
		if net <= 0 {
			if dry++; dry >= 2 {
				return fmt.Errorf("store: live data at physical capacity: %w", ErrFull)
			}
		} else {
			dry = 0
		}
		if guard++; guard > 4*s.opts.MaxSegments {
			return fmt.Errorf("store: cleaning cannot reach %d free segments: %w", target, ErrFull)
		}
	}
	return nil
}

// cleanCycle runs one full cycle under the write lock and reports the
// victim count and the net bytes reclaimed (released minus relocated).
func (s *Store) cleanCycle() (victimCount int, netBytes int64, err error) {
	victims, cands, err := s.selectVictims(s.opts.CleanBatch, s.cands)
	if err != nil || len(victims) == 0 {
		return 0, 0, err
	}
	s.cands = cands
	moved, err := s.relocate(cands, len(cands), &s.win, true)
	if err != nil {
		s.reseal(victims)
		return 0, 0, err
	}
	return len(victims), s.release(victims) - moved, nil
}

// relocate is the middle of a cycle: sort the candidates (the key is their
// victim's up2, so each victim's stay together, in log order), load a window
// of them and install it chunk at a time until none is left, then run the
// durability point. The foreground cycle holds the write lock throughout
// (locked); the background one runs the bulk I/O of load with no lock held —
// victim records are frozen by SegCleaning — and takes the lock per chunk, so
// user operations interleave with it. An error returns the partial totals.
func (s *Store) relocate(cands []recCand, chunk int, win *[]byte, locked bool) (moved int64, err error) {
	if s.opts.Algorithm.SortGC {
		// Separate relocations by update frequency (§5.3): coldest first.
		slices.SortStableFunc(cands, func(a, b recCand) int { return cmp.Compare(a.up2, b.up2) })
	}
	for n := 0; len(cands) > 0; cands = cands[n:] {
		if n, err = s.load(cands, win); err != nil {
			return moved, err
		}
		for lo := 0; lo < n; lo += chunk {
			b, err := s.installChunk(cands[lo:min(lo+chunk, n)], *win, locked)
			moved += b
			if err != nil {
				return moved, err
			}
		}
	}
	return moved, s.syncRelocated(locked)
}

// selectVictims asks the policy for up to max victims, marks them
// SegCleaning (freezing their records), and snapshots the records of each
// that the page table or the tombstone map still points at into dst's memory,
// the table the caller keeps between its cycles. Caller holds the write lock.
func (s *Store) selectVictims(max int, dst []recCand) ([]int32, []recCand, error) {
	view := core.View{Now: s.unow, Segs: s.meta}
	victims := s.opts.Algorithm.Policy.Victims(view, max, nil)
	live := 0 // Meta.Live counts what the index points at: the candidates to come
	for _, v := range victims {
		if s.meta[v].State != core.SegSealed {
			return nil, nil, fmt.Errorf("store: policy %s selected non-sealed segment %d", s.opts.Algorithm.Name, v)
		}
		live += int(s.meta[v].Live)
	}
	cands := slices.Grow(dst[:0], live)
	for _, v := range victims {
		m := &s.meta[v]
		m.State = core.SegCleaning
		// Emptiness-at-clean is measured now but credited to the stats
		// only when the victim is actually released (an aborted victim
		// was not cleaned and will be re-selected).
		s.pendingE[v] = m.Emptiness()
		s.hVictimE.Record(uint64(m.Emptiness() * 1000))
		off := uint32(segHeaderSize)
		for _, r := range s.recs[v] {
			if tomb, ok := s.liveAt(r.page, r.seq, v, off); ok {
				cands = append(cands, recCand{seg: v, page: r.page, off: off, size: int32(r.end - off), seq: r.seq, up2: m.Up2, tomb: tomb})
			}
			off = r.end
		}
	}
	return victims, cands, nil
}

// load reads one victim, in one I/O into the cycle's window, from cands[0] to
// the last of its candidates (in log order) that fits, and verifies the
// identity of each data record; the payloads stay where they were read. It
// allocates *win, the cycle's owner keeps it. Victim segments are immutable
// while marked SegCleaning, so this — the bulk of cleaning I/O — runs with no
// lock held in background mode, beside reads and user appends.
func (s *Store) load(cands []recCand, win *[]byte) (int, error) {
	if *win == nil {
		*win = make([]byte, max(ioUnit, RecordHeaderSize+s.opts.PageSize))
	}
	seg, base, n := cands[0].seg, cands[0].off, 1
	end := func(r *recCand) int { return int(r.off-base) + int(r.size) }
	for n < len(cands) && cands[n].seg == seg && end(&cands[n]) <= len(*win) {
		n++
	}
	buf := (*win)[:end(&cands[n-1])]
	if err := s.read(seg, base, buf); err != nil {
		return 0, err
	}
	for i := range cands[:n] {
		r := &cands[i]
		if r.woff = r.off - base; r.tomb {
			continue
		}
		rec := buf[r.woff:][:r.size]
		h, data, err := decodeRecord(rec, s.opts.PageSize)
		if err != nil {
			return 0, fmt.Errorf("store: cleaning segment %d @%d: %w", seg, r.off, err)
		}
		if h.page != r.page || h.seq != r.seq || len(data) != len(rec)-RecordHeaderSize {
			return 0, fmt.Errorf("store: cleaning segment %d @%d: record identity mismatch", seg, r.off)
		}
	}
	return n, nil
}

// installChunk relocates the candidates that are still current, taking the
// write lock for the chunk unless the caller already holds it, and writes
// their copies before the lock is released.
func (s *Store) installChunk(cands []recCand, win []byte, locked bool) (bytes int64, err error) {
	if !locked {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.err != nil {
			return 0, s.err
		}
	}
	for i := range cands {
		var n int64
		if n, err = s.install(&cands[i], win); err != nil {
			break
		}
		bytes += n
	}
	return bytes, cmp.Or(err, s.flush())
}

// install appends a relocated copy of r, loaded into win, if it is still
// current (a concurrent overwrite or delete may have superseded it; a
// tombstone is relocated like any record, since an older record of its page
// may survive elsewhere), keeping victim accounting truthful (a relocated
// record no longer counts against its victim once flush wrote its copy), and
// notes the segment the copy went to among those its victim waits on. It
// returns the bytes appended, 0 when nothing was.
func (s *Store) install(r *recCand, win []byte) (int64, error) {
	flags, size := uint32(0), int64(r.size)
	if r.tomb {
		flags = flagTombstone
	}
	if _, ok := s.liveAt(r.page, r.seq, r.seg, r.off); !ok {
		return 0, nil // overwritten, deleted or superseded since selection
	}
	if err := s.gcRoom(size); err != nil {
		return 0, err
	}
	rec, err := s.stage(gcStream, int(size))
	if err != nil {
		return 0, err
	}
	if on := s.waits[r.seg]; s.waits != nil && !slices.Contains(on, s.runSeg) {
		s.waits[r.seg] = append(on, s.runSeg) // before appendRecord, whose seal may cover it
	}
	copy(rec[RecordHeaderSize:], win[r.woff:][RecordHeaderSize:size])
	if err := s.appendRecord(gcStream, r.page, flags, 0, rec, r.up2, r); err != nil {
		return 0, err
	}
	s.cGCBytes.Add(uint64(size))
	return size, nil
}

// syncRelocated is the cycle's durability point: one sync point after the
// last relocated copy is written and before any victim is released (locked
// reports whether the caller holds the write lock; the background cycle does
// not, so its fsyncs stall nobody). Until it succeeds the victims hold the
// originals and recovery falls back to them, so a segment the cycle filled
// and sealed on the way is not fsynced at its seal but here, once. Under
// DurSeal it covers every sealed ledger entry holding a relocated copy,
// whichever cycle wrote it (an aborted cycle leaves its entries behind, a
// failed fsync retires none). An open GC tail waits for the cycle that seals
// it (or Sync, or Close); the victims with copies in it are released backing
// (backs). Under DurCommit it covers the whole ledger, so a relocated copy of
// a batch record (which loses its batch markers) never becomes durable ahead
// of the rest of its batch — releasing the victim then cannot let recovery
// surface the batch partially.
func (s *Store) syncRelocated(locked bool) error {
	switch s.opts.Durability {
	case core.DurSeal:
		_, err := s.syncPoint(locked, func(g int32, e unsyncedSeg) bool { return e.reloc && s.meta[g].State != core.SegOpen })
		return err
	case core.DurCommit:
		if !locked {
			return s.Sync() // shares the committers' group flush rounds
		}
		_, err := s.syncPoint(true, nil)
		return err
	}
	return nil
}

// release returns victims to the free pool, SealSeq kept (pick), and reports
// the gross capacity bytes released. It settles, forgets each victim's ledger
// entry, and truncates it (discardFree): what was live in it is synced
// elsewhere, or sits in an open GC tail — then the victim keeps its waits and
// its bytes, backing, until the sync point that covers that tail. A user
// record no fsync has covered (DurSeal: before its seal; DurCommit: written
// after the cycle's Sync) may supersede the last durable version of a page in
// it, or carry the only stamp past its newest record, so each victim also
// waits on the ledger's segments holding user records. Caller holds the lock.
func (s *Store) release(victims []int32) (releasedBytes int64) {
	s.settle() // a poisoned store truncates nothing
	for _, v := range victims {
		m := &s.meta[v]
		if e, ok := s.pendingE[v]; ok {
			s.cleanedSegs++
			s.sumEAtClean += e
			delete(s.pendingE, v)
		}
		releasedBytes += m.Capacity
		m.State = core.SegFree
		m.Live = 0
		m.Free = m.Capacity
		m.Up2 = 0
		delete(s.unsynced, v)
		s.free = append(s.free, v)
	}
	for g, e := range s.unsynced {
		for _, v := range victims {
			if s.waits != nil && e.user && !slices.Contains(s.waits[v], g) {
				s.waits[v] = append(s.waits[v], g)
			}
		}
	}
	s.freeCount.Store(int64(len(s.free)))
	s.discardFree()
	return releasedBytes
}

// reseal reverts victims to sealed after a failed relocation so a later
// cycle can retry them.
func (s *Store) reseal(victims []int32) {
	for _, v := range victims {
		if s.meta[v].State == core.SegCleaning {
			s.meta[v].State = core.SegSealed
			delete(s.pendingE, v)
		}
	}
}

// backs reports whether free segment seg is backing: it waits on a segment,
// so its file holds some record's last durable copy (a relocated copy of one
// of its records still owes an fsync). pick opens it only when no other will
// do; openSegment then covers the copies first.
func (s *Store) backs(seg int32) bool { return len(s.waits[seg]) > 0 }

// pruneWaits drops the waits on segments a sync point has just covered, and
// truncates the victims that stopped backing (discardFree).
func (s *Store) pruneWaits() {
	for seg, on := range s.waits {
		if on = slices.DeleteFunc(on, func(g int32) bool { return !s.unsynced[g].owed() }); len(on) > 0 {
			s.waits[seg] = on
		} else {
			delete(s.waits, seg)
		}
	}
	s.discardFree()
}

// syncDir fsyncs the directory, so the names of the segment files created
// since the last one survive a power cut: a store.fsync.ns sample, as every
// segment fsync is.
func (s *Store) syncDir() error {
	d, err := os.Open(s.opts.Dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = d.Sync()
	s.hFsync.Record(uint64(time.Since(t0)))
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close stops the background cleaner (if any) and runs cycles to its high
// watermark until one nets less than a segment, so a closed store's size does
// not depend on where in the hysteresis its writes stopped. It then fsyncs the
// whole ledger in one sync point (unless DurNone) — the open segments, and
// whatever an aborted cycle left in it — seals the open segments, fsyncs the
// directory (unless DurNone), truncates the free segments that sync point let
// go (discardFree), and releases resources, a poisoned store's too, returning
// its sticky error.
func (s *Store) Close() error {
	s.stopCleaner()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	for s.cl != nil && s.settle() == nil && len(s.free) < s.cl.high {
		if n, net, err := s.cleanCycle(); err != nil || n == 0 || net < s.opts.segmentBytes() {
			break // a failed cycle re-sealed its victims; a poisoning one fails below
		}
	}
	err := s.settle()
	if err == nil && s.opts.Durability != core.DurNone {
		_, err = s.syncPoint(true, nil)
	}
	for _, stream := range []int32{userStream, gcStream} {
		if err == nil {
			err = s.seal(stream)
		}
	}
	if err == nil && s.opts.Dir != "" && s.opts.Durability != core.DurNone {
		if err = s.syncDir(); err != nil {
			err = s.poison(fmt.Errorf("syncing the directory: %w", err))
		}
	}
	if err != nil && s.err == nil {
		return err // no fsync failed: Close may be retried
	}
	s.discardFree()
	close(s.sealq) // settled: the syncer has nothing in flight
	<-s.sealDone   // and has exited
	s.closed, s.err = true, cmp.Or(s.err, errClosed)
	return cmp.Or(err, s.be.close())
}

// stopCleaner stops the background cleaner, if any. Call it unlocked.
func (s *Store) stopCleaner() {
	if s.cl != nil {
		s.cl.stop()
	}
}

// Stats describes store occupancy and cleaning efficiency.
type Stats struct {
	LivePages       int
	Tombstones      int
	FreeSegments    int
	SealedSegments  int
	UserWrites      uint64
	GCWrites        uint64
	SegmentsCleaned uint64
	WriteAmp        float64
	MeanEAtClean    float64
	// CapacityPages is the capacity in full-size pages and FillFactor is
	// LivePages over it: a page-count ratio. With pages shorter than
	// PageSize the log's byte fill is lower; Streams[].LiveBytes and
	// MeanEAtClean (and every cleaning decision) are in bytes.
	CapacityPages int
	FillFactor    float64
	// CapacityBytes is the record capacity of all segments; LiveBytes the
	// current records' bytes; UserBytes and GCBytes what users and relocation
	// appended (store.user.bytes, store.gc.bytes). All count record headers.
	CapacityBytes, LiveBytes, UserBytes, GCBytes uint64
	UpdateClock                                  uint64
	// Streams is the occupancy of the user (0) and GC (1) streams: live
	// records/bytes, segment counts, and open-segment fill.
	Streams []core.StreamStats
	// Durability is the store's write-durability policy ("none", "seal",
	// "commit").
	Durability string
	// Commits counts DurCommit waits (writes and batch Applies that waited
	// for group durability); FsyncRounds counts the group flushes that
	// served them and Fsyncs the per-segment fsync calls those rounds
	// issued (the counters store.commit.commits / .rounds / .syncs).
	// FsyncRounds/Commits < 1 means committers coalesced.
	Commits     uint64
	FsyncRounds uint64
	Fsyncs      uint64
	// BatchesApplied counts successful multi-record Apply calls;
	// AbsorbedWrites the batch ops Apply never wrote (store.user.absorbed).
	BatchesApplied, AbsorbedWrites uint64
	// Background reports whether cleaning runs in a background goroutine;
	// Cleaner is its lifecycle snapshot (zero-valued in foreground mode).
	Background bool
	Cleaner    CleanerStats
}

// Obs returns the store's metrics registry (always non-nil): the store.*
// and cleaner.* series plus the trace events, snapshottable at any time
// with Registry.Snapshot.
func (s *Store) Obs() *obs.Registry { return s.opts.Obs }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		LivePages:       len(s.table),
		Tombstones:      len(s.tombstones),
		FreeSegments:    len(s.free),
		UserWrites:      s.userWrites,
		GCWrites:        s.gcWrites,
		SegmentsCleaned: s.cleanedSegs,
		CapacityPages:   s.opts.MaxSegments * s.opts.SegmentPages,
		CapacityBytes:   uint64(s.opts.MaxSegments) * uint64(s.opts.segmentBytes()),
		UserBytes:       s.cUserBytes.Value(),
		GCBytes:         s.cGCBytes.Value(),
		UpdateClock:     s.unow,
		Streams:         make([]core.StreamStats, len(s.open)),
		Durability:      s.opts.Durability.String(),
		BatchesApplied:  s.batches,
		AbsorbedWrites:  s.cAbsorbed.Value(),
	}
	if s.cleanedSegs > 0 {
		st.MeanEAtClean = s.sumEAtClean / float64(s.cleanedSegs)
	}
	for seg := range s.meta {
		m := &s.meta[seg]
		if m.State == core.SegFree {
			continue
		}
		ss := &st.Streams[m.Stream]
		ss.Segments++
		ss.Live += int(m.Live)
		ss.LiveBytes += m.Capacity - m.Free
		st.LiveBytes += uint64(m.Capacity - m.Free)
		if m.State == core.SegOpen {
			ss.OpenSegments++
			ss.OpenFill = float64(s.fill[seg]) / float64(m.Capacity)
		} else {
			st.SealedSegments++ // sealed or mid-clean: still holding sealed data
		}
	}
	if s.userWrites > 0 {
		st.WriteAmp = float64(s.gcWrites) / float64(s.userWrites)
	}
	if st.CapacityPages > 0 {
		st.FillFactor = float64(st.LivePages) / float64(st.CapacityPages)
	}
	s.mu.RUnlock()
	st.Commits = s.cCommits.Value()
	st.FsyncRounds = s.cRounds.Value()
	st.Fsyncs = s.cSyncs.Value()
	if s.cl != nil {
		st.Background, st.Cleaner = true, s.cl.snapshot()
	}
	return st
}

// CheckInvariants validates internal consistency (tests): every page-table
// and tombstone-map entry is exactly one written record (same page, offset
// and seq), no page is both live and deleted, and the per-segment accounting —
// live records and their real sizes — matches that index. Beyond that: the
// free pool, its atomic count and the segment states agree (so a free segment
// holds nothing live), and a segment is open exactly when it is its stream's
// open segment (so at most one per stream). It settles first.
func (s *Store) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settle()
	liveCount := make([]int32, s.opts.MaxSegments)
	liveBytes := make([]int64, s.opts.MaxSegments)
	located := len(s.table) + len(s.tombstones) // index entries that must be found in a segment
	for page := range s.tombstones {
		if _, live := s.table[page]; live {
			return fmt.Errorf("store: page %d is both live and deleted", page)
		}
	}
	for seg := range s.recs {
		off := uint32(segHeaderSize)
		for _, r := range s.recs[seg] {
			if _, ok := s.liveAt(r.page, r.seq, int32(seg), off); ok {
				liveCount[seg]++
				liveBytes[seg] += int64(r.end - off)
				located--
			}
			off = r.end
		}
	}
	if located != 0 {
		return fmt.Errorf("store: %d index entries point at no record", located)
	}
	for seg := range s.unsynced {
		if s.meta[seg].State == core.SegFree {
			return fmt.Errorf("store: free segment %d is in the unsynced ledger", seg)
		}
	}
	// A segment with waits is free (backing) or a victim, never open, and each
	// segment it waits on is in the ledger with a user's record or a relocated
	// copy.
	for seg, on := range s.waits {
		if st := s.meta[seg].State; st == core.SegOpen || len(on) == 0 || slices.ContainsFunc(on, func(g int32) bool { return !s.unsynced[g].owed() }) {
			return fmt.Errorf("store: %s segment %d waits on %v, not all owing a user or relocated record an fsync", st, seg, on)
		}
	}
	pooled := make([]int, len(s.meta))
	for _, seg := range s.free {
		pooled[seg]++
	}
	if n := s.freeCount.Load(); n != int64(len(s.free)) {
		return fmt.Errorf("store: free count %d, free pool holds %d", n, len(s.free))
	}
	for i := range s.meta {
		m := &s.meta[i]
		if m.Live != liveCount[i] || m.Capacity-m.Free != liveBytes[i] {
			return fmt.Errorf("store: %s segment %d accounts %d live records in %d bytes, index says %d in %d",
				m.State, i, m.Live, m.Capacity-m.Free, liveCount[i], liveBytes[i])
		}
		free, open := 0, s.open[m.Stream].seg == int32(i)
		if m.State == core.SegFree {
			free = 1
		}
		if pooled[i] != free || open != (m.State == core.SegOpen) || free == 1 && m.Live != 0 {
			return fmt.Errorf("store: %s segment %d (stream %d, %d live) is %d times in the free pool, open for its stream: %v",
				m.State, i, m.Stream, m.Live, pooled[i], open)
		}
	}
	return nil
}
