package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cleaner"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/seglog"
)

// The cleaning cycle itself (select → relocate → release, foreground and
// background) lives in internal/seglog; this file is the store's side of
// seglog.Engine: enumerating a victim's live records, loading a window of
// them, installing one relocated copy, and the durability point that must
// precede any victim's release. Recovery picks the highest sequence number,
// so two on-disk copies of a page mid-clean are harmless.

// recCand is one live victim record captured at selection time, under the
// lock: where it is and how long, so that Load needs no index to find it.
// Once Install has staged its copy, off and seq are the copy's.
type recCand struct {
	page uint32
	off  uint32
	seq  uint64
	size int32  // header included
	woff uint32 // set by Load: where the record is in the cycle's window
	tomb bool
}

// CleanOnce runs a single cleaning cycle regardless of the low-water mark
// and returns the number of segments reclaimed.
func (s *Store) CleanOnce() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.Closed {
		return 0, errClosed
	}
	n, _, err := s.log.CleanCycle()
	return n, err
}

// LiveRecords (seglog.Engine) snapshots the records of victim seg that the
// page table or the tombstone map still points at.
func (s *Store) LiveRecords(seg int32, dst []seglog.Cand[recCand]) []seglog.Cand[recCand] {
	off := uint32(segHeaderSize)
	for _, r := range s.recs[seg] {
		if tomb, ok := s.liveAt(r.page, r.seq, seg, off); ok {
			dst = append(dst, seglog.Cand[recCand]{Rec: recCand{page: r.page, off: off, seq: r.seq, size: int32(r.end - off), tomb: tomb}})
		}
		off = r.end
	}
	return dst
}

// Load (seglog.Engine) reads one victim, in one I/O into the cycle's window,
// from cands[0] to the last of its candidates (in log order) that fits, and
// verifies the identity of each data record; the payloads stay where they were
// read. Victim segments are immutable while marked SegCleaning, so this — the
// bulk of cleaning I/O — runs with no lock held, beside reads and user appends.
func (s *Store) Load(cands []seglog.Cand[recCand], win *[]byte) (int, error) {
	if *win == nil {
		*win = make([]byte, max(ioUnit, RecordHeaderSize+s.opts.PageSize))
	}
	seg, base, n := cands[0].Seg, cands[0].Rec.off, 1
	end := func(r *recCand) int { return int(r.off-base) + int(r.size) }
	for n < len(cands) && cands[n].Seg == seg && end(&cands[n].Rec) <= len(*win) {
		n++
	}
	buf := (*win)[:end(&cands[n-1].Rec)]
	if err := s.read(seg, base, buf); err != nil {
		return 0, err
	}
	for i := range cands[:n] {
		r := &cands[i].Rec
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

// Install (seglog.Engine) appends a relocated copy of c if it is still
// current, keeping victim accounting truthful (a pruned record no longer
// counts against its victim, nor a relocated one once Flush wrote its copy).
func (s *Store) Install(c *seglog.Cand[recCand], win []byte) (int64, error) {
	r, flags, size := &c.Rec, uint32(0), int64(c.Rec.size)
	if r.tomb {
		flags = flagTombstone
	}
	if _, ok := s.liveAt(r.page, r.seq, c.Seg, r.off); !ok {
		return 0, nil // overwritten, deleted or superseded since selection
	}
	if r.tomb && r.seq <= s.prunedSeq {
		// The deletion is checkpoint-covered: drop the tombstone
		// RECORD instead of relocating it — but the deletion itself
		// must stay in the tombstone map (with no record location)
		// so every future checkpoint keeps carrying it: stale data
		// records of the page can survive in not-yet-reused
		// segments, and forgetting the deletion would let recovery
		// resurrect them.
		s.tombstones[r.page] = noRecord(r.seq)
		s.log.Pruned(c.Seg, size)
		return 0, nil
	}
	stream, err := s.log.GCRoom(c.Up2, size)
	if err != nil {
		return 0, err
	}
	rec, err := s.stage(stream, int(size))
	if err != nil {
		return 0, err
	}
	copy(rec[RecordHeaderSize:], win[r.woff:][RecordHeaderSize:size])
	if err := s.appendRecord(stream, r.page, flags, 0, rec, c.Up2, c); err != nil {
		return 0, err
	}
	s.cGCBytes.Add(uint64(size))
	return size, nil
}

// SyncRelocated (seglog.Engine) is the cycle's durability point: one sync
// point after the last relocated copy is written and before any victim is
// released. Until it succeeds the victims hold the originals and recovery
// falls back to them, so a segment the cycle filled and sealed on the way is
// not fsynced at its seal but here, once, together with the open tail of the
// GC output. Under DurSeal it covers every ledger entry holding a relocated
// copy, open or sealed, whichever cycle wrote it: an aborted cycle leaves its
// entries behind and a failed fsync retires none, so the next point (or Sync,
// or Close) covers them before anything is released. Under DurCommit it covers
// the whole ledger, so a relocated copy of a batch record (which loses its
// batch markers) never becomes durable ahead of the rest of its batch —
// releasing the victim then cannot let recovery surface the batch partially.
func (s *Store) SyncRelocated(locked bool) error {
	switch s.opts.Durability {
	case core.DurSeal:
		_, err := s.syncPoint(locked, func(_ int32, e unsyncedSeg) bool { return e.reloc })
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

// ReleaseSegment (seglog.Engine) forgets a released victim's records and its
// ledger entry: what was live in it is synced elsewhere, nothing is owed.
func (s *Store) ReleaseSegment(seg int32) {
	s.recs[seg] = s.recs[seg][:0]
	delete(s.unsynced, seg)
}

// checkpoint file layout: magic (8) | unow (8) | prunedSeq (8) |
// nDeleted (4) | deleted page ids | nSegs (4) | per-segment up2 | crc (4).
const checkpointMagic = "LSCKPT01"

type checkpoint struct {
	unow      uint64
	prunedSeq uint64
	deleted   []uint32
	up2       []float64
}

func (s *Store) checkpointPath() string { return filepath.Join(s.opts.Dir, "CHECKPOINT") }

// Checkpoint persists the cleaning estimates and the deletion set. After a
// checkpoint, tombstones covered by it may be pruned during cleaning.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	if s.opts.Dir == "" {
		// In-memory stores have nothing to persist; pruning is immediate.
		s.prunedSeq = s.seq
		return nil
	}
	meta := s.log.Meta
	buf := make([]byte, 0, 64+len(s.tombstones)*4+len(meta)*8)
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, s.log.Unow)
	buf = binary.LittleEndian.AppendUint64(buf, s.seq)
	deleted := make([]uint32, 0, len(s.tombstones))
	for page := range s.tombstones {
		deleted = append(deleted, page)
	}
	sort.Slice(deleted, func(i, j int) bool { return deleted[i] < deleted[j] })
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(deleted)))
	for _, page := range deleted {
		buf = binary.LittleEndian.AppendUint32(buf, page)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	for i := range meta {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(meta[i].Up2))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	// Atomic install: write the temporary file (fsynced unless DurNone,
	// with the error propagated — a silently failed sync would let a crash
	// lose the checkpoint the caller was just promised), rename it over the
	// old checkpoint, then fsync the directory so the rename itself is
	// durable.
	tmp := s.checkpointPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: writing checkpoint: %w", err)
	}
	if s.opts.Durability != core.DurNone {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: syncing checkpoint: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, s.checkpointPath()); err != nil {
		return fmt.Errorf("store: installing checkpoint: %w", err)
	}
	if s.opts.Durability != core.DurNone {
		if err := syncDir(s.opts.Dir); err != nil {
			return fmt.Errorf("store: syncing checkpoint directory: %w", err)
		}
	}
	s.prunedSeq = s.seq
	return nil
}

// syncDir fsyncs a directory so a just-installed rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readCheckpoint loads and verifies the checkpoint, returning nil when none
// exists.
func (s *Store) readCheckpoint() (*checkpoint, error) {
	if s.opts.Dir == "" {
		return nil, nil
	}
	buf, err := os.ReadFile(s.checkpointPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: reading checkpoint: %w", err)
	}
	if len(buf) < len(checkpointMagic)+8+8+4+4+4 || string(buf[:8]) != checkpointMagic {
		return nil, fmt.Errorf("store: malformed checkpoint")
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("store: checkpoint checksum mismatch")
	}
	ck := &checkpoint{}
	off := 8
	ck.unow = binary.LittleEndian.Uint64(body[off:])
	off += 8
	ck.prunedSeq = binary.LittleEndian.Uint64(body[off:])
	off += 8
	nDel := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if off+nDel*4+4 > len(body) {
		return nil, fmt.Errorf("store: truncated checkpoint deletion set")
	}
	for i := 0; i < nDel; i++ {
		ck.deleted = append(ck.deleted, binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	nSegs := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if off+nSegs*8 > len(body) {
		return nil, fmt.Errorf("store: truncated checkpoint segment estimates")
	}
	for i := 0; i < nSegs; i++ {
		ck.up2 = append(ck.up2, math.Float64frombits(binary.LittleEndian.Uint64(body[off:])))
		off += 8
	}
	return ck, nil
}

// Close stops the background cleaner (if any), fsyncs the whole ledger in one
// sync point (unless DurNone) — the open segments, and whatever an aborted
// cycle or a failed fsync left in it — seals the open segments, which then owe
// no fsync of their own, checkpoints, and releases resources.
func (s *Store) Close() error {
	s.log.StopCleaner()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.Closed {
		return nil
	}
	if s.opts.Durability != core.DurNone {
		if _, err := s.syncPoint(true, nil); err != nil {
			return err
		}
	}
	for stream := int32(0); stream < s.log.Streams(); stream++ {
		if err := s.log.Seal(stream); err != nil {
			return err
		}
	}
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	s.log.Closed = true
	return s.be.close()
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
	// Streams is the per-stream occupancy of routed placement: one entry
	// per configured append stream (2 for the classic user+GC layout) with
	// its live records/bytes, segment counts, and open-segment fill. Use
	// core.WrittenStreams for the historical "streams ever written" count.
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
	// BatchesApplied counts successful multi-record Apply calls.
	BatchesApplied uint64
	// Background reports whether cleaning runs in a background goroutine;
	// Cleaner is its lifecycle snapshot (zero-valued in foreground mode).
	Background bool
	Cleaner    cleaner.Stats
}

// Obs returns the store's metrics registry (always non-nil): the store.*
// and cleaner.* series plus the trace events, snapshottable at any time
// with Registry.Snapshot.
func (s *Store) Obs() *obs.Registry { return s.opts.Obs }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	ls := s.log.Stats()
	st := Stats{
		LivePages:       len(s.table),
		Tombstones:      len(s.tombstones),
		FreeSegments:    ls.FreeSegments,
		SealedSegments:  ls.SealedSegments,
		UserWrites:      s.userWrites,
		GCWrites:        ls.GCWrites,
		SegmentsCleaned: ls.SegmentsCleaned,
		MeanEAtClean:    ls.MeanEAtClean,
		CapacityPages:   s.opts.MaxSegments * s.opts.SegmentPages,
		CapacityBytes:   uint64(s.opts.MaxSegments) * uint64(s.opts.segmentBytes()),
		UserBytes:       s.cUserBytes.Value(),
		GCBytes:         s.cGCBytes.Value(),
		UpdateClock:     s.log.Unow,
		Streams:         ls.Streams,
		Durability:      s.opts.Durability.String(),
		BatchesApplied:  s.batches,
	}
	for _, ss := range ls.Streams {
		st.LiveBytes += uint64(ss.LiveBytes)
	}
	if s.userWrites > 0 {
		st.WriteAmp = float64(ls.GCWrites) / float64(s.userWrites)
	}
	if st.CapacityPages > 0 {
		st.FillFactor = float64(st.LivePages) / float64(st.CapacityPages)
	}
	s.mu.RUnlock()
	st.Commits = s.cCommits.Value()
	st.FsyncRounds = s.cRounds.Value()
	st.Fsyncs = s.cSyncs.Value()
	st.Background, st.Cleaner = s.log.CleanerStats()
	return st
}

// CheckInvariants validates internal consistency (tests): every page-table
// and tombstone-map entry is exactly one written record (same page, offset
// and seq), no page is both live and deleted, and the core's per-segment
// accounting — live records and their real sizes — matches that index
// (seglog.Log.Check).
func (s *Store) CheckInvariants() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	liveCount := make([]int32, s.opts.MaxSegments)
	liveBytes := make([]int64, s.opts.MaxSegments)
	located := len(s.table) // index entries that must be found in a segment
	for page, loc := range s.tombstones {
		if _, live := s.table[page]; live {
			return fmt.Errorf("store: page %d is both live and deleted", page)
		}
		if loc.seg >= 0 { // else a checkpoint-carried deletion: no record
			located++
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
		if s.log.Meta[seg].State == core.SegFree {
			return fmt.Errorf("store: free segment %d is in the unsynced ledger", seg)
		}
	}
	return s.log.Check(liveCount, liveBytes)
}
