package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
)

func pagePattern(size int, id uint32, version byte) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(id)*31 + version + byte(i)
	}
	return p
}

func TestBatchApplyBasic(t *testing.T) {
	s, err := Open(Options{PageSize: 64, SegmentPages: 4, MaxSegments: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Writes, an in-batch overwrite (last wins), and a delete of a page
	// written earlier in the same batch.
	b := NewBatch().
		Write(1, pagePattern(64, 1, 1)).
		Write(2, pagePattern(64, 2, 1)).
		Write(1, pagePattern(64, 1, 2)).
		Write(3, pagePattern(64, 3, 1)).
		Delete(3)
	if err := s.Apply(b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	buf := make([]byte, 64)
	if err := s.ReadPage(1, buf); err != nil || !bytes.Equal(buf, pagePattern(64, 1, 2)) {
		t.Errorf("page 1 = %v (err %v), want in-batch overwrite to win", buf[:4], err)
	}
	if err := s.ReadPage(2, buf); err != nil || !bytes.Equal(buf, pagePattern(64, 2, 1)) {
		t.Errorf("page 2 wrong (err %v)", err)
	}
	if err := s.ReadPage(3, buf); !errors.Is(err, ErrNotFound) {
		t.Errorf("page 3 after in-batch delete: err = %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.BatchesApplied != 1 {
		t.Errorf("BatchesApplied = %d, want 1", st.BatchesApplied)
	}

	// The batch copies page data at Write time: mutating the caller's
	// buffer afterwards must not leak into the store.
	data := pagePattern(64, 7, 1)
	b2 := NewBatch().Write(7, data)
	for i := range data {
		data[i] = 0xEE
	}
	if err := s.Apply(b2); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPage(7, buf); err != nil || !bytes.Equal(buf, pagePattern(64, 7, 1)) {
		t.Errorf("page 7 saw the caller's buffer mutation (err %v)", err)
	}

	// Deleting a page that exists nowhere fails the whole batch before
	// anything is applied.
	b3 := NewBatch().Write(10, pagePattern(64, 10, 1)).Delete(999)
	if err := s.Apply(b3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Apply with bad delete: err = %v, want ErrNotFound", err)
	}
	if err := s.ReadPage(10, buf); !errors.Is(err, ErrNotFound) {
		t.Errorf("page 10 visible after failed batch: err = %v", err)
	}

	// A page over the page size fails the whole batch atomically too.
	b4 := NewBatch().Write(11, pagePattern(64, 11, 1)).Write(12, make([]byte, 65))
	if err := s.Apply(b4); err == nil {
		t.Fatal("Apply with an oversized page succeeded")
	}
	if err := s.ReadPage(11, buf); !errors.Is(err, ErrNotFound) {
		t.Errorf("page 11 visible after failed batch: err = %v", err)
	}

	// Empty and nil batches are no-ops.
	if err := s.Apply(NewBatch()); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := s.Apply(nil); err != nil {
		t.Errorf("nil batch: %v", err)
	}
}

// TestBatchFillAndLateDeletes covers the two things a checkpoint-shaped
// batch relies on: pages produced at Apply time, straight into the run buffer
// (Reserve + SetFill), apply like copied ones, and the existence tracking that
// starts at the first Delete knows the writes before it.
func TestBatchFillAndLateDeletes(t *testing.T) {
	s, err := Open(Options{PageSize: 64, SegmentPages: 4, MaxSegments: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WritePage(50, pagePattern(64, 50, 1)); err != nil {
		t.Fatal(err)
	}
	// The fill function sees each reserved write once, in order, by its
	// position in the batch, with exactly the reserved bytes to write.
	pages := map[int][]byte{0: pagePattern(64, 1, 1), 1: pagePattern(64, 2, 1), 2: pagePattern(64, 3, 1)}
	var filled []int
	fill := func(i int, dst []byte) {
		filled = append(filled, i)
		if len(dst) != len(pages[i]) {
			t.Errorf("fill %d handed %d bytes, reserved %d", i, len(dst), len(pages[i]))
		}
		copy(dst, pages[i])
	}
	b := NewBatch()
	b.SetFill(fill)
	b.Reserve(1, 64).Reserve(2, 64).Reserve(3, 64)
	b.Write(4, pagePattern(64, 4, 1))
	b.Delete(3)  // written above: the lazily built existence map must know it
	b.Delete(50) // exists only in the store
	b.Write(3, pagePattern(64, 3, 2))
	b.Delete(2)
	if err := s.Apply(b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(filled) != 3 || filled[0] != 0 || filled[1] != 1 || filled[2] != 2 {
		t.Errorf("fill called for positions %v, want [0 1 2]", filled)
	}
	buf := make([]byte, 64)
	for id, version := range map[uint32]byte{1: 1, 3: 2, 4: 1} {
		if err := s.ReadPage(id, buf); err != nil || !bytes.Equal(buf, pagePattern(64, id, version)) {
			t.Errorf("page %d wrong after Apply (err %v)", id, err)
		}
	}
	for _, id := range []uint32{2, 50} {
		if err := s.ReadPage(id, buf); !errors.Is(err, ErrNotFound) {
			t.Errorf("page %d after in-batch delete: err = %v, want ErrNotFound", id, err)
		}
	}
	// Deleted earlier in the batch, so a second delete finds nothing.
	bad := NewBatch().Write(9, pagePattern(64, 9, 1)).Delete(9).Delete(9)
	if err := s.Apply(bad); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete in one batch: err = %v, want ErrNotFound", err)
	}
	// A batch that fails validation never reaches its fill function: a
	// reservation over the page size is refused like an oversized Write, and
	// so is one with no fill function to produce it.
	filled = filled[:0]
	b.Reset()
	pages[0] = pagePattern(64, 11, 1)
	if err := s.Apply(b.Reserve(11, 64).Reserve(12, 65)); err == nil {
		t.Error("Apply with a 65-byte reservation succeeded")
	}
	if err := s.Apply(NewBatch().Reserve(11, 64)); err == nil {
		t.Error("Apply of a reserved write with no fill function succeeded")
	}
	if len(filled) != 0 || s.Has(11) {
		t.Errorf("a refused batch filled %v / wrote page 11", filled)
	}
	// Reset keeps the fill function; a short page is stored at its length and
	// ReadPage zero-fills it, ReadRecord returns it as stored.
	b.Reset()
	pages[0] = pagePattern(64, 11, 1)[:10]
	if err := s.Apply(b.Reserve(11, 10)); err != nil {
		t.Fatalf("Apply with a 10-byte reservation: %v", err)
	}
	want := append(pagePattern(64, 11, 1)[:10:10], make([]byte, 54)...)
	if err := s.ReadPage(11, buf); err != nil || !bytes.Equal(buf, want) {
		t.Errorf("short page reads back %x (err %v), want %x", buf, err, want)
	}
	var mine []byte
	page, err := s.ReadRecord(11, func(size int) []byte {
		mine = bytes.Repeat([]byte{0xEE}, size+5)
		return mine
	})
	if err != nil || !bytes.Equal(page, want[:10]) || cap(page) != 10 || len(mine) != 24+10+5 || &page[0] != &mine[24] {
		t.Errorf("ReadRecord = %x (cap %d, err %v) in a %d-byte buffer, want the 10 stored bytes, in place", page, cap(page), err, len(mine))
	}
	if _, err := s.ReadRecord(2, func(int) []byte { t.Error("buffer requested for a missing page"); return nil }); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadRecord of a deleted page: %v", err)
	}
	checkInvariants(t, s)
}

func TestBatchErrFullNoPartialVisibility(t *testing.T) {
	s, err := Open(Options{PageSize: 64, SegmentPages: 4, MaxSegments: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Fill with distinct live pages until the store refuses more: no
	// garbage means cleaning cannot help a batch that needs fresh space.
	var filled uint32
	for {
		if err := s.WritePage(filled, pagePattern(64, filled, 1)); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("fill write: %v", err)
			}
			break
		}
		filled++
	}
	if filled < 8 {
		t.Fatalf("store filled after only %d pages", filled)
	}
	before := s.Stats()

	// A big batch mixing overwrites of live pages with brand-new pages:
	// the whole-batch reservation must fail, and even the overwrites —
	// which a per-op path would have applied — must stay invisible.
	b := NewBatch()
	for i := uint32(0); i < 3; i++ {
		b.Write(i, pagePattern(64, i, 9))
	}
	for i := uint32(0); i < 32; i++ {
		b.Write(10000+i, pagePattern(64, i, 9))
	}
	if err := s.Apply(b); !errors.Is(err, ErrFull) {
		t.Fatalf("oversized batch: err = %v, want ErrFull", err)
	}

	buf := make([]byte, 64)
	for i := uint32(0); i < 3; i++ {
		if err := s.ReadPage(i, buf); err != nil || !bytes.Equal(buf, pagePattern(64, i, 1)) {
			t.Errorf("page %d changed by failed batch (err %v)", i, err)
		}
	}
	for i := uint32(0); i < 32; i++ {
		if err := s.ReadPage(10000+i, buf); !errors.Is(err, ErrNotFound) {
			t.Errorf("new page %d visible after failed batch: err = %v", 10000+i, err)
		}
	}
	after := s.Stats()
	if after.UserWrites != before.UserWrites || after.LivePages != before.LivePages {
		t.Errorf("failed batch moved counters: before %+v after %+v", before, after)
	}

	// A second failed batch behaves the same way — the failure path
	// leaves no residue that would corrupt later attempts — and reads
	// keep working throughout.
	if err := s.Apply(NewBatch().Write(20000, pagePattern(64, 0, 9))); !errors.Is(err, ErrFull) {
		t.Fatalf("second oversized batch: err = %v, want ErrFull", err)
	}
	if err := s.ReadPage(filled-1, buf); err != nil {
		t.Errorf("read after failed batches: %v", err)
	}
}

func TestBatchDurCommitConcurrentCommitters(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Dir:             dir,
		PageSize:        128,
		SegmentPages:    16,
		MaxSegments:     96,
		Durability:      core.DurCommit,
		BackgroundClean: true,
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const batches = 24
	const perBatch = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := NewBatch()
			for i := 0; i < batches; i++ {
				b.Reset()
				for k := 0; k < perBatch; k++ {
					id := uint32(w*1000 + k)
					page := pagePattern(128, id, byte(i))
					binary.LittleEndian.PutUint32(page, uint32(i))
					b.Write(id, page)
				}
				if err := s.Apply(b); err != nil {
					t.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Commits < writers*batches {
		t.Errorf("Commits = %d, want >= %d (every Apply waits for durability)", st.Commits, writers*batches)
	}
	if st.FsyncRounds == 0 {
		t.Errorf("no fsync rounds despite DurCommit: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Every writer's last batch must be fully recovered.
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	buf := make([]byte, 128)
	for w := 0; w < writers; w++ {
		for k := 0; k < perBatch; k++ {
			id := uint32(w*1000 + k)
			if err := s2.ReadPage(id, buf); err != nil {
				t.Fatalf("ReadPage(%d) after recovery: %v", id, err)
			}
			if got := binary.LittleEndian.Uint32(buf); got != batches-1 {
				t.Errorf("page %d recovered version %d, want %d", id, got, batches-1)
			}
		}
	}
}

// TestBatchDurCommitForegroundRounds is the foreground sibling of
// TestBatchDurCommitConcurrentCommitters, with cleaning cycles inside Apply:
// every Apply is one commit, and a commit runs at most one fsync round —
// each round is run by one committer, and it claims s.seq at or past that
// committer's target — so 1 ≤ FsyncRounds ≤ Commits. A cycle's sync point
// is not a round. How many rounds concurrent committers share is timing, so
// no coalescing is asserted. Stats reads the store.commit.* counters.
func TestBatchDurCommitForegroundRounds(t *testing.T) {
	s, err := Open(Options{
		Dir:          t.TempDir(),
		PageSize:     128,
		SegmentPages: 16,
		MaxSegments:  96,
		Durability:   core.DurCommit,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, batches, perBatch = 4, 64, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := NewBatch()
			for i := 0; i < batches; i++ {
				b.Reset()
				for k := 0; k < perBatch; k++ {
					id := uint32(w*1000 + k)
					b.Write(id, pagePattern(128, id, byte(i)))
				}
				if err := s.Apply(b); err != nil {
					t.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Commits != writers*batches {
		t.Errorf("Commits = %d, want %d (one per Apply)", st.Commits, writers*batches)
	}
	if st.FsyncRounds < 1 || st.FsyncRounds > st.Commits {
		t.Errorf("FsyncRounds = %d, want in [1, Commits = %d]", st.FsyncRounds, st.Commits)
	}
	if st.SegmentsCleaned == 0 {
		t.Errorf("no segment cleaned: the run never put a cycle's sync point beside the rounds")
	}
	c := s.Obs().Snapshot().Counters
	if c["store.commit.commits"] != st.Commits || c["store.commit.rounds"] != st.FsyncRounds || c["store.commit.syncs"] != st.Fsyncs {
		t.Errorf("store.commit.* counters %d/%d/%d, Stats %d/%d/%d",
			c["store.commit.commits"], c["store.commit.rounds"], c["store.commit.syncs"], st.Commits, st.FsyncRounds, st.Fsyncs)
	}
	t.Logf("%d commits, %d fsync rounds, %d fsyncs, %d segments cleaned", st.Commits, st.FsyncRounds, st.Fsyncs, st.SegmentsCleaned)
}

// tornBatchSetup builds a file-backed DurCommit store whose final writes
// are one 5-record batch spanning two segments, crashes it, and returns
// the dir plus the disk locations of the batch's records ordered by batch
// position.
func tornBatchSetup(t *testing.T) (opts Options, recs []tornRec) {
	t.Helper()
	opts = Options{
		Dir:          t.TempDir(),
		PageSize:     64,
		SegmentPages: 4,
		MaxSegments:  32,
		Durability:   core.DurCommit,
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(1); id <= 5; id++ {
		if err := s.WritePage(id, pagePattern(64, id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBatch()
	for id := uint32(1); id <= 5; id++ {
		b.Write(id, pagePattern(64, id, 2))
	}
	if err := s.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}

	// Locate the batch records on disk: scan every segment file for
	// flagBatch records of the newest batch (highest start seq).
	var bestStart uint64
	byPos := map[uint32]tornRec{}
	files, err := filepath.Glob(filepath.Join(opts.Dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for off, recSize := segHeaderSize, 0; off < len(data); off += recSize {
			h, payload, err := decodeRecord(data[off:], opts.PageSize)
			if err != nil {
				break
			}
			recSize = RecordHeaderSize + len(payload)
			if h.flags&flagBatch == 0 {
				continue
			}
			start := h.seq - uint64(h.pos)
			if start > bestStart {
				bestStart = start
				byPos = map[uint32]tornRec{}
			}
			if start == bestStart {
				byPos[h.pos] = tornRec{file: f, off: off, size: recSize}
			}
		}
	}
	if len(byPos) != 5 {
		t.Fatalf("found %d batch records on disk, want 5", len(byPos))
	}
	segs := map[string]bool{}
	for pos := uint32(0); pos < 5; pos++ {
		r, ok := byPos[pos]
		if !ok {
			t.Fatalf("batch position %d missing on disk", pos)
		}
		segs[r.file] = true
		recs = append(recs, r)
	}
	if len(segs) < 2 {
		t.Fatalf("batch landed in %d segment(s), test needs it to span two", len(segs))
	}
	return opts, recs
}

type tornRec struct {
	file string
	off  int
	size int
}

// corrupt simulates a record that never reached storage by destroying its
// CRC in place.
func (r tornRec) corrupt(t *testing.T) {
	t.Helper()
	f, err := os.OpenFile(r.file, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	crc := make([]byte, 4)
	if _, err := f.ReadAt(crc, int64(r.off+16)); err != nil {
		t.Fatal(err)
	}
	for i := range crc {
		crc[i] ^= 0xFF
	}
	if _, err := f.WriteAt(crc, int64(r.off+16)); err != nil {
		t.Fatal(err)
	}
}

func TestTornDurCommitBatchNeverSurfacesPartially(t *testing.T) {
	cases := []struct {
		name    string
		corrupt int // batch position to destroy; -1 leaves the batch intact
		want    byte
	}{
		{"intact batch is fully visible", -1, 2},
		{"first member torn, later members survive on disk", 0, 1},
		{"middle member torn", 2, 1},
		{"terminal member torn", 4, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts, recs := tornBatchSetup(t)
			if tc.corrupt >= 0 {
				recs[tc.corrupt].corrupt(t)
			}
			s, err := Open(opts)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer s.Close()
			// All-or-nothing: every page shows the same version — the
			// batch's on an intact log, the pre-batch one on a torn log.
			buf := make([]byte, 64)
			for id := uint32(1); id <= 5; id++ {
				if err := s.ReadPage(id, buf); err != nil {
					t.Fatalf("ReadPage(%d): %v", id, err)
				}
				if !bytes.Equal(buf, pagePattern(64, id, tc.want)) {
					t.Errorf("page %d: wrong version surfaced after recovery (want v%d)", id, tc.want)
				}
			}
			// The store keeps working; discarded slots are just garbage.
			if err := s.WritePage(6, pagePattern(64, 6, 3)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCommittedBatchSurvivesMemberGarbageCollection is the other side of
// the torn-batch coin: batch commit markers are permanent, but the
// sibling records proving completeness can legitimately disappear when
// the cleaner recycles a segment holding a superseded member. A durably
// committed, acknowledged batch must then still surface its live members
// — the recovered commit watermark (segment headers + checkpoint), not
// member counting, is what proves it committed.
func TestCommittedBatchSurvivesMemberGarbageCollection(t *testing.T) {
	run := func(t *testing.T, dur core.Durability, crash bool) {
		opts := Options{
			Dir:          t.TempDir(),
			PageSize:     64,
			SegmentPages: 4,
			MaxSegments:  16,
			CleanBatch:   2,
			FreeLowWater: 3,
			Durability:   dur,
		}
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Straddle a segment boundary: 3 singles, then a 2-record batch.
		for id := uint32(1); id <= 3; id++ {
			if err := s.WritePage(id, pagePattern(64, id, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Apply(NewBatch().Write(100, pagePattern(64, 100, 1)).Write(200, pagePattern(64, 200, 1))); err != nil {
			t.Fatal(err)
		}
		// Supersede member 0 (page 100) and churn until foreground
		// cleaning has recycled its original segment; page 200's record
		// keeps its batch markers but loses its sibling.
		for i := 0; i < 400; i++ {
			id := uint32(1 + i%4)
			if i%4 == 3 {
				id = 100
			}
			if err := s.WritePage(id, pagePattern(64, id, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Stats().SegmentsCleaned; got == 0 {
			t.Fatal("churn did not trigger cleaning; the scenario needs segment reuse")
		}
		if crash {
			if err := s.crash(); err != nil {
				t.Fatal(err)
			}
		} else if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(opts)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		checkInvariants(t, s2)
		defer s2.Close()
		buf := make([]byte, 64)
		if err := s2.ReadPage(200, buf); err != nil {
			t.Fatalf("acknowledged batch member lost after restart: %v", err)
		}
		if !bytes.Equal(buf, pagePattern(64, 200, 1)) {
			t.Error("page 200 recovered with wrong contents")
		}
	}
	// DurCommit proves commits through the flush-backed watermark even
	// across a crash; the weaker levels rely on the checkpoint watermark
	// across a clean restart.
	t.Run("DurCommit crash", func(t *testing.T) { run(t, core.DurCommit, true) })
	t.Run("DurCommit clean close", func(t *testing.T) { run(t, core.DurCommit, false) })
	t.Run("DurNone clean close", func(t *testing.T) { run(t, core.DurNone, false) })
	t.Run("DurSeal clean close", func(t *testing.T) { run(t, core.DurSeal, false) })
}

func TestStoreSyncFlushesWeakerLevels(t *testing.T) {
	if _, err := Open(Options{Durability: core.Durability(99)}); err == nil {
		t.Error("invalid durability level accepted")
	}

	// Explicit Sync flushes on a DurNone store and survives crash+recover.
	opts := Options{Dir: t.TempDir(), PageSize: 64, SegmentPages: 4, MaxSegments: 32}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(1); id <= 6; id++ {
		if err := s.WritePage(id, pagePattern(64, id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.FsyncRounds == 0 {
		t.Errorf("Sync ran no flush round: %+v", st)
	}
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s2)
	if got := s2.Stats().LivePages; got != 6 {
		t.Errorf("recovered %d pages after explicit Sync, want 6", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// Sync and Apply on a closed store are observable errors.
	if err := s2.Sync(); err == nil {
		t.Error("Sync on closed store succeeded")
	}
	if err := s2.Apply(NewBatch().Write(1, pagePattern(64, 1, 1))); err == nil {
		t.Error("Apply on closed store succeeded")
	}
}

func TestStreamOccupancyStats(t *testing.T) {
	s, err := Open(Options{PageSize: 64, SegmentPages: 8, MaxSegments: 64, Algorithm: core.MDCRouted()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A two-temperature workload: a hot set rewritten constantly and a
	// cold set written once.
	for id := uint32(0); id < 120; id++ {
		if err := s.WritePage(id, pagePattern(64, id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		id := uint32(i % 8)
		if err := s.WritePage(id, pagePattern(64, id, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.Streams) < 2 {
		t.Fatalf("Streams has %d entries, want one per configured stream", len(st.Streams))
	}
	totalLive, totalSegs, written := 0, 0, 0
	for i, ss := range st.Streams {
		totalLive += ss.Live
		totalSegs += ss.Segments
		if ss.Written {
			written++
		}
		if ss.OpenFill < 0 || ss.OpenFill > 1 {
			t.Errorf("stream %d OpenFill = %v", i, ss.OpenFill)
		}
		if ss.OpenSegments == 0 && ss.OpenFill != 0 {
			t.Errorf("stream %d reports fill %v with no open segment", i, ss.OpenFill)
		}
		if int64(ss.Live)*(RecordHeaderSize+64) != ss.LiveBytes { // every page is written full
			t.Errorf("stream %d LiveBytes %d inconsistent with Live %d", i, ss.LiveBytes, ss.Live)
		}
	}
	if want := st.LivePages + st.Tombstones; totalLive != want {
		t.Errorf("sum of per-stream Live = %d, want %d", totalLive, want)
	}
	if totalSegs == 0 {
		t.Error("no segments attributed to any stream")
	}
	if written < 2 {
		t.Errorf("only %d streams marked Written for a hot/cold workload", written)
	}
	if fmt.Sprint(core.WrittenStreams(st.Streams)) != fmt.Sprint(written) {
		t.Errorf("WrittenStreams disagrees with Written flags")
	}
}
