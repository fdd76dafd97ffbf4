package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// segOp is one operation of a tornLogs step: a write of n bytes to page id,
// or its deletion (n < 0).
type segOp struct {
	id uint32
	n  int
}

// tornLogs are small logs, each written into one segment, whose last two
// records mix lengths and kinds. A step with one op is a plain
// WritePage/DeletePage; a longer step is one Apply, so its records carry
// batch markers and must appear or vanish together.
var tornLogs = []struct {
	name  string
	steps [][]segOp
}{
	{"tombstone then a short page", [][]segOp{{{1, 10}}, {{2, 64}}, {{3, 0}}, {{2, -1}}, {{4, 33}}}},
	{"batch whose tail is a tombstone and a full page", [][]segOp{{{1, 20}}, {{2, 5}, {1, -1}, {3, 64}}}},
	{"short page then a tombstone, after an intact batch", [][]segOp{{{1, 64}, {2, 1}}, {{3, 7}}, {{1, -1}}}},
}

const (
	tornLogPages = 5 // page ids 0..4 cover every tornLogs op
	tornLogSeg   = 3 // a fresh store's free pool hands out the highest segment id first
)

func tornLogFile(dir string) string { return (&fileBackend{dir: dir}).path(tornLogSeg) }

func tornLogOpts(dir string) Options {
	return Options{Dir: dir, PageSize: 64, SegmentPages: 16, MaxSegments: 4, CleanBatch: 1, FreeLowWater: 2,
		Durability: core.DurCommit}
}

// writeTornLog runs steps against a fresh store in dir and crashes it. It
// returns the bytes of the one segment file written, and per step the file
// offset the step's last record ends at and the page contents from there on.
func writeTornLog(t testing.TB, dir string, steps [][]segOp) (file []byte, ends []int, states []map[uint32][]byte) {
	t.Helper()
	s, err := Open(tornLogOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	state := map[uint32][]byte{}
	for i, step := range steps {
		b := NewBatch()
		for _, op := range step {
			if op.n < 0 {
				b.Delete(op.id)
				delete(state, op.id)
				continue
			}
			v := bytes.Repeat([]byte{byte(16*i) + byte(op.id)}, op.n)
			b.Write(op.id, v)
			state[op.id] = v
		}
		if len(step) == 1 && step[0].n < 0 {
			err = s.DeletePage(step[0].id)
		} else {
			err = s.Apply(b)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		end, err := s.be.size(tornLogSeg)
		if err != nil {
			t.Fatal(err)
		}
		snap := map[uint32][]byte{}
		for id, v := range state {
			snap[id] = v
		}
		ends, states = append(ends, int(end)), append(states, snap)
	}
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	if file, err = os.ReadFile(tornLogFile(dir)); err != nil || len(file) == 0 || len(file) != ends[len(ends)-1] {
		t.Fatalf("segment %d holds %d bytes (err %v), the log ended at %d", tornLogSeg, len(file), err, ends[len(ends)-1])
	}
	return file, ends, states
}

// TestTruncatedSegmentKeepsIntactPrefix cuts each log at every byte offset
// and reopens it: recovery must keep exactly the records that are whole,
// surface exactly the steps that are whole — a batch missing any part of any
// member is discarded with its intact members — and zero-fill short pages.
func TestTruncatedSegmentKeepsIntactPrefix(t *testing.T) {
	for _, tl := range tornLogs {
		t.Run(tl.name, func(t *testing.T) {
			dir := t.TempDir()
			file, ends, states := writeTornLog(t, dir, tl.steps)
			var recEnds []int
			for off := segHeaderSize; off < len(file); {
				_, payload, err := decodeRecord(file[off:], 64)
				if err != nil {
					t.Fatalf("intact log does not decode at %d: %v", off, err)
				}
				off += RecordHeaderSize + len(payload)
				recEnds = append(recEnds, off)
			}
			if n := len(recEnds); n < 2 || recEnds[n-1] != len(file) {
				t.Fatalf("log of %d bytes walks as records ending at %v", len(file), recEnds)
			}
			buf := make([]byte, 64)
			for cut := segHeaderSize; cut <= len(file); cut++ {
				if err := os.WriteFile(tornLogFile(dir), file[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := Open(tornLogOpts(dir))
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				wantRecs, want := 0, map[uint32][]byte{}
				for _, e := range recEnds {
					if e <= cut {
						wantRecs++
					}
				}
				for i, e := range ends {
					if e <= cut {
						want = states[i]
					}
				}
				if got := len(s.recs[tornLogSeg]); got != wantRecs {
					t.Errorf("cut %d: recovered %d records, %d are whole", cut, got, wantRecs)
				}
				for id := uint32(0); id < tornLogPages; id++ {
					for i := range buf {
						buf[i] = 0xEE
					}
					err := s.ReadPage(id, buf)
					if v, live := want[id]; live {
						if err != nil || !bytes.Equal(buf, append(v[:len(v):len(v)], make([]byte, 64-len(v))...)) {
							t.Errorf("cut %d: page %d reads %x (err %v), want %d bytes of %#x then zeros", cut, id, buf, err, len(v), v[:min(1, len(v))])
						}
					} else if !errors.Is(err, ErrNotFound) {
						t.Errorf("cut %d: page %d should be absent, err = %v", cut, id, err)
					}
				}
				checkInvariants(t, s)
				if err := s.crash(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRefusesOtherSegmentFormats: a segment stamped with any other LSSEG
// version must stop Open with an error naming it — never be taken for an
// unrecognised file, i.e. free space to be overwritten.
func TestRefusesOtherSegmentFormats(t *testing.T) {
	for _, magic := range []string{"LSSEG002", "LSSEG001", "LSSEG004"} {
		dir := t.TempDir()
		file, _, _ := writeTornLog(t, dir, tornLogs[0].steps)
		copy(file, magic)
		if err := os.WriteFile(tornLogFile(dir), file, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(tornLogOpts(dir)); err == nil {
			s.crash()
			t.Errorf("a directory holding an %s segment opened", magic)
		} else if !strings.Contains(err.Error(), magic) || !strings.Contains(err.Error(), segMagic) {
			t.Errorf("%s refused with %q, which names neither format", magic, err)
		}
	}
	// A file that is not a segment at all is left alone and stays free space.
	dir := t.TempDir()
	if err := os.WriteFile(tornLogFile(dir), bytes.Repeat([]byte("not a segment "), 8), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(tornLogOpts(dir))
	if err != nil {
		t.Fatalf("foreign file: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.LivePages != 0 || st.FreeSegments != 4 {
		t.Errorf("foreign file recovered as %d pages, %d free segments", st.LivePages, st.FreeSegments)
	}
}

// TestRefusesRoutedStreams: a segment whose header names a stream other than
// user (0) or GC (1) was written under routed placement, and must stop Open
// with an error saying so.
func TestRefusesRoutedStreams(t *testing.T) {
	for _, stream := range []int32{2, 27} {
		dir := t.TempDir()
		file, _, _ := writeTornLog(t, dir, tornLogs[0].steps)
		inc, _, w, ok := decodeSegHeader(file)
		if !ok {
			t.Fatal("writeTornLog wrote no valid segment header")
		}
		encodeSegHeader(file, inc, stream, w)
		if err := os.WriteFile(tornLogFile(dir), file, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(tornLogOpts(dir)); err == nil {
			s.crash()
			t.Errorf("a directory holding a stream-%d segment opened", stream)
		} else if !strings.Contains(err.Error(), "routed placement") {
			t.Errorf("stream-%d segment refused with %q, which does not name routed placement", stream, err)
		}
	}
}

// FuzzRecoverSegment feeds recovery arbitrary bytes after a valid segment
// header, seeded with the tornLogs segments so the mutator works on real
// records: Open must not panic or fail, must not take a record from beyond
// the file, and every page it surfaces must read back — ReadPage re-verifies
// the record's checksum and identity.
func FuzzRecoverSegment(f *testing.F) {
	for _, tl := range tornLogs {
		file, _, _ := writeTornLog(f, f.TempDir(), tl.steps)
		f.Add(file[segHeaderSize:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		file := make([]byte, segHeaderSize, segHeaderSize+len(tail))
		encodeSegHeader(file, 1, 0, 0)
		file = append(file, tail...)
		if err := os.WriteFile(tornLogFile(dir), file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(tornLogOpts(dir))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.crash()
		if n := len(s.recs[tornLogSeg]); n > 0 && int(s.recs[tornLogSeg][n-1].end) > len(file) {
			t.Fatalf("recovered a record ending at %d from a %d-byte file", s.recs[tornLogSeg][n-1].end, len(file))
		}
		buf := make([]byte, 64)
		for id := range s.table {
			if err := s.ReadPage(id, buf); err != nil {
				t.Fatalf("surfaced page %d does not read back: %v", id, err)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecoverySealOrderMatchesLogOrder is the regression test for the
// recovery bug where SealSeq was assigned in segment-id scan order: the
// free list is popped from the back, so id order is typically the REVERSE
// of write order, and a restart handed age-based cleaning an inverted age
// ordering. Recovery must re-seal ordered by header incarnation (log
// order), which makes SealSeq order agree with record-sequence order.
func TestRecoverySealOrderMatchesLogOrder(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SegmentPages = 4
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct pages only: every record stays live, and each sealed
	// segment's minimum record sequence identifies its position in the log.
	for id := uint32(0); id < 40; id++ {
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s2)
	defer s2.Close()

	type seg struct {
		id      int32
		sealSeq uint64
		minSeq  uint64
	}
	var segs []seg
	s2.mu.RLock()
	for id := range s2.meta {
		m := &s2.meta[id]
		if m.State != core.SegSealed || len(s2.recs[id]) == 0 {
			continue
		}
		segs = append(segs, seg{id: int32(id), sealSeq: m.SealSeq, minSeq: slices.Min(s2.recSeqs(t, int32(id)))})
	}
	s2.mu.RUnlock()
	if len(segs) < 5 {
		t.Fatalf("only %d sealed segments recovered", len(segs))
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].sealSeq < segs[j].sealSeq })
	for i := 1; i < len(segs); i++ {
		if segs[i].minSeq < segs[i-1].minSeq {
			t.Fatalf("recovered seal order disagrees with log order: seg %d (SealSeq %d, minSeq %d) after seg %d (SealSeq %d, minSeq %d)",
				segs[i].id, segs[i].sealSeq, segs[i].minSeq,
				segs[i-1].id, segs[i-1].sealSeq, segs[i-1].minSeq)
		}
	}
}

// TestRecoveryClockNeverRegresses: writes after a clean Close and reopen push
// the record sequence past the update clock the Close left, and a kill then
// reopens the store: resuming the clock below the highest record sequence
// would let up2 estimates run ahead of "now".
func TestRecoveryClockNeverRegresses(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0); id < 100; id++ {
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	// Writes after the reopen advance both clocks well past the Close.
	for i := 0; i < 3000; i++ {
		id := uint32(i % 100)
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	s2.mu.RLock()
	unow, seq := s2.unow, s2.seq
	var maxUp2 float64
	for i := range s2.meta {
		if s2.meta[i].Up2 > maxUp2 {
			maxUp2 = s2.meta[i].Up2
		}
	}
	s2.mu.RUnlock()
	if unow < seq {
		t.Errorf("recovered update clock %d below max record sequence %d: clock ran backwards", unow, seq)
	}
	if maxUp2 > float64(unow) {
		t.Errorf("recovered up2 estimate %.1f exceeds update clock %d", maxUp2, unow)
	}
}

// writeAndClose writes n 128-byte pages to a fresh store in dir and closes it.
func writeAndClose(t *testing.T, opts Options, n int) {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0); id < uint32(n); id++ {
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesSegmentsAboveMaxSegments: recovery reads segments below
// MaxSegments only, so reopening a directory with a smaller MaxSegments than
// it was written with must fail, naming the file and the limit, rather than
// come back without the pages those segments hold.
func TestOpenRefusesSegmentsAboveMaxSegments(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	writeAndClose(t, opts, 40) // the free pool hands out the highest segments first
	opts.MaxSegments = 16
	s, err := Open(opts)
	if err == nil {
		live := s.Stats().LivePages
		s.Close()
		t.Fatalf("reopen at MaxSegments 16 succeeded with %d live pages; want an error", live)
	}
	if m := regexp.MustCompile(`(\d{6})\.seg`).FindStringSubmatch(err.Error()); m == nil || m[1] < "000016" ||
		!strings.Contains(err.Error(), "MaxSegments 16") {
		t.Fatalf("error %q does not name a segment file at or above the limit, and the limit", err)
	}
	// The directory is untouched: the MaxSegments it was written with reads it.
	opts.MaxSegments = 64
	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if live := s.Stats().LivePages; live != 40 {
		t.Fatalf("reopen at MaxSegments 64: %d live pages, want 40", live)
	}
}

// TestOpenRefusesACheckpointFile: a directory holding a CHECKPOINT file was
// written by a version that pruned tombstone records and kept the deletions in
// that file; recovery without it could bring a deleted page back, so Open
// refuses the directory by name and leaves it as it was.
func TestOpenRefusesACheckpointFile(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	writeAndClose(t, opts, 40)
	path := filepath.Join(dir, "CHECKPOINT")
	if err := os.WriteFile(path, []byte("LSCKPT01"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(opts)
	if err == nil {
		s.Close()
		t.Fatal("reopen over a CHECKPOINT file succeeded; want an error")
	}
	if !strings.Contains(err.Error(), "CHECKPOINT") {
		t.Fatalf("error %q does not name the CHECKPOINT file", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if live := s.Stats().LivePages; live != 40 {
		t.Fatalf("reopen without the CHECKPOINT file: %d live pages, want 40", live)
	}
}
