package store

import (
	"bytes"
	"errors"
	"os"
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
