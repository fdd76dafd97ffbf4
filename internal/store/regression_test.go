package store

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
)

// TestRegressionTombstonePruneResurrection replays the exact quick-check
// seed that exposed a recovery bug: pruning a tombstone RECORD used to also
// forget the deletion, so a crash could resurrect the page from a stale data
// record in a not-yet-reused segment. Tombstones are no longer pruned, only
// relocated; the replay, with a clean Close where it once checkpointed,
// verifies the whole oracle after every reopen.
func TestRegressionTombstonePruneResurrection(t *testing.T) {
	seed := uint64(0x420e3ebf8d51afbd)
	dir := t.TempDir()
	opts := Options{
		Dir: dir, PageSize: 64, SegmentPages: 8, MaxSegments: 48,
		CleanBatch: 4, FreeLowWater: 6,
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	oracle := map[uint32][]byte{}
	mk := func(id uint32, v int) []byte {
		b := make([]byte, 64)
		for i := range b {
			b[i] = byte(int(id)*7 + v + i)
		}
		return b
	}
	const pages = 120
	var history []string
	for op := 0; op < 2500; op++ {
		id := uint32(r.IntN(pages))
		switch r.IntN(10) {
		case 0:
			err := s.DeletePage(id)
			if _, live := oracle[id]; live {
				if err != nil {
					t.Fatalf("op %d delete live %d: %v", op, id, err)
				}
				delete(oracle, id)
				history = append(history, "del-live")
			} else if !errors.Is(err, ErrNotFound) {
				for _, h := range history {
					t.Log(h)
				}
				t.Fatalf("op %d delete missing %d: err=%v", op, id, err)
			} else {
				history = append(history, "del-miss")
			}
			if id == 73 {
				history = append(history, "^^ id73")
			}
		case 1:
			closed := r.IntN(2) == 0
			if closed {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			} else if err := s.crash(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, s2)
			s = s2
			history = append(history, map[bool]string{true: "close+reopen", false: "reopen"}[closed])
			// verify immediately after reopen
			buf := make([]byte, 64)
			for vid := uint32(0); vid < pages; vid++ {
				want, live := oracle[vid]
				err := s.ReadPage(vid, buf)
				if live && (err != nil || !bytes.Equal(buf, want)) {
					t.Fatalf("op %d after reopen: page %d bad: %v", op, vid, err)
				}
				if !live && !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d after reopen: page %d resurrected (err=%v)", op, vid, err)
				}
			}
		case 2:
			if _, err := s.CleanOnce(); err != nil {
				t.Fatal(err)
			}
			history = append(history, "clean")
		default:
			v := mk(id, op)
			if err := s.WritePage(id, v); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
			oracle[id] = v
			history = append(history, "write")
		}
	}
}
