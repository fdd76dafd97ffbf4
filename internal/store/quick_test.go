package store

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// Randomized oracle test: a sequence of writes, deletes, cleanings and
// crash-reopens driven by testing/quick must always agree with an in-memory
// map.
func TestQuickRandomOpsWithRecovery(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		dir := t.TempDir()
		opts := Options{
			Dir: dir, PageSize: 64, SegmentPages: 8, MaxSegments: 48,
			CleanBatch: 4, FreeLowWater: 6,
		}
		s, err := Open(opts)
		if err != nil {
			t.Logf("open: %v", err)
			return false
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
		const pages = 120 // well under the 48*8=384 capacity
		for op := 0; op < 2500; op++ {
			id := uint32(r.IntN(pages))
			switch r.IntN(10) {
			case 0: // delete
				err := s.DeletePage(id)
				if _, live := oracle[id]; live {
					if err != nil {
						t.Logf("delete live: %v", err)
						return false
					}
					delete(oracle, id)
				} else if !errors.Is(err, ErrNotFound) {
					t.Logf("delete missing: %v", err)
					return false
				}
			case 1: // crash + reopen, occasionally after a checkpoint
				if r.IntN(2) == 0 {
					if err := s.Checkpoint(); err != nil {
						t.Logf("checkpoint: %v", err)
						return false
					}
				}
				if err := s.crash(); err != nil {
					t.Logf("crash: %v", err)
					return false
				}
				s2, err := Open(opts)
				if err != nil {
					t.Logf("reopen: %v", err)
					return false
				}
				if err := s2.CheckInvariants(); err != nil {
					t.Logf("after reopen: %v", err)
					return false
				}
				s = s2
			case 2: // manual cleaning
				if _, err := s.CleanOnce(); err != nil {
					t.Logf("clean: %v", err)
					return false
				}
			default: // write
				v := mk(id, op)
				if err := s.WritePage(id, v); err != nil {
					t.Logf("write: %v", err)
					return false
				}
				oracle[id] = v
			}
		}
		// Full oracle comparison.
		buf := make([]byte, 64)
		for id := uint32(0); id < pages; id++ {
			want, live := oracle[id]
			err := s.ReadPage(id, buf)
			if live {
				if err != nil || !bytes.Equal(buf, want) {
					t.Logf("page %d mismatch: %v", id, err)
					return false
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Logf("page %d should be absent: %v", id, err)
				return false
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		return s.Close() == nil
	}, &quick.Config{MaxCount: 12})
	if err != nil {
		t.Error(err)
	}
}

// The same oracle drill on the in-memory backend with every supported
// cleaning algorithm, exercising policy-specific relocation paths.
func TestQuickAlgorithmsOnStore(t *testing.T) {
	for _, algName := range []string{"age", "greedy", "cost-benefit", "MDC", "MDC-no-sep-user-GC"} {
		algName := algName
		t.Run(algName, func(t *testing.T) {
			alg, err := core.ByName(algName)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{
				PageSize: 64, SegmentPages: 8, MaxSegments: 48,
				CleanBatch: 4, FreeLowWater: 6, Algorithm: alg,
			}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			r := rand.New(rand.NewPCG(7, 7))
			oracle := map[uint32][]byte{}
			for op := 0; op < 6000; op++ {
				id := uint32(r.IntN(150))
				v := make([]byte, 64)
				v[0], v[1] = byte(id), byte(op)
				if err := s.WritePage(id, v); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				oracle[id] = v
			}
			buf := make([]byte, 64)
			for id, want := range oracle {
				if err := s.ReadPage(id, buf); err != nil || !bytes.Equal(buf, want) {
					t.Fatalf("page %d mismatch under %s: %v", id, algName, err)
				}
			}
			if st := s.Stats(); st.SegmentsCleaned == 0 {
				t.Errorf("%s: cleaning never ran", algName)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}
