package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
)

// Seeded oracle test: rounds of writes at every length from 0 to PageSize,
// deletes, batches, forced cleanings and (on disk) crash- or close-reopens must always
// agree with an in-memory map — every ReadPage compared byte for byte,
// including the zero fill past the length a page was written at — and leave
// the per-segment byte accounting consistent, on both backends, and on disk
// at every durability level. STORE_QUICK_SEEDS=n widens the sweep from 8 seeds
// to n; a case's pinned seeds run as named subtests whatever the sweep: each
// once lost an acknowledged batch, a victim reset while another member of a
// batch it held was still unsynced.
func TestQuickRandomOpsWithRecovery(t *testing.T) {
	seeds := quickSeeds(t, 8)
	for _, c := range []struct {
		name   string
		disk   bool
		dur    core.Durability
		pinned []uint64
	}{{"file", true, core.DurNone, nil}, {"memory", false, core.DurNone, nil}, {"file-commit", true, core.DurCommit, nil},
		{"file-seal", true, core.DurSeal, []uint64{243, 363, 573, 772}}} {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range c.pinned {
				t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { randomOpsRun(t, seed, t.TempDir(), c.dur) })
			}
			idle := 0 // seeds whose last store never cleaned
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				dir := ""
				if c.disk {
					dir = t.TempDir()
				}
				if !randomOpsRun(t, seed, dir, c.dur) {
					idle++
				}
			}
			// A seed's last store writes on until it cleans (randomOpsRun), so
			// a sweep where a quarter never do is miscalibrated.
			if idle*4 > seeds {
				t.Errorf("cleaning never ran in %d of %d seeds", idle, seeds)
			}
		})
	}
}

// randomOpsRun runs one seed of the oracle drill and reports whether its last
// store (since the last reopen) cleaned. A reopened store holds no dead
// segment to clean at once (a released victim is truncated), so one reopened
// late in the rounds may not clean again within them: after the rounds it
// writes on until a cycle has run, then reads everything back once more.
func randomOpsRun(t *testing.T, seed uint64, dir string, dur core.Durability) bool {
	const pages, pageSize = 120, 64 // well under the 48*8=384 page capacity
	opts := Options{
		Dir: dir, PageSize: pageSize, SegmentPages: 8, MaxSegments: 48,
		CleanBatch: 4, FreeLowWater: 6, Durability: dur,
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	defer func() { s.Close() }()
	r := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	oracle := map[uint32][]byte{}
	mk := func(id uint32) []byte {
		n := r.IntN(pageSize + 1)
		switch r.IntN(8) {
		case 0:
			n = 0
		case 1:
			n = pageSize
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(int(id)*7 + r.IntN(251) + i)
		}
		return b
	}
	fail := func(round, op int, what string, err error) {
		t.Helper()
		t.Fatalf("seed %d round %d op %d: %s: %v", seed, round, op, what, err)
	}
	verify := func(round int) {
		buf := make([]byte, pageSize)
		for id := uint32(0); id < pages; id++ {
			for i := range buf {
				buf[i] = 0xEE // stale bytes the zero fill must overwrite
			}
			want, live := oracle[id]
			err := s.ReadPage(id, buf)
			if live {
				if err != nil || !bytes.Equal(buf[:len(want)], want) || !bytes.Equal(buf[len(want):], make([]byte, pageSize-len(want))) {
					fail(round, -1, fmt.Sprintf("page %d (%d bytes) reads back %x", id, len(want), buf), err)
				}
			} else if !errors.Is(err, ErrNotFound) {
				fail(round, -1, fmt.Sprintf("page %d should be absent", id), err)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			fail(round, -1, "invariants", err)
		}
	}
	for round := 0; round < 10; round++ {
		for op := 0; op < 250; op++ {
			id := uint32(r.IntN(pages))
			switch r.IntN(12) {
			case 0: // delete
				err := s.DeletePage(id)
				if _, live := oracle[id]; live {
					if err != nil {
						fail(round, op, "delete of a live page", err)
					}
					delete(oracle, id)
				} else if !errors.Is(err, ErrNotFound) {
					fail(round, op, "delete of a missing page", err)
				}
			case 1: // crash or clean close, then reopen
				if dir == "" {
					continue // a memory store has nothing to reopen
				}
				if r.IntN(2) == 0 {
					if err := s.Close(); err != nil {
						fail(round, op, "close", err)
					}
				} else if err := s.crash(); err != nil {
					fail(round, op, "crash", err)
				}
				if s, err = Open(opts); err != nil {
					fail(round, op, "reopen", err)
				}
				if err := s.CheckInvariants(); err != nil {
					fail(round, op, "invariants after reopen", err)
				}
			case 2: // manual cleaning
				if _, err := s.CleanOnce(); err != nil {
					fail(round, op, "clean", err)
				}
			case 3, 4: // batch: writes and deletes, a delete only of what exists by then
				b, pending := NewBatch(), map[uint32][]byte{}
				for n := 2 + r.IntN(7); n > 0; n-- {
					id := uint32(r.IntN(pages))
					v, staged := pending[id]
					if !staged {
						v = oracle[id]
					}
					if v != nil && r.IntN(4) == 0 {
						b.Delete(id)
						pending[id] = nil
					} else {
						v = mk(id)
						b.Write(id, v)
						pending[id] = v
					}
				}
				if err := s.Apply(b); err != nil {
					fail(round, op, "apply", err)
				}
				for id, v := range pending {
					if v == nil {
						delete(oracle, id)
					} else {
						oracle[id] = v
					}
				}
			default: // write
				v := mk(id)
				if err := s.WritePage(id, v); err != nil {
					fail(round, op, "write", err)
				}
				oracle[id] = v
			}
		}
		verify(round)
	}
	if s.Stats().SegmentsCleaned == 0 {
		for op := 0; op < 2000 && s.Stats().SegmentsCleaned == 0; op++ {
			id := uint32(r.IntN(pages))
			v := mk(id)
			if err := s.WritePage(id, v); err != nil {
				fail(10, op, "write", err)
			}
			oracle[id] = v
		}
		verify(10)
	}
	return s.Stats().SegmentsCleaned > 0
}

// The same oracle drill on the in-memory backend with every cleaning
// algorithm the store accepts (no router, no exact rates), exercising
// policy-specific relocation paths.
func TestQuickAlgorithmsOnStore(t *testing.T) {
	for _, alg := range append(core.Figure5Set(), core.CostBenefitLiteral(), core.MDCNoSepUser(), core.MDCNoSepUserGC()) {
		if alg.Router != nil || alg.Exact {
			continue
		}
		t.Run(alg.Name, func(t *testing.T) {
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
					t.Fatalf("page %d mismatch under %s: %v", id, alg.Name, err)
				}
			}
			if st := s.Stats(); st.SegmentsCleaned == 0 {
				t.Errorf("%s: cleaning never ran", alg.Name)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}
