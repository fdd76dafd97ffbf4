package pagedb

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/store"
)

// TestFusedReadPathHammer races fused readers against a committing writer
// over a cache small enough that every traversal evicts: the scenario where
// a frame's decoded node, its pin and its eviction all interleave. It
// checks three things the fused design must guarantee:
//
//  1. No stale node: each reader tracks the newest version it has seen per
//     key; the single writer only moves versions forward, so a reader
//     observing a version REGRESS has read a stale image over a dirty
//     eviction (the lost-update window parking in the dirty-page table closes).
//  2. No lost mutation: after the writer quiesces, every key must be at the
//     final version — a MarkDirty swallowed by a round trip through the
//     dirty-page table (parked, then faulted back) would leave an old
//     version behind.
//  3. Pin balance: the periodic auditor (CheckPinBalance) and the final
//     check both demand zero pinned frames between operations; a leaked pin
//     would exempt its frame from eviction forever. Both also assert the
//     dirty-page table's invariants (checkDirtyTable).
//
// Run with -race.
func TestFusedReadPathHammer(t *testing.T) {
	opts := memOpts()
	opts.CachePages = 32 // a few frames per shard: constant refaulting
	opts.CacheShards = 4
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("fused")
	if err != nil {
		t.Fatal(err)
	}
	const nkeys = 300
	for k := uint64(0); k < nkeys; k++ {
		if err := tr.Put(k, mkval(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var fmu sync.Mutex
	var firstErr error
	fail := func(err error) {
		fmu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		fmu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed))
			seen := make(map[uint64]byte, nkeys)
			var buf []byte
			for {
				select {
				case <-done:
					return
				default:
				}
				k := rng.Uint64N(nkeys)
				var ok bool
				var gerr error
				buf, ok, gerr = tr.GetInto(k, buf)
				if gerr != nil || !ok {
					fail(fmt.Errorf("GetInto(%d) = (%v, %v)", k, ok, gerr))
					return
				}
				if err := checkVal(k, buf); err != nil {
					fail(err)
					return
				}
				if v := buf[8]; v < seen[k] {
					fail(fmt.Errorf("key %d regressed from version %d to %d (stale node read)", k, seen[k], v))
					return
				} else {
					seen[k] = v
				}
			}
		}(uint64(g + 1))
	}
	wg.Add(1)
	go func() { // pin-balance auditor: runs between operations by design
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := db.CheckPinBalance(); err != nil {
				fail(err)
				return
			}
			if err := checkDirtyTable(db); err != nil {
				fail(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const finalVersion = 6
	for version := byte(1); version <= finalVersion; version++ {
		for k := uint64(0); k < nkeys; k++ {
			if err := tr.Put(k, mkval(k, version)); err != nil {
				t.Fatalf("Put(%d, v%d): %v", k, version, err)
			}
		}
		if err := db.Commit(); err != nil {
			t.Fatalf("Commit v%d: %v", version, err)
		}
	}
	close(done)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// No lost mutation: every key reads back at the final version.
	for k := uint64(0); k < nkeys; k++ {
		v, ok, err := tr.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%d) after quiesce = (%v, %v)", k, ok, err)
		}
		if v[8] != finalVersion {
			t.Fatalf("key %d stuck at version %d, want %d (lost mutation)", k, v[8], finalVersion)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckPinBalance(); err != nil {
		t.Fatal(err)
	}
	if err := checkDirtyTable(db); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Pool.FusedHits == 0 {
		t.Error("hammer recorded no fused hits")
	}
	if st.StagedEvictions == 0 {
		t.Error("hammer recorded no staged evictions; the cache was not small enough")
	}
}

// TestDupFaultsCounted: concurrent misses on one page must coalesce on the
// fault mutex — one ReadPage+decode, the rest counted as avoided
// duplicates. Byte-level determinism is hard to force, so this only checks
// the counter plumbing end to end: stats and the refault gauge agree.
func TestDupFaultsCounted(t *testing.T) {
	opts := memOpts()
	opts.CachePages = 16
	opts.CacheShards = 1 // one fault mutex: easiest to pile up on
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("dup")
	if err != nil {
		t.Fatal(err)
	}
	const nkeys = 2000
	for k := uint64(0); k < nkeys; k++ {
		if err := tr.Put(k, mkval(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for k := uint64(0); k < nkeys; k++ {
				var ok bool
				var err error
				buf, ok, err = tr.GetInto(k, buf)
				if err != nil || !ok {
					t.Errorf("GetInto(%d) = (%v, %v)", k, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := db.Stats()
	t.Logf("faults=%d dupFaultsAvoided=%d", st.Faults, st.DupFaultsAvoided)
	if st.Faults == 0 {
		t.Fatal("no faults at all; the cache was not small enough")
	}
}

// TestBranchesStayResident: under random point reads on a checkpointed tree
// sixteen times its cache, every read descends through a branch page and
// faults a leaf. The pool's use count keeps the branches, hit on every
// descent, ahead of the leaves, hit about once: after the warm-up no branch
// page leaves the pool, so no fault lands on one. A 1-bit CLOCK fails this:
// it evicts a branch not hit since the hand last passed it.
func TestBranchesStayResident(t *testing.T) {
	const cache = 128
	db, err := Open(Options{
		Store:      store.Options{PageSize: 2048, SegmentPages: 64, MaxSegments: 4096},
		CachePages: cache, CacheShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	oracle := make(map[uint64][]byte)
	keys := make([]uint64, 64)
	for next := uint64(0); db.ids.Next() < 16*cache; next += uint64(len(keys)) {
		for i := range keys {
			keys[i] = next + uint64(i)
		}
		txnPuts(t, db, oracle, keys, 0)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	// The eviction callback is wrapped before any read: the test is the pool's
	// only user, so there is no concurrent use to race the swap.
	var branches, evictions int
	db.pool.SetEvict(func(id uint32, obj any) {
		if !obj.(*btree.Node).Leaf {
			branches++
		}
		evictions++
		db.evicted(id, obj)
	})
	rng := rand.New(rand.NewPCG(34, 34))
	read := func(n int) {
		t.Helper()
		for range n {
			k := rng.Uint64N(uint64(len(oracle)))
			if v, ok, err := tr.Get(k); err != nil || !ok || !bytes.Equal(v, oracle[k]) {
				t.Fatalf("Get(%d) = %x, %v, %v; want %x", k, v, ok, err, oracle[k])
			}
		}
	}
	read(20 * cache) // warm-up: the branches fault in once
	branches, evictions = 0, 0
	read(200 * cache)
	if evictions < 100*cache {
		t.Fatalf("%d evictions in %d reads: the tree is not spilling", evictions, 200*cache)
	}
	if branches != 0 {
		t.Errorf("%d of %d evictions took a branch page, want 0", branches, evictions)
	}
}
