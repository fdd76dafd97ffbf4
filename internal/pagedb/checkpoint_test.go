package pagedb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/store"
)

// These tests pin the dirty-page life cycle: a dirty page stays decoded —
// resident or parked — until the checkpoint, which encodes it exactly once,
// straight into the store's run buffer, and a checkpoint that fails loses
// nothing.

// dirtySet returns the ids of every page the next checkpoint must write —
// the dirty-page table's nodes — and how many of them are parked.
func dirtySet(db *DB) (set map[uint32]bool, parked int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	set = make(map[uint32]bool)
	for id, n := range db.dirty {
		if n != nil {
			set[id] = true
			if !n.Pin.Current() {
				parked++
			}
		}
	}
	return set, parked
}

// checkDirtyTable asserts the dirty-page table's invariants, under the
// exclusive guard (so with no reader in flight):
//   - each entry is keyed by its node's id;
//   - a nil entry's id is on the allocator's free list, and a node's is not;
//   - outside the table, an id below the next id is free exactly when the
//     store does not hold it: what Open derives the free list from;
//   - no table node is on the retired or free list;
//   - a resident entry (its frame handle current) is the node the pool
//     serves, and a parked entry's page is not resident;
//   - a resident page outside the table is clean: its node encodes to the
//     store's image;
//   - every node on the recycling lists is on them once, and they hold as
//     many as they count; none is resident;
//   - no two pages' nodes — in the table or resident — share a buffer, and no
//     listed node shares one with them.
func checkDirtyTable(db *DB) error {
	db.lock()
	defer db.mu.Unlock()
	free := make(map[uint32]bool)
	for _, id := range db.ids.FreeList() {
		free[id] = true
	}
	onList := listed(db)
	served := func(id uint32) *btree.Node {
		obj, h := db.pool.FetchPinned(id)
		db.pool.Release(h)
		n, _ := obj.(*btree.Node)
		return n
	}
	for id, n := range db.dirty {
		switch {
		case n == nil && !free[id]:
			return fmt.Errorf("page %d is freed in the dirty-page table but not on the free list", id)
		case n == nil:
		case n.ID != id:
			return fmt.Errorf("dirty-page table entry %d holds node %d", id, n.ID)
		case free[id]:
			return fmt.Errorf("page %d is on the free list but has a node in the dirty-page table", id)
		case onList[n] > 0:
			return fmt.Errorf("page %d's dirty node is on the recycling lists", id)
		case n.Pin.Current() && served(id) != n:
			return fmt.Errorf("page %d is resident, but the pool serves another node than the table's", id)
		case !n.Pin.Current() && served(id) != nil:
			return fmt.Errorf("page %d is parked, yet resident", id)
		}
	}
	count := 0
	for n, times := range onList {
		count += times
		switch {
		case times != 1:
			return fmt.Errorf("page %d's old node is on the recycling lists %d times", n.ID, times)
		case served(n.ID) == n:
			return fmt.Errorf("page %d's node is resident and on the recycling lists", n.ID)
		}
	}
	if count != db.listed {
		return fmt.Errorf("the recycling lists hold %d nodes but count %d", count, db.listed)
	}
	owner := make(map[*byte]uint32)
	for id := uint32(metaPageID + 1); id < db.ids.Next(); id++ {
		for _, n := range []*btree.Node{db.dirty[id], served(id)} {
			if n == nil || cap(n.Buf) == 0 {
				continue
			}
			if other, ok := owner[&n.Buf[:1][0]]; ok && other != id {
				return fmt.Errorf("pages %d and %d share a node buffer", other, id)
			}
			owner[&n.Buf[:1][0]] = id
		}
	}
	for n := range onList {
		if cap(n.Buf) == 0 {
			continue
		}
		if id, ok := owner[&n.Buf[:1][0]]; ok {
			return fmt.Errorf("a node on the recycling lists shares page %d's buffer", id)
		}
	}
	for id := uint32(metaPageID + 1); id < db.ids.Next(); id++ {
		if _, ok := db.dirty[id]; !ok && free[id] == db.st.Has(id) {
			return fmt.Errorf("page %d is outside the dirty-page table, free %v and in the store %v", id, free[id], db.st.Has(id))
		}
	}
	for id := uint32(metaPageID + 1); id < db.ids.Next(); id++ {
		if _, ok := db.dirty[id]; ok {
			continue
		}
		n := served(id)
		if n == nil {
			continue
		}
		size, err := n.ImageBytes(db.pageSize)
		if err != nil {
			return fmt.Errorf("clean page %d: %w", id, err)
		}
		img := make([]byte, size)
		btree.EncodeNode(img, n)
		stored, err := db.st.ReadRecord(id, func(sz int) []byte { return make([]byte, sz) })
		if err != nil || !bytes.Equal(img, stored) {
			return fmt.Errorf("page %d is resident and changed (%v), but not in the dirty-page table", id, err)
		}
	}
	return nil
}

// txnPuts writes the given keys through one transaction per 50 keys and
// records them in the oracle.
func txnPuts(t *testing.T, db *DB, oracle map[uint64][]byte, keys []uint64, version byte) {
	t.Helper()
	for len(keys) > 0 {
		n := min(50, len(keys))
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[:n] {
			v := val(k, version)
			if err := tx.Put("t", k, v); err != nil {
				t.Fatal(err)
			}
			oracle[k] = v
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		keys = keys[n:]
	}
}

func checkOracle(t *testing.T, db *DB, oracle map[uint64][]byte) {
	t.Helper()
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(oracle) {
		t.Fatalf("tree holds %d keys, oracle %d", tr.Len(), len(oracle))
	}
	for k, want := range oracle {
		got, ok, err := tr.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = (%x, %v, %v), want %x", k, got, ok, err, want)
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
}

// TestDirtyTableThroughRebalancing drives inserts, then deletes that borrow
// and merge, through a cache that holds the whole tree, checking the table
// every few operations and checkpointing now and then. Nothing is evicted, so
// reads stay right even if the table misses a change; only checkDirtyTable,
// or the reopen at the end, can see it.
func TestDirtyTableThroughRebalancing(t *testing.T) {
	opts := memOpts()
	opts.Store.Dir = t.TempDir()
	opts.CachePages = 1024
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64][]byte)
	rng := rand.New(rand.NewSource(25))
	for i, k := range append(rng.Perm(800), rng.Perm(800)...) {
		key := uint64(k)
		if i < 800 {
			oracle[key] = val(key, 1)
			err = tr.Put(key, oracle[key])
		} else if k%4 != 0 {
			delete(oracle, key)
			_, err = tr.Delete(key)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%40 == 39 {
			if err := checkDirtyTable(db); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if i%300 == 299 {
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.Stats().Pool.Evictions != 0 {
		t.Fatal("the cache evicted: reads no longer show only what is in memory")
	}
	checkOracle(t, db, oracle)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkOracle(t, db, oracle)
}

// TestMarkDirtyIsNotALookup: marking a page dirty is neither a hit nor a
// miss — the pool's counters mean faults over lookups — so a Put into a
// resident one-leaf tree is one lookup, the leaf's Fetch.
func TestMarkDirtyIsNotALookup(t *testing.T) {
	db, err := Open(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4; k++ {
		if err := tr.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.Height(); h != 1 {
		t.Fatalf("height %d, want a lone leaf", h)
	}
	before := db.Stats().Pool
	if err := tr.Put(3, val(3, 2)); err != nil {
		t.Fatal(err)
	}
	after := db.Stats().Pool
	if n := after.Hits + after.Misses - before.Hits - before.Misses; n != 1 {
		t.Errorf("one Put into a resident leaf counted %d lookups, want 1", n)
	}
}

// TestOneEncodePerDirtyPage drives a tree 16 times its cache through many
// evict → re-fault → re-dirty rounds between checkpoints: however often a
// page was evicted, each checkpoint serializes it once. (The workload only
// puts, so nothing is freed and each batch's one non-node member is the
// metadata page.)
func TestOneEncodePerDirtyPage(t *testing.T) {
	opts := memOpts()
	opts.CachePages = 16
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	encodes := db.Obs().Counter("pagedb.node.encodes")
	oracle := make(map[uint64][]byte)
	rng := rand.New(rand.NewSource(16))
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	for round := byte(0); round < 4; round++ {
		before := db.Stats()
		enc0 := encodes.Value()
		for i := 0; i < 3; i++ { // three passes: every leaf is re-dirtied after eviction
			rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
			txnPuts(t, db, oracle, keys, round*3+byte(i))
		}
		mid := db.Stats()
		if _, parked := dirtySet(db); parked == 0 {
			t.Fatal("no dirty node parked despite a tree far larger than its cache")
		}
		if encodes.Value() != enc0 {
			t.Fatalf("round %d: %d nodes encoded outside a checkpoint", round, encodes.Value()-enc0)
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		after := db.Stats()
		nodes := (after.CommittedPages - before.CommittedPages) - (after.Commits - before.Commits)
		if got := encodes.Value() - enc0; got != nodes {
			t.Errorf("round %d: %d encodes for %d node pages committed", round, got, nodes)
		}
		if tree := uint64(16 * opts.CachePages); nodes < tree {
			t.Errorf("round %d: only %d node pages committed, want a tree of ≥ %d", round, nodes, tree)
		}
		if evictions := mid.StagedEvictions - before.StagedEvictions; evictions < 3*nodes {
			t.Errorf("round %d: %d dirty evictions for %d pages: pages were not re-evicted", round, evictions, nodes)
		}
		if set, _ := dirtySet(db); len(set) != 0 {
			t.Errorf("round %d: %d dirty after a successful checkpoint", round, len(set))
		}
	}
	checkOracle(t, db, oracle)
}

// TestCheckpointAllocBudget: a checkpoint allocates its bookkeeping and
// nothing the size of a page — the batch's op and placement tables (an id and
// a length per page, no bytes), the gather slice, the metadata page — because
// every node is encoded straight into the store's run buffer: no arena, no
// staged image, no encode buffer. The encoded bytes are read off the store's own store.user.bytes
// counter, to show what is no longer allocated. File-backed, because the
// memory backend's segments are heap; steady state, so the store is small
// enough that by the measured rounds it is reusing segments (every round
// rewrites every leaf, so its victims are empty). The minimum of four rounds
// is the cost; anything above it is another test's leftover goroutine
// allocating.
func TestCheckpointAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	const pageSize = 4096
	db, err := Open(Options{
		Store:      store.Options{Dir: t.TempDir(), PageSize: pageSize, SegmentPages: 128, MaxSegments: 24},
		CachePages: 256, // most of the dirty set is parked, the rest resident
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	oracle := make(map[uint64][]byte)
	keys := make([]uint64, 30000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	written := db.Obs().Counter("store.user.bytes")
	best, bestPages, bestEncoded := 0.0, uint64(0), 0.0
	for round := byte(0); round < 14; round++ {
		txnPuts(t, db, oracle, keys, round)
		before, bytesBefore := db.Stats(), written.Value()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		pages := db.Stats().CommittedPages - before.CommittedPages
		if pages < 500 {
			t.Fatalf("checkpoint wrote %d pages, the budget wants ≥ 500", pages)
		}
		if round < 10 {
			continue // the load, then every segment's first use: maps and record tables grow once
		}
		if perPage := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(pages); best == 0 || perPage < best {
			// Puts only: every record of the batch is one committed page.
			best, bestPages, bestEncoded = perPage, pages, float64(written.Value()-bytesBefore)/float64(pages)-24
		}
	}
	const budget = 160
	t.Logf("checkpoint of %d pages allocated %.0f B per committed page (budget %d; mean encoded page %.0f B of %d)",
		bestPages, best, budget, bestEncoded, pageSize)
	if best > budget {
		t.Errorf("checkpoint allocated %.0f B per committed page, budget is %d", best, budget)
	}
	if bestEncoded > 0.8*pageSize {
		t.Errorf("mean encoded page is %.0f B of %d: the run no longer has the slack the budget is about", bestEncoded, pageSize)
	}
	checkOracle(t, db, oracle)
}

// TestFailedCheckpointLosesNothing: when the store has no room for the
// checkpoint batch, Commit fails with ErrFull and changes nothing — every
// key reads back, the dirty set is what it was — and once the batch fits
// (a scratch tree that never reached the store is dropped, which shrinks
// the dirty set without costing a tombstone) the retry commits the rest.
func TestFailedCheckpointLosesNothing(t *testing.T) {
	opts := Options{
		Store: store.Options{
			Dir: t.TempDir(), PageSize: 256, SegmentPages: 8, MaxSegments: 144,
			CleanBatch: 2, FreeLowWater: 4,
		},
		CachePages:  32,
		CacheShards: 2,
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64][]byte)
	keys := make([]uint64, 1500)
	for i := range keys {
		keys[i] = uint64(i) * 3
	}
	txnPuts(t, db, oracle, keys, 1)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	txnPuts(t, db, oracle, keys, 2) // every leaf dirty again: some resident, most parked
	scratch, err := db.Tree("scratch")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4000; k++ {
		if err := scratch.Put(k, val(k, 9)); err != nil {
			t.Fatal(err)
		}
	}
	want, parked := dirtySet(db)
	if parked == 0 || parked == len(want) {
		t.Fatalf("want both parked and dirty-resident pages, have %d dirty of which %d parked", len(want), parked)
	}

	before := db.Stats()
	encodes := db.Obs().Counter("pagedb.node.encodes")
	enc0 := encodes.Value()
	if err := db.Commit(); !errors.Is(err, store.ErrFull) {
		t.Fatalf("Commit of %d pages into a store with %d free segments = %v, want ErrFull", len(want), before.Store.FreeSegments, err)
	}
	if n := encodes.Value() - enc0; n != 0 {
		t.Errorf("the refused checkpoint encoded %d nodes; its batch should never have been filled", n)
	}
	checkOracle(t, db, oracle) // parks dirty pages and faults them back from the table, takes none out of it
	if err := scratch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, _ := dirtySet(db)
	if len(got) != len(want) {
		t.Fatalf("dirty set %d pages after the failed checkpoint, was %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("page %d left the dirty set in a failed checkpoint", id)
		}
	}
	if st := db.Stats(); st.Commits != before.Commits || st.CommittedPages != before.CommittedPages {
		t.Errorf("failed checkpoint counted: %d commits, %d pages (were %d, %d)", st.Commits, st.CommittedPages, before.Commits, before.CommittedPages)
	}

	if err := db.DropTree("scratch"); err != nil {
		t.Fatal(err)
	}
	rest, _ := dirtySet(db)
	if len(rest) == 0 || len(rest) >= len(want) {
		t.Fatalf("dropping the scratch tree left %d of %d pages dirty", len(rest), len(want))
	}
	if err := db.Commit(); err != nil {
		t.Fatalf("Commit retry of %d pages: %v", len(rest), err)
	}
	if set, _ := dirtySet(db); len(set) != 0 {
		t.Errorf("%d pages still dirty after the retry", len(set))
	}
	if nodes, tombs := encodes.Value()-enc0, db.Stats().Store.Tombstones; nodes != uint64(len(rest)) || tombs != 0 {
		t.Errorf("retry wrote %d node pages and %d tombstones, want the %d dirty ones and none", nodes, tombs, len(rest))
	}
	checkOracle(t, db, oracle)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkOracle(t, db, oracle)
	if names := db.TreeNames(); len(names) != 1 {
		t.Errorf("reopened trees %v, want only t", names)
	}
}

// TestFailedFsyncFailsEveryLaterCheckpoint: a failed segment fsync poisons the
// store, so the checkpoint it failed and every later one fail with it, and each
// keeps the dirty-page table: every key reads back, every dirty page is still
// in the table. The failure is a real one: one segment file is the null
// device, which takes writes and refuses fsync. With that file gone, a reopen
// recovers every committed transaction from the log.
func TestFailedFsyncFailsEveryLaterCheckpoint(t *testing.T) {
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Skip(err)
	}
	serr := null.Sync()
	null.Close()
	if serr == nil {
		t.Skip("fsync of the null device succeeds here: no failure to inject")
	}
	opts := Options{
		Store: store.Options{
			Dir: t.TempDir(), PageSize: 256, SegmentPages: 8, MaxSegments: 32,
			CleanBatch: 2, FreeLowWater: 4, Durability: core.DurCommit,
		},
		CachePages:  32,
		CacheShards: 2,
	}
	// The store opens the highest free segment first: this is the eighth.
	bad := filepath.Join(opts.Store.Dir, "000024.seg")
	if err := os.Symlink(os.DevNull, bad); err != nil {
		t.Skip(err)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64][]byte)
	keys := make([]uint64, 60)
	commits := 0
	for v := byte(1); commits < 2; v++ {
		if v > 60 {
			t.Fatal("no checkpoint reached the null segment: the geometry is miscalibrated")
		}
		for i := range keys {
			keys[i] = uint64(v)*1000 + uint64(i)*7
		}
		txnPuts(t, db, oracle, keys, v)
		want, _ := dirtySet(db)
		err := db.Commit()
		if err == nil && commits == 0 {
			continue
		}
		if commits++; !errors.Is(err, syscall.EINVAL) {
			t.Fatalf("checkpoint %d after the failed fsync: %v, want the fsync's error", commits, err)
		}
		got, _ := dirtySet(db)
		for id := range want {
			if !got[id] {
				t.Fatalf("page %d left the dirty table in a failed checkpoint", id)
			}
		}
		checkOracle(t, db, oracle)
	}
	if err := db.Close(); !errors.Is(err, syscall.EINVAL) {
		t.Fatalf("Close of a poisoned store: %v, want the fsync's error", err)
	}
	if err := os.Remove(bad); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkOracle(t, db, oracle)
}
