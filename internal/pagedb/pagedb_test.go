package pagedb

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/store"
)

// memOpts is a small in-memory geometry that forces splits, merges and
// cleaning quickly: 256-byte pages hold a handful of entries each.
func memOpts() Options {
	return Options{
		Store: store.Options{
			PageSize:     256,
			SegmentPages: 16,
			MaxSegments:  512,
		},
		CachePages: 64,
	}
}

func val(k uint64, version byte) []byte {
	v := make([]byte, 20+int(k%30))
	for i := range v {
		v[i] = byte(k)*7 + version + byte(i)
	}
	return v
}

func TestPutGetScanDelete(t *testing.T) {
	db, err := Open(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}

	const n = 2000
	r := rand.New(rand.NewPCG(1, 1))
	keys := r.Perm(n)
	for _, k := range keys {
		if err := tr.Put(uint64(k), val(uint64(k), 1)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after load: %v", err)
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := tr.Get(k)
		if err != nil || !ok || !bytes.Equal(v, val(k, 1)) {
			t.Fatalf("Get(%d) = (%v, %v, %v)", k, v, ok, err)
		}
	}
	if _, ok, _ := tr.Get(n + 5); ok {
		t.Error("absent key found")
	}

	// Overwrites replace in place.
	for k := uint64(0); k < n; k += 3 {
		if err := tr.Put(k, val(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len changed on overwrite: %d", tr.Len())
	}
	v, _, _ := tr.Get(9)
	if !bytes.Equal(v, val(9, 2)) {
		t.Error("overwrite did not take")
	}

	// Scan visits a range in order.
	var got []uint64
	if err := tr.Scan(500, 600, func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 101 || got[0] != 500 || got[100] != 600 {
		t.Fatalf("Scan[500,600] visited %d keys (%v...)", len(got), got[:min(5, len(got))])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("scan out of order")
		}
	}
	// Early stop.
	calls := 0
	tr.Scan(0, n, func(uint64, []byte) bool { calls++; return calls < 7 })
	if calls != 7 {
		t.Errorf("early-stop scan made %d calls", calls)
	}

	// Delete half, checking merges keep the structure sound.
	for k := uint64(0); k < n; k += 2 {
		ok, err := tr.Delete(k)
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v)", k, ok, err)
		}
	}
	if ok, _ := tr.Delete(0); ok {
		t.Error("double delete reported true")
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", tr.Len(), n/2)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after deletes: %v", err)
	}
	for k := uint64(0); k < n; k++ {
		_, ok, _ := tr.Get(k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v after deletes", k, ok)
		}
	}
}

func TestEvictionFaultingAndCommit(t *testing.T) {
	opts := memOpts()
	opts.CachePages = 8 // brutal: the working set never fits
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	for k := uint64(0); k < n; k++ {
		if err := tr.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
		if k%400 == 399 {
			if err := db.Commit(); err != nil {
				t.Fatalf("Commit at %d: %v", k, err)
			}
		}
	}
	if st := db.Stats(); st.StagedEvictions == 0 {
		t.Error("no dirty evictions staged despite a tiny cache")
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := tr.Get(k)
		if err != nil || !ok || !bytes.Equal(v, val(k, 1)) {
			t.Fatalf("Get(%d) through faulting = (%v, %v)", k, ok, err)
		}
	}
	st := db.Stats()
	// The read-back sweep cannot fit the cache: it must fault pages in from
	// the store (the load phase's misses are served by the pending stage).
	if st.Faults == 0 {
		t.Error("no store faults despite a tiny cache")
	}
	if st.Commits == 0 || st.CommittedPages == 0 {
		t.Errorf("commit counters empty: %+v", st)
	}
	if st.Pool.Capacity != 8 {
		t.Errorf("pool capacity %d", st.Pool.Capacity)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func durableOpts(dir string) Options {
	return Options{
		Store: store.Options{
			Dir:          dir,
			PageSize:     256,
			SegmentPages: 8,
			MaxSegments:  256,
			Durability:   core.DurCommit,
		},
		CachePages: 32,
	}
}

func TestReopenRecoversCommittedState(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.Tree("orders")
	if err != nil {
		t.Fatal(err)
	}
	stock, err := db.Tree("stock")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 500; k++ {
		if err := orders.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		if err := stock.Put(k, val(k, 3)); err != nil {
			t.Fatal(err)
		}
	}
	orders.Delete(7)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	// Post-commit churn that must NOT survive the crash.
	for k := uint64(0); k < 200; k++ {
		orders.Put(k, val(k, 9))
	}
	orders.Put(10000, val(0, 9))
	db.crash()

	db2, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if names := db2.TreeNames(); len(names) != 2 || names[0] != "orders" || names[1] != "stock" {
		t.Fatalf("TreeNames = %v", names)
	}
	orders2, err := db2.Tree("orders")
	if err != nil {
		t.Fatal(err)
	}
	if orders2.Len() != 499 {
		t.Fatalf("orders Len = %d, want 499", orders2.Len())
	}
	for k := uint64(0); k < 500; k++ {
		v, ok, err := orders2.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if k == 7 {
			if ok {
				t.Error("deleted key resurrected")
			}
			continue
		}
		if !ok || !bytes.Equal(v, val(k, 1)) {
			t.Fatalf("orders key %d lost or stale after reopen", k)
		}
	}
	if _, ok, _ := orders2.Get(10000); ok {
		t.Error("uncommitted key survived the crash")
	}
	stock2, _ := db2.Tree("stock")
	if stock2.Len() != 100 {
		t.Fatalf("stock Len = %d", stock2.Len())
	}
	if err := orders2.CheckInvariants(); err != nil {
		t.Fatalf("recovered invariants: %v", err)
	}
	if err := stock2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseCommitsOutstandingChanges(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := db.Tree("t")
	for k := uint64(0); k < 100; k++ {
		tr.Put(k, val(k, 1))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, _, err := tr.Get(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Get on closed DB: %v", err)
	}
	db2, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tr2, _ := db2.Tree("t")
	if tr2.Len() != 100 {
		t.Fatalf("Close did not commit: Len = %d", tr2.Len())
	}
}

func TestDropTreeReclaimsPages(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	keep, _ := db.Tree("keep")
	scratch, _ := db.Tree("scratch")
	for k := uint64(0); k < 400; k++ {
		keep.Put(k, val(k, 1))
		scratch.Put(k, val(k, 2))
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	liveBefore := db.Stats().Store.LivePages
	if err := db.DropTree("scratch"); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	liveAfter := db.Stats().Store.LivePages
	if liveAfter >= liveBefore {
		t.Fatalf("DropTree reclaimed nothing: %d -> %d live pages", liveBefore, liveAfter)
	}
	if _, err := db.Tree(""); err == nil {
		t.Error("empty tree name accepted")
	}
	if err := db.DropTree("scratch"); err == nil {
		t.Error("double drop succeeded")
	}
	if err := scratch.Put(1, val(1, 1)); err == nil {
		t.Error("Put on dropped tree succeeded")
	}

	// The freed ids round-trip through the metadata page and get reused.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	fresh, err := db2.Tree("fresh")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		fresh.Put(k, val(k, 4))
	}
	keep2, _ := db2.Tree("keep")
	if err := keep2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 400; k++ {
		v, ok, err := keep2.Get(k)
		if err != nil || !ok || !bytes.Equal(v, val(k, 1)) {
			t.Fatalf("keep key %d damaged by drop/reuse (ok=%v err=%v)", k, ok, err)
		}
	}
}

// TestFreeListRecoveredFromStore: the free list is not persisted, Open
// derives it from the store — the ids below the next id that the store does
// not hold. Dropping a large tree frees hundreds of ids; after Close and
// reopen, and after reopening a copy of the directory taken while the
// database was open (whose WAL tail replays), the recovered free list is the
// same set, the next id is unchanged, and the allocator reuses recovered ids
// before it mints a fresh one.
func TestFreeListRecoveredFromStore(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.Store.MaxSegments = 2048
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := db.Tree("keep")
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := db.Tree("scratch")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 300; k++ {
		if err := keep.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 2000; k++ {
		if err := scratch.Put(k, val(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DropTree("scratch"); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	freeSet := func(db *DB) map[uint32]bool {
		set := make(map[uint32]bool)
		for _, id := range db.ids.FreeList() {
			set[id] = true
		}
		return set
	}
	freeBefore := freeSet(db)
	nextBefore := db.ids.Next()
	if len(freeBefore) < 200 {
		t.Fatalf("dropping the tree freed only %d ids; too few to exercise recovery", len(freeBefore))
	}
	// Same-length updates allocate nothing; logged and not checkpointed, they
	// are the WAL tail the copy below replays.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 300; k++ {
		if err := tx.Put("keep", k, val(k, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	killed := t.TempDir()
	if err := os.CopyFS(killed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, d := range []string{dir, killed} {
		opts.Store.Dir = d
		db2, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen %s: %v", d, err)
		}
		if got := freeSet(db2); !maps.Equal(got, freeBefore) {
			t.Fatalf("reopen %s: free list of %d ids, want the %d before", d, len(got), len(freeBefore))
		}
		if got := db2.ids.Next(); got != nextBefore {
			t.Fatalf("reopen %s: next page id %d, want %d", d, got, nextBefore)
		}
		keep2, err := db2.Tree("keep")
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 300; k++ {
			if v, ok, err := keep2.Get(k); err != nil || !ok || !bytes.Equal(v, val(k, 3)) {
				t.Fatalf("reopen %s: keep key %d lost its logged update (ok=%v err=%v)", d, k, ok, err)
			}
		}
		// Growing a fresh tree by a few hundred pages may not mint a new id.
		fresh, err := db2.Tree("fresh")
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 800; k++ {
			if err := fresh.Put(k, val(k, 4)); err != nil {
				t.Fatal(err)
			}
		}
		if got := db2.ids.Next(); got != nextBefore {
			t.Fatalf("reopen %s: allocator minted fresh ids (%d -> %d) while recovered ids were free", d, nextBefore, got)
		}
		if got := len(db2.ids.FreeList()); got >= len(freeBefore) {
			t.Fatalf("reopen %s: free list did not shrink under reuse: %d ids", d, got)
		}
		if err := db2.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := checkDirtyTable(db2); err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*Tree{keep2, fresh} {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeleteBorrowsBeforeMerging proves the durable engine's delete path
// rebalances by BORROWING from a richer sibling — upgraded for free by the
// unified core; the old pagedb fork could only merge. The setup makes both
// options legal and checks the borrow is taken: the tree keeps its height
// and both leaves, where a merge would have collapsed the root.
func TestDeleteBorrowsBeforeMerging(t *testing.T) {
	db, err := Open(memOpts()) // 256-byte pages: budget 248, 40 bytes per entry below
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	v30 := func(k uint64) []byte {
		v := make([]byte, 30)
		v[0] = byte(k)
		return v
	}
	// Seven 40-byte entries overflow one leaf (280 > 248) and split it into
	// {0,10,20,30} | {40,50,60} under a fresh root: height 2.
	for k := uint64(0); k <= 60; k += 10 {
		if err := tr.Put(k, v30(k)); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.Height(); h != 2 {
		t.Fatalf("setup height = %d, want 2", h)
	}

	// Shrink the right leaf to one entry (40 bytes, below the 62-byte
	// underflow threshold). The left sibling holds 160 bytes, so BOTH moves
	// are legal: borrow (160*2 > 248) and merge (160+40 <= 248). Borrow must
	// win: height stays 2.
	if _, err := tr.Delete(50); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Delete(60); err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h != 2 {
		t.Fatalf("height after underflow = %d: the delete merged instead of borrowing", h)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after borrow: %v", err)
	}
	// The borrow shifted key 30 from the left sibling: the root's separator
	// moved and every key is still readable.
	root, err := db.node(tr.core.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Kids) != 2 {
		t.Fatalf("root has %d kids after borrow, want 2", len(root.Kids))
	}
	if root.Keys[0] != 30 {
		t.Fatalf("separator after borrow = %d, want 30 (shifted from the left leaf)", root.Keys[0])
	}
	for _, k := range []uint64{0, 10, 20, 30, 40} {
		if _, ok, err := tr.Get(k); err != nil || !ok {
			t.Fatalf("key %d lost by the borrow (ok=%v err=%v)", k, ok, err)
		}
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}

	// Push the left leaf below borrowability (120*2 <= 248): now the merge
	// fires and the root collapses — both rebalancing arms work.
	if _, err := tr.Delete(40); err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h != 1 {
		t.Fatalf("height after merge = %d, want 1", h)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after merge: %v", err)
	}
}

// TestOpenRejectsForeignStore: Open refuses a store that is not a pagedb
// database of this format — pages but no metadata page, a page the metadata
// does not account for (at or above the next id, where the allocator would
// overwrite it), or an older metadata format — naming what it found.
func TestOpenRejectsForeignStore(t *testing.T) {
	sopts := func(dir string) store.Options {
		return store.Options{Dir: dir, PageSize: 256, SegmentPages: 8, MaxSegments: 64}
	}
	// writeStore writes pages straight through the store, under no database.
	writeStore := func(t *testing.T, dir string, pages map[uint32][]byte) {
		t.Helper()
		s, err := store.Open(sopts(dir))
		if err != nil {
			t.Fatal(err)
		}
		for id, img := range pages {
			if err := s.WritePage(id, img); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, dir string)
		want  string
	}{
		{"no-metadata", func(t *testing.T, dir string) {
			writeStore(t, dir, map[uint32][]byte{3: make([]byte, 256)})
		}, "no metadata page"},
		{"page-beyond-next-id", func(t *testing.T, dir string) {
			db, err := Open(Options{Store: sopts(dir)})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := db.Tree("t")
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 100; k++ {
				if err := tr.Put(k, val(k, 1)); err != nil {
					t.Fatal(err)
				}
			}
			next := db.ids.Next()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			writeStore(t, dir, map[uint32][]byte{next + 2: make([]byte, 64)})
		}, "metadata page accounts for"},
		{"metadata-format-3", func(t *testing.T, dir string) {
			// magic | nextID 1 | no trees | no free ids | no overflow | walSeq 0
			img := append([]byte("PGDBMET3"), make([]byte, 24)...)
			img[8] = 1
			writeStore(t, dir, map[uint32][]byte{metaPageID: img})
		}, "obsolete metadata format"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.setup(t, dir)
			db, err := Open(Options{Store: sopts(dir)})
			if err == nil {
				db.Close()
				t.Fatal("Open accepted the store")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open refused with %q, want it to say %q", err, tc.want)
			}
		})
	}
}

// TestOpenRefusesRoutedPlacement: the store under a database refuses each
// routed algorithm, with an error that names it.
func TestOpenRefusesRoutedPlacement(t *testing.T) {
	for _, alg := range []core.Algorithm{core.MultiLogOpt(), core.MultiLog()} {
		opts := memOpts()
		opts.Store.Algorithm = alg
		if db, err := Open(opts); err == nil {
			db.Close()
			t.Errorf("Open accepted routed algorithm %s", alg.Name)
		} else if !strings.Contains(err.Error(), alg.Name) || !strings.Contains(err.Error(), "simulator-only") {
			t.Errorf("Open(%s) refused with %q, which does not name it", alg.Name, err)
		}
	}
}

func TestValueTooLarge(t *testing.T) {
	db, err := Open(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, _ := db.Tree("t")
	if err := tr.Put(1, make([]byte, 200)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Put: %v", err)
	}
	// Boundary: exactly three max-sized entries per page must work.
	maxVal := (db.budget() / 3) - 10
	for k := uint64(0); k < 50; k++ {
		if err := tr.Put(k, make([]byte, maxVal)); err != nil {
			t.Fatalf("max-sized Put(%d): %v", k, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentOperations drives parallel transactions — each goroutine
// owns a key range in a shared tree plus a private tree — through one DB,
// with commits racing the mutators. Run under -race this is the pagedb
// concurrency suite.
func TestConcurrentOperations(t *testing.T) {
	opts := memOpts()
	opts.Store.MaxSegments = 1024
	opts.Store.BackgroundClean = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := db.Tree("shared")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const opsPer = 1500
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			mine, err := db.Tree(fmt.Sprintf("private-%d", w))
			if err != nil {
				errs <- err
				return
			}
			r := rand.New(rand.NewPCG(uint64(w), 99))
			base := uint64(w) * 1_000_000
			for i := 0; i < opsPer; i++ {
				k := base + uint64(r.IntN(500))
				switch r.IntN(10) {
				case 0:
					if err := db.Commit(); err != nil {
						errs <- fmt.Errorf("worker %d commit: %w", w, err)
						return
					}
				case 1, 2:
					if _, _, err := shared.Get(k); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, err := shared.Delete(k); err != nil {
						errs <- err
						return
					}
				case 4:
					n := 0
					if err := shared.Scan(base, base+500, func(uint64, []byte) bool {
						n++
						return n < 50
					}); err != nil {
						errs <- err
						return
					}
				default:
					if err := shared.Put(k, val(k, byte(i))); err != nil {
						errs <- err
						return
					}
					if err := mine.Put(uint64(i), val(uint64(i), 1)); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := shared.CheckInvariants(); err != nil {
		t.Fatalf("shared tree invariants after concurrent run: %v", err)
	}
	for w := 0; w < workers; w++ {
		tr, _ := db.Tree(fmt.Sprintf("private-%d", w))
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("private tree %d: %v", w, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedDBIsGarbageAfterOneGC: nothing outlives Close that keeps the DB
// reachable — a recycling pool the runtime still lists for one more cycle
// after its last Put, say — so one collection frees it and its node cache.
func TestClosedDBIsGarbageAfterOneGC(t *testing.T) {
	for _, c := range []struct {
		name string
		use  func(db *DB) error
	}{
		{"open-close", func(*DB) error { return nil }},
		{"txn", func(db *DB) error {
			x, err := db.Begin()
			if err != nil {
				return err
			}
			if err := x.Put("t", 1, val(1, 1)); err != nil {
				return err
			}
			return x.Commit()
		}},
		{"checkpoint", func(db *DB) error {
			tr, err := db.Tree("t")
			if err != nil {
				return err
			}
			for k := uint64(0); k < 500; k++ {
				if err := tr.Put(k, val(k, 1)); err != nil {
					return err
				}
			}
			return db.Commit()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := func() (weak.Pointer[DB], error) {
				db, err := Open(memOpts())
				if err != nil {
					return weak.Pointer[DB]{}, err
				}
				if err := c.use(db); err != nil {
					return weak.Pointer[DB]{}, err
				}
				return weak.Make(db), db.Close()
			}()
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			if w.Value() != nil {
				t.Fatal("a closed DB survived a garbage collection")
			}
		})
	}
}
