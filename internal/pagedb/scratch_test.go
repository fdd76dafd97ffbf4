package pagedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/store"
)

// emptyScratch reports what a recycled scratch still carries of the
// transaction that returned it: nothing may be left, least of all a value
// pointer the pool would keep alive.
func emptyScratch(sc *txnScratch) error {
	if len(sc.ops) != 0 || len(sc.vals) != 0 || sc.overlaid != 0 || len(sc.writes) != 0 || len(sc.dropped) != 0 {
		return fmt.Errorf("recycled scratch holds %d ops (%d overlaid), %d staged value bytes, %d staged writes, %d dropped trees",
			len(sc.ops), sc.overlaid, len(sc.vals), len(sc.writes), len(sc.dropped))
	}
	for i, op := range sc.ops[:cap(sc.ops)] {
		if op.Value != nil || op.Tree != "" {
			return fmt.Errorf("recycled scratch: op slot %d still references tree %q, a %d-byte value", i, op.Tree, len(op.Value))
		}
	}
	return nil
}

// TestRecycledScratchIsNeverShared: two goroutines loop Begin / Put / Get /
// Scan / Commit-or-Rollback on trees of their own, every value tagged with its
// writer and transaction, and check at each step that the transaction holds
// exactly the ops it staged and reads back exactly its own values; a third
// keeps calling every method of handles the two have finished with. Each such
// call must answer ErrTxnDone and touch nothing — the scratch a finished
// handle used is some live transaction's by then, so a call that reached it
// would show up as a foreign op (and, under -race, as a race). Scratch drawn
// from the pool meanwhile and afterwards must be empty.
func TestRecycledScratchIsNeverShared(t *testing.T) {
	db, err := Open(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	tag := func(w, i, j int) []byte {
		v := make([]byte, 12+j)
		binary.LittleEndian.PutUint32(v, uint32(w))
		binary.LittleEndian.PutUint32(v[4:], uint32(i))
		binary.LittleEndian.PutUint32(v[8:], uint32(j))
		return v
	}
	finished := make(chan *Txn, 16)
	var workers, prober sync.WaitGroup
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			tree := fmt.Sprintf("w%d", w)
			for i := 0; i < rounds; i++ {
				x, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				puts := 1 + i%7
				for j := 0; j < puts; j++ {
					if err := x.Put(tree, uint64(j), tag(w, i, j)); err != nil {
						t.Error(err)
						return
					}
				}
				n := puts
				if i%5 == 0 {
					if _, err := x.Delete(tree, 0); err != nil {
						t.Error(err)
						return
					}
					n++
				}
				for j := 1; j < puts; j++ {
					v, ok, err := x.Get(tree, uint64(j))
					if err != nil || !ok || string(v) != string(tag(w, i, j)) {
						t.Errorf("worker %d txn %d: Get(%d) = %x, %v, %v: not what this transaction staged", w, i, j, v, ok, err)
						return
					}
				}
				seen := 0
				if err := x.Scan(tree, 0, 100, func(k uint64, v []byte) bool {
					seen++
					if binary.LittleEndian.Uint32(v) != uint32(w) {
						t.Errorf("worker %d txn %d: Scan key %d: %x is another writer's", w, i, k, v)
					}
					return true
				}); err != nil {
					t.Error(err)
					return
				}
				if len(x.ops) != n || seen > 7 {
					t.Errorf("worker %d txn %d staged %d ops and holds %d; its scan saw %d keys", w, i, n, len(x.ops), seen)
					return
				}
				for _, op := range x.ops {
					if op.Tree != tree || op.Value != nil && binary.LittleEndian.Uint32(op.Value[4:]) != uint32(i) {
						t.Errorf("worker %d txn %d holds a foreign op: %+v", w, i, op)
						return
					}
				}
				if i%3 == 0 {
					err = x.Rollback()
				} else {
					err = x.Commit()
				}
				if err != nil {
					t.Error(err)
					return
				}
				finished <- x
			}
		}(w)
	}
	prober.Add(1)
	go func() {
		defer prober.Done()
		var kept []*Txn
		probe := func(x *Txn) {
			_, _, gerr := x.Get("w0", 1)
			_, derr := x.Delete("w1", 1)
			for _, err := range []error{
				x.Put("w0", 1, []byte("late")), gerr, derr, x.DropTree("w1"),
				x.Scan("w0", 0, 100, func(uint64, []byte) bool { return true }),
				x.Commit(), x.Rollback(),
			} {
				if !errors.Is(err, ErrTxnDone) {
					t.Errorf("a call on a finished transaction returned %v, want ErrTxnDone", err)
				}
			}
			if x.txnScratch != nil {
				t.Error("a finished transaction still holds its scratch")
			}
		}
		for x := range finished {
			probe(x)
			if kept = append(kept, x); len(kept) == 8 {
				for _, old := range kept { // long after their scratch moved on
					probe(old)
				}
				kept = kept[:0]
				if sc := db.drawScratch(); sc != nil {
					if err := emptyScratch(sc); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}()
	workers.Wait()
	close(finished)
	prober.Wait()
	for sc := db.drawScratch(); sc != nil; sc = db.drawScratch() {
		if err := emptyScratch(sc); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 2; w++ {
		tr, err := db.Tree(fmt.Sprintf("w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
			if binary.LittleEndian.Uint32(v) != uint32(w) || string(v) == "late" {
				t.Errorf("tree w%d key %d holds %x", w, k, v)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTxnScanWithNothingStagedInRange: a Scan that has no staged key to merge
// — the transaction wrote elsewhere: another tree, another range — is the
// committed state's scan and allocates nothing (it used to build and sort a
// key slice regardless).
func TestTxnScanWithNothingStagedInRange(t *testing.T) {
	db, err := Open(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10; k++ {
		if err := tr.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	x, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer x.Rollback()
	if err := errors.Join(x.Put("u", 3, val(3, 2)), x.Put("t", 50, val(50, 2))); err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	base := val(3, 1)
	scan := func() {
		keys = keys[:0]
		if err := x.Scan("t", 0, 9, func(k uint64, v []byte) bool {
			keys = append(keys, k)
			return k != 3 || bytes.Equal(v, base)
		}); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if fmt.Sprint(keys) != "[0 1 2 3 4 5 6 7 8 9]" {
		t.Fatalf("scan saw %v", keys)
	}
	if allocs := testing.AllocsPerRun(100, scan); allocs != 0 && !raceEnabled {
		t.Errorf("a scan with nothing staged in range allocates %v times", allocs)
	}
	if err := x.Put("t", 4, val(4, 2)); err != nil { // and with something to merge, it merges
		t.Fatal(err)
	}
	n := 0
	if err := x.Scan("t", 0, 9, func(k uint64, v []byte) bool {
		n++
		if k == 4 && !bytes.Equal(v, val(4, 2)) {
			t.Errorf("key 4 reads %x, want the staged %x", v, val(4, 2))
		}
		return true
	}); err != nil || n != 10 {
		t.Fatalf("merged scan saw %d keys, %v", n, err)
	}
}

// TestCommitAllocBudget: a warm transaction allocates what outlives it and
// nothing else. On a file-backed DB, Begin/Put/Commit updating one 100-byte
// value with another of its length is one allocation, the Txn (32 B): the value
// is staged in recycled scratch and copied over the old one's bytes. So are
// twelve such updates, and twelve puts that insert their keys or change their
// values' length: those move bytes inside the leaf's buffer, which has the
// room. The op list, the staged values, the WAL records, the spans and the
// tree apply are all on recycled memory.
func TestCommitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	db, err := Open(Options{Store: store.Options{Dir: t.TempDir(), SegmentPages: 64, MaxSegments: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// The recycled scratch lives in a sync.Pool, whose per-P private slot no
	// other P draws from. On two Ps a measured round can draw a scratch the
	// warm-up never grew — after the goroutine moves to the other P, or a GC
	// shifts the sync.Pool's contents into the runtime's victim cache — and
	// its regrowth, about 6 KB, is 13 B per measured transaction. On one P (as
	// in AllocsPerRun) every draw takes the scratch the warm-up grew.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	v := make([]byte, 100)
	odd := false
	// txn returns a transaction of puts 100-byte values to their own tree, a
	// lone leaf; insert deletes the keys first (directly, allocating nothing),
	// shrink makes every other transaction's values 90 bytes long.
	txn := func(tree string, puts int, insert, shrink bool) func() {
		tr, err := db.Tree(tree)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			odd = !odd
			n := len(v)
			if shrink && odd {
				n = 90
			}
			for k := 0; insert && k < puts; k++ {
				if _, err := tr.Delete(uint64(k)); err != nil {
					t.Fatal(err)
				}
			}
			x, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < puts; k++ {
				v[0]++
				if err := x.Put(tree, uint64(k), v[:n]); err != nil {
					t.Fatal(err)
				}
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name          string
		run           func()
		allocs, bytes int
	}{
		{"1-put update", txn("u1", 1, false, false), 1, 40},
		{"12-put update", txn("u12", 12, false, false), 1, 40},
		{"12-put insert", txn("ins", 12, true, false), 1, 40},
		{"12-put length change", txn("len", 12, false, true), 1, 40},
	} {
		run := c.run
		// Collect the earlier cases' garbage now, not in the measured window.
		runtime.GC()
		for i := 0; i < 200; i++ { // warm: keys present, WAL buffer, scratch and spans grown
			run()
		}
		const rounds = 500
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		perTxn := float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
		allocs := testing.AllocsPerRun(rounds, run)
		t.Logf("%s: %.0f B in %.0f allocations (budget %d B in %d)", c.name, perTxn, allocs, c.bytes, c.allocs)
		if perTxn > float64(c.bytes) || allocs > float64(c.allocs) {
			t.Errorf("%s allocates %.0f B in %.0f allocations, budget is %d B in %d", c.name, perTxn, allocs, c.bytes, c.allocs)
		}
	}
}

// TestTxnDeleteCopiesNothing: a transaction's Delete of a present key only
// looks for it: Begin, twelve such deletes and Rollback allocate the Txn
// alone, with the op list and the overlay on recycled memory.
func TestTxnDeleteCopiesNothing(t *testing.T) {
	db, err := Open(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: see TestCommitAllocBudget
	oracle := make(map[uint64][]byte)
	keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	txnPuts(t, db, oracle, keys, 1)
	run := func() {
		x, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if ok, err := x.Delete("t", k); err != nil || !ok {
				t.Fatalf("Delete(%d) = %v, %v", k, ok, err)
			}
		}
		x.Rollback()
	}
	run() // warm: the scratch's op list and overlay grown
	if allocs := testing.AllocsPerRun(100, run); allocs > 1 && !raceEnabled {
		t.Errorf("Begin, %d deletes of present keys and Rollback allocate %v times, want 1 (the Txn)", len(keys), allocs)
	}
}

// TestTxnScanMergeAgainstOracle: random committed keys, random staged puts and
// deletes over them, random ranges and early stops — Txn.Scan visits exactly
// what a map of the merged state says, in order, staged values over committed
// ones, and nothing after fn says stop.
func TestTxnScanMergeAgainstOracle(t *testing.T) {
	db, err := Open(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(3, 1))
	merged := make(map[uint64][]byte)
	for i := 0; i < 60; i++ {
		k := r.Uint64N(200)
		merged[k] = val(k, 1)
		if err := tr.Put(k, merged[k]); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 300; round++ {
		x, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		view := maps.Clone(merged)
		for i := r.IntN(12); i > 0; i-- {
			k := r.Uint64N(200)
			if r.IntN(3) == 0 {
				_, err = x.Delete("t", k)
				delete(view, k)
			} else {
				view[k] = val(k, 2)
				err = x.Put("t", k, view[k])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		from := r.Uint64N(200)
		to := from + r.Uint64N(120)
		var want []uint64
		for k := range view {
			if k >= from && k <= to {
				want = append(want, k)
			}
		}
		slices.Sort(want)
		if stop := r.IntN(2 + len(want)); stop < len(want) {
			want = want[:stop+1] // fn refuses after the key at stop
		}
		var got []uint64
		if err := x.Scan("t", from, to, func(k uint64, v []byte) bool {
			got = append(got, k)
			if !bytes.Equal(v, view[k]) {
				t.Errorf("round %d: key %d reads %x, want %x", round, k, v, view[k])
			}
			return len(got) < len(want)
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: scan [%d, %d] visited %v, want %v", round, from, to, got, want)
		}
		if err := x.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}
