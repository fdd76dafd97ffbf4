package pagedb

import (
	"math/rand/v2"
	"testing"

	"repro/internal/btree"
)

// TestNodeArraysStayWithinFanout is btree's test of the same name on this
// package's NodeStore: the tree is many times its cache, so the stream's
// inserts, borrows and merges land on nodes parsed from storage — into arrays
// exactly as long as the page's entries, or recycled from another page
// (btree.ParseNode) — and checkpoints come and go. No array is ever bigger than
// its page's fan-out at the smallest entry the test writes, plus the entry that
// overflows a page before it splits: a leaf's offsets, a branch's keys and
// children.
func TestNodeArraysStayWithinFanout(t *testing.T) {
	const minLen, maxLen, keySpace = 4, 24, 4000
	opts := memOpts()
	opts.Store.MaxSegments = 2048
	opts.CachePages = 32
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("g")
	if err != nil {
		t.Fatal(err)
	}
	leafFan := db.budget()/btree.PageLayout.LeafEntry(make([]byte, minLen)) + 1
	branchFan := db.budget()/btree.BranchEntryBytes + 1
	fullest := 0
	check := func(step int) {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		db.mu.RLock()
		defer db.mu.RUnlock()
		// Every node, depth first from the root; a branch's kids go on the
		// stack before it is released.
		for ids := []uint32{tr.core.Root()}; len(ids) > 0; {
			n, err := db.node(ids[len(ids)-1])
			if err != nil {
				t.Fatal(err)
			}
			ids = ids[:len(ids)-1]
			if n.Leaf {
				fullest = max(fullest, len(n.Offs))
			} else {
				ids = append(ids, n.Kids...)
			}
			if cap(n.Offs) > leafFan || cap(n.Keys) > branchFan || cap(n.Kids) > branchFan {
				t.Fatalf("step %d: node %d (leaf %v) holds %d/%d entries in %d bytes with arrays of %d/%d/%d: a leaf takes %d entries at most, a branch %d",
					step, n.ID, n.Leaf, len(n.Offs), len(n.Keys), n.NBytes, cap(n.Offs), cap(n.Keys), cap(n.Kids), leafFan, branchFan)
			}
			db.pool.Release(n.Pin)
		}
	}
	r := rand.New(rand.NewPCG(20, 26))
	v := make([]byte, maxLen)
	for step := 0; step < 60000; step++ {
		k := r.Uint64N(keySpace)
		var err error
		switch shrinking := (step/10000)%2 == 1; {
		case shrinking && r.IntN(10) < 8:
			_, err = tr.Delete(k)
		case k < keySpace/4:
			err = tr.Put(k, v[:minLen])
		default:
			err = tr.Put(k, v[:minLen+r.IntN(maxLen-minLen+1)])
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%1000 == 999 {
			check(step)
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.Stats()
	if tr.Height() < 3 || fullest < leafFan-1 || len(db.ids.FreeList()) == 0 || st.Faults < 10000 {
		t.Errorf("height %d, the fullest leaf %d of %d entries, %d pages freed by merges, %d faults: the stream does not exercise the rule",
			tr.Height(), fullest, leafFan-1, len(db.ids.FreeList()), st.Faults)
	}
}
