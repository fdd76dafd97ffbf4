package btree

import (
	"math/rand/v2"
	"testing"

	"repro/internal/bufferpool"
)

// TestNodeArraysStayWithinFanout: however a node's arrays grow — an insert, a
// split's new sibling, a borrow, a merge — none is ever given room for more
// entries than its page could take: the fan-out at the smallest entry the test
// writes, plus the one entry that overflows a page before it splits. The
// stream grows the tree, overwrites with longer and shorter values, shrinks it
// through borrows and merges and grows it again, and keeps one band of keys at
// the smallest value so that leaves there fill to the fan-out: append's
// doubling gives such a leaf room for half as many entries again.
func TestNodeArraysStayWithinFanout(t *testing.T) {
	const pageSize, minLen, maxLen, keySpace = 512, 4, 24, 6000
	pool := bufferpool.New(1 << 20)
	tr := New(pool, pageSize)
	c := tr.core
	leafFan := c.budget/c.layout.LeafEntry(make([]byte, minLen)) + 1
	branchFan := c.budget/c.layout.BranchEntryBytes + 1
	fullest := 0
	check := func(step int) {
		t.Helper()
		if err := c.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, n := range tr.store.nodes {
			if n == nil {
				continue
			}
			fan := branchFan
			if n.Leaf {
				fan = leafFan
				fullest = max(fullest, len(n.Offs))
			}
			if got := max(cap(n.Keys), cap(n.Offs), cap(n.Kids)); got > fan {
				t.Fatalf("step %d: node %d (leaf %v) holds %d keys in %d bytes with arrays of %d/%d/%d: its page takes %d entries at most",
					step, n.ID, n.Leaf, n.count(), n.NBytes, cap(n.Keys), cap(n.Offs), cap(n.Kids), fan)
			}
		}
	}
	r := rand.New(rand.NewPCG(20, 26))
	maxHeight := 0
	for step := 0; step < 120000; step++ {
		k := r.Uint64N(keySpace)
		switch shrinking := (step/20000)%2 == 1; {
		case shrinking && r.IntN(10) < 8:
			tr.Delete(k)
		case k < keySpace/4:
			tr.Insert(k, val(k, minLen))
		default:
			tr.Insert(k, val(k, minLen+r.IntN(maxLen-minLen+1)))
		}
		maxHeight = max(maxHeight, tr.Height())
		if step%250 == 249 {
			check(step)
		}
	}
	if maxHeight < 3 || fullest < leafFan-1 || len(pool.FreeList()) == 0 {
		t.Errorf("height reached %d, the fullest leaf %d of %d entries, %d pages freed by merges: the stream does not exercise the rule",
			maxHeight, fullest, leafFan-1, len(pool.FreeList()))
	}
}
