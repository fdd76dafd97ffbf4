package btree

import "fmt"

// Check validates the structural invariants of the tree and returns the
// first violation. It is the one checker both instantiations share (the
// in-memory Tree and pagedb's durable trees run the identical rules):
//
//  1. Keys are strictly increasing within every node and across the whole
//     key space (in-order traversal is sorted).
//  2. Branch separator keys bound their subtrees: every key in kids[i] is
//     < keys[i], every key in kids[i+1] is >= keys[i].
//  3. All leaves sit at the same depth, equal to Height().
//  4. No node is reachable twice (no cycles, no shared children).
//  5. Byte accounting matches the Layout's costs, and no node exceeds its
//     budget (for PageLayout this implies every page image fits the page).
//  6. The leaf chain (Next links from the leftmost leaf) visits exactly the
//     leaves, left to right, and terminates.
//  7. Len() equals the number of leaf entries.
func (c *Core) Check() error {
	leaves := make([]uint32, 0, 64)
	entries := 0
	visited := make(map[uint32]bool)
	var walk func(id uint32, depth int, lo, hi uint64, hasLo, hasHi bool) error
	walk = func(id uint32, depth int, lo, hi uint64, hasLo, hasHi bool) error {
		if visited[id] {
			return fmt.Errorf("node %d reachable twice (cycle or shared child)", id)
		}
		visited[id] = true
		n, err := c.store.Fetch(id)
		if err != nil {
			return fmt.Errorf("fetching node %d: %w", id, err)
		}
		defer c.store.Release(n)
		if err := c.checkNode(n); err != nil {
			return err
		}
		// The keys increase (checkNode): they are all in bounds if the search
		// for each bound lands on the node's edge.
		first, end := search(n.Keys, lo), search(n.Keys, hi)
		if n.Leaf {
			first, _ = n.find(lo)
			end, _ = n.find(hi)
		}
		if hasLo && first != 0 || hasHi && end != n.count() {
			return fmt.Errorf("node %d: keys outside its subtree's bounds [%d, %d)", id, lo, hi)
		}
		if n.Leaf {
			if depth != c.height {
				return fmt.Errorf("leaf %d at depth %d, height is %d", id, depth, c.height)
			}
			leaves = append(leaves, id)
			entries += len(n.Offs)
			return nil
		}
		for i, kid := range n.Kids {
			clo, chasLo := lo, hasLo
			chi, chasHi := hi, hasHi
			if i > 0 {
				clo, chasLo = n.Keys[i-1], true
			}
			if i < len(n.Keys) {
				chi, chasHi = n.Keys[i], true
			}
			if err := walk(kid, depth+1, clo, chi, chasLo, chasHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(c.root, 1, 0, 0, false, false); err != nil {
		return err
	}
	if entries != c.count {
		return fmt.Errorf("tree claims %d entries but traversal found %d", c.count, entries)
	}
	// The leaf chain agrees with the traversal order and terminates.
	id := leaves[0]
	for i, want := range leaves {
		if id == 0 {
			return fmt.Errorf("leaf chain ends after %d of %d leaves", i, len(leaves))
		}
		if id != want {
			return fmt.Errorf("leaf chain diverges at position %d (node %d != %d)", i, id, want)
		}
		n, err := c.store.Fetch(id)
		if err != nil {
			return fmt.Errorf("fetching chain leaf %d: %w", id, err)
		}
		next := n.Next
		c.store.Release(n)
		id = next
	}
	if id != 0 {
		return fmt.Errorf("leaf chain longer than traversal (extra node %d)", id)
	}
	return nil
}

// checkNode validates what one node can be held to on its own (rules 1 and
// 5, and the shape of its kind): the checks a node parsed from storage must
// pass before anything walks it.
func (c *Core) checkNode(n *Node) error {
	for i := 1; i < len(n.Keys); i++ {
		if n.Keys[i-1] >= n.Keys[i] {
			return fmt.Errorf("node %d: keys out of order at %d", n.ID, i)
		}
	}
	nb := c.layout.BranchEntryBytes * len(n.Kids)
	if n.Leaf {
		if err := n.checkLeaf(); err != nil {
			return fmt.Errorf("leaf %d: %w", n.ID, err)
		}
		nb = c.leafBytes(n)
	} else if n.Next != 0 {
		return fmt.Errorf("branch %d carries a leaf chain link %d", n.ID, n.Next)
	} else if len(n.Kids) != len(n.Keys)+1 {
		return fmt.Errorf("branch %d: %d kids for %d keys", n.ID, len(n.Kids), len(n.Keys))
	}
	if nb != n.NBytes {
		return fmt.Errorf("node %d: accounted %d bytes, actual %d", n.ID, n.NBytes, nb)
	}
	if nb > c.budget {
		return fmt.Errorf("node %d: %d bytes over budget %d", n.ID, nb, c.budget)
	}
	return nil
}
