package btree

import (
	"fmt"

	"repro/internal/bufferpool"
)

// This file is the single B+-tree algorithm of the repository: insert/split,
// delete with borrow+merge rebalancing, range scan, page collection and the
// structural invariant checker, written once against node IDS and a fallible
// NodeStore accessor. Two stores instantiate it — the infallible in-memory
// store behind Tree (the §6.3 TPC-C trace substrate) and internal/pagedb's
// store-backed node cache (buffer pool + log-structured store) — so the
// durable engine and the trace engine can never drift algorithmically.

// Layout is the byte-cost model of one node format: how much a leaf entry or
// a branch child costs against the node's byte budget, and how much of the
// page the header consumes. The split/merge/borrow thresholds all derive
// from it, so two Cores with the same Layout make identical structural
// decisions.
type Layout struct {
	// HeaderBytes is the per-node header size; the budget is the page size
	// minus it.
	HeaderBytes int
	// LeafEntryOverhead is the per-entry leaf cost beyond the value bytes
	// (key plus slot/length bookkeeping).
	LeafEntryOverhead int
	// BranchEntryBytes is the budgeting cost per branch CHILD. A branch
	// with k children is accounted k*BranchEntryBytes.
	BranchEntryBytes int
}

// MemLayout is the in-memory Tree's cost model: it models the per-page
// header of a disk layout (LSN, page type, counts, sibling pointer) at 48
// bytes and a 14-byte leaf slot, the historical accounting the §6.3 TPC-C
// traces were collected under.
var MemLayout = Layout{HeaderBytes: 48, LeafEntryOverhead: 14, BranchEntryBytes: 12}

// PageLayout is the page image's cost model (see page.go): the real
// encoded header and entry sizes, so NBytes <= Budget implies the node's
// page image fits the page.
var PageLayout = Layout{HeaderBytes: PageHeaderBytes, LeafEntryOverhead: leafEntryOverheadPage, BranchEntryBytes: BranchEntryBytes}

// LeafEntry is the accounted cost of one leaf entry holding v.
func (l Layout) LeafEntry(v []byte) int { return l.LeafEntryOverhead + len(v) }

// Budget is the per-node byte budget for a given page size.
func (l Layout) Budget(pageSize int) int { return pageSize - l.HeaderBytes }

// Node is the in-memory form of one B+-tree node, shared by every NodeStore.
// Children and leaf neighbors are referenced by node id; id 0 is reserved as
// the nil link (Next == 0 terminates the leaf chain), so a NodeStore must
// never allocate it.
type Node struct {
	ID   uint32
	Leaf bool
	Keys []uint64 // strictly increasing
	Vals [][]byte // leaf payloads (len == len(Keys))
	Kids []uint32 // branch children (len == len(Keys)+1)
	Next uint32   // leaf chain successor (leaves only; 0 = none)
	// NBytes is the node's byte accounting against Layout.Budget (header
	// excluded). The Core maintains it; stores materializing nodes from
	// page images rebuild it (ParseNode).
	NBytes int
	// Donor is set by the Core once a split, borrow or merge has moved any of
	// the node's value slices — headers, not bytes — into another node: the
	// memory behind them is then reachable through a sibling, and a store
	// must never reuse it (see NodeStore).
	Donor bool
	// Buf is the store's: the memory it materialized the node from, if it
	// keeps any (pagedb: the record a leaf's parsed values are slices of).
	Buf []byte
	// Pin is the node's buffer-pool frame handle, set by stores that keep
	// their nodes in fused pool frames (internal/pagedb): Fetch returns the
	// node with the frame pinned, and Release(n) drops that pin through
	// this handle — no map lookup needed. Stores without a pool leave it
	// zero (releasing the zero Handle is a no-op). The handle identifies
	// the frame INCARNATION (frame + version stamp), so a stale handle held
	// across a Free or eviction releases nothing.
	Pin bufferpool.Handle
}

// NodeStore is the fallible fetch-by-id accessor the Core is written
// against. The Core holds *Node pointers only between a Fetch and the
// matching Release; a store may drop or re-materialize nodes at any other
// time (internal/pagedb's buffer pool does), but a pointer handed out by
// Fetch must stay valid — and its mutations must not be lost — until it is
// Released.
//
// Contract (the fused Fetch/Release protocol):
//
//   - Alloc reserves a fresh node id, never 0 (the nil link), registers an
//     empty node under it, and reports it dirty to the store's residency
//     tracking. The node is immediately Fetchable.
//   - Fetch returns the current node for id, faulting it in from backing
//     storage if needed, records a read access, and PINS the node: until
//     the matching Release the store must not reclaim it. A fused store
//     resolves the whole step in one cache acquisition (pagedb's pool
//     frame holds the decoded node and the pin count side by side —
//     bufferpool.FetchPinned) and stamps the node's Pin handle so Release
//     needs no lookup. Pins nest — the Core may Fetch a node it already
//     holds (delete's child re-fetch); nested Fetches return the same
//     *Node and the same handle, and each is balanced by one Release.
//   - Release(n) drops one pin taken by the Fetch that returned n. The
//     Core releases every node it fetches by the time an operation
//     returns, on error paths included, so between operations no frame is
//     pinned (pagedb.CheckPinBalance asserts exactly this). Releasing a
//     node whose id was Freed after the Fetch is legal and a no-op: the
//     Pin handle's version stamp no longer matches its recycled frame.
//   - MarkDirty(n) records that n, fetched and still pinned, has been (or is
//     about to be) mutated, so the store persists it: the Model marks its
//     page dirty, pagedb enters the node in its dirty-page table.
//   - Free releases id: the node is dropped and the id may be reallocated.
//     No final write happens. Freeing a node that is still pinned discards
//     its pins (the Core frees nodes it holds — a merge victim, a collapsed
//     root).
//
// A store whose nodes can never be reclaimed mid-use (the in-memory
// memStore) implements Release as a no-op and leaves Pin handles zero.
//
// Node memory. A value returned by Get, or passed to a Scan callback, aliases
// the node it was found in, which Get no longer pins: it is valid until the
// caller releases whatever guard excludes writers from the tree (pagedb: one
// hold of its read guard), and no longer — the next writer, inside its
// exclusive hold, may overwrite its bytes in place (Insert of a value the same
// length, on a node it has marked dirty). Once every guard hold that could
// have seen a node has ended, a store may reuse the memory of a node that is
// no longer reachable through it — evicted clean, or written back — for the
// next page it materializes: the Node, its Keys/Vals/Kids arrays, its Buf
// (ParseNode parses into a recycled node). Except a Donor's: its value bytes
// live on in a sibling's Vals, so its memory is the garbage collector's.
type NodeStore interface {
	Alloc() (uint32, error)
	Fetch(id uint32) (*Node, error)
	Release(n *Node)
	MarkDirty(n *Node)
	Free(id uint32) error
}

// Core is the B+-tree algorithm instantiated over one NodeStore: the root
// id, height and entry count plus every structural operation. It performs no
// locking — wrappers (Tree, pagedb.Tree) own it — but copies every value into
// the tree itself (Insert); every operation propagates the store's errors.
type Core struct {
	store    NodeStore
	layout   Layout
	pageSize int
	budget   int

	root   uint32
	height int
	count  int
}

// NewCore creates an empty tree on store: a lone root leaf, height 1.
func NewCore(store NodeStore, pageSize int, layout Layout) (*Core, error) {
	c := LoadCore(store, pageSize, layout, 0, 1, 0)
	root, err := c.alloc(true)
	if err != nil {
		return nil, err
	}
	c.root = root.ID
	store.Release(root)
	return c, nil
}

// LoadCore adopts an existing tree (e.g. one recovered from a metadata
// page): root node id, height, and entry count are taken on faith and
// validated lazily by operations and Check.
func LoadCore(store NodeStore, pageSize int, layout Layout, root uint32, height, count int) *Core {
	return &Core{
		store:    store,
		layout:   layout,
		pageSize: pageSize,
		budget:   layout.Budget(pageSize),
		root:     root,
		height:   height,
		count:    count,
	}
}

// Root returns the root node id.
func (c *Core) Root() uint32 { return c.root }

// Height returns the tree height (1 for a lone leaf).
func (c *Core) Height() int { return c.height }

// Len returns the number of keys stored.
func (c *Core) Len() int { return c.count }

// Budget returns the per-node byte budget.
func (c *Core) Budget() int { return c.budget }

// alloc reserves a fresh node of the given kind. The node is returned
// pinned (Fetch); the caller must Release it.
func (c *Core) alloc(leaf bool) (*Node, error) {
	id, err := c.store.Alloc()
	if err != nil {
		return nil, err
	}
	n, err := c.store.Fetch(id)
	if err != nil {
		return nil, err
	}
	n.Leaf = leaf
	return n, nil
}

// search returns the index of the first key >= k.
func search(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// spare is how many more entries of e bytes a node accounting nbytes can be
// given before it splits — the one that overflows it included, since a split
// finds that entry in place.
func (c *Core) spare(nbytes, e int) int {
	if nbytes > c.budget {
		return 0
	}
	return (c.budget-nbytes)/e + 1
}

// grown returns s with room for add more elements. An array that lacks it is
// replaced by one that holds those and spare more — what the page can still
// take (Core.spare) — or twice as many, whichever is less. So a node at least
// a third full, a split's half included, gets room for its whole page, and a
// near-empty one no more than three times what it holds: doubling alone sizes
// a node's arrays for up to twice its page's fan-out.
func grown[T any](s []T, add, spare int) []T {
	need := len(s) + add
	if need <= cap(s) {
		return s
	}
	return append(make([]T, 0, need+min(spare, max(2*need, 4))), s...)
}

// insertAt puts v at s[i], moving the tail up (see grown).
func insertAt[T any](s []T, i int, v T, spare int) []T {
	s = grown(s, 1, spare)
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// childIndex returns which child of a branch covers key k. Branches hold
// len(Kids)-1 separator keys; separator i is the smallest key in kids[i+1]'s
// subtree.
func (n *Node) childIndex(k uint64) int {
	idx := search(n.Keys, k)
	if idx < len(n.Keys) && n.Keys[idx] == k {
		return idx + 1
	}
	return idx
}

// Get returns the value stored under key. The slice aliases the node, and
// the node has been Released by the time Get returns: the caller must copy
// the value while whatever guard serializes it against mutation (its own
// lock, a read guard) still holds — after that the node's memory may be
// reused (see NodeStore).
func (c *Core) Get(key uint64) ([]byte, bool, error) {
	n, err := c.store.Fetch(c.root)
	if err != nil {
		return nil, false, err
	}
	for !n.Leaf {
		next := n.Kids[n.childIndex(key)]
		c.store.Release(n)
		if n, err = c.store.Fetch(next); err != nil {
			return nil, false, err
		}
	}
	i := search(n.Keys, key)
	var v []byte
	ok := i < len(n.Keys) && n.Keys[i] == key
	if ok {
		v = n.Vals[i]
	}
	c.store.Release(n)
	return v, ok, nil
}

// Insert stores a copy of value under key, replacing any existing value, and
// reports whether the key is new. The tree owns its values' memory: a value as
// long as the one it replaces is copied over that one's bytes, any other into
// a new array of its length, so value is only borrowed.
func (c *Core) Insert(key uint64, value []byte) (added bool, err error) {
	if c.layout.LeafEntry(value)*3 > c.budget {
		return false, fmt.Errorf("btree: value of %d bytes does not fit 3 per %d-byte page", len(value), c.pageSize)
	}
	split, sep, added, err := c.insert(c.root, key, value)
	if added {
		c.count++
	}
	if err != nil {
		return added, err
	}
	if split != 0 {
		// Root split: grow the tree by one level.
		newRoot, err := c.alloc(false)
		if err != nil {
			return added, err
		}
		newRoot.Keys = []uint64{sep}
		newRoot.Kids = []uint32{c.root, split}
		newRoot.NBytes = c.layout.BranchEntryBytes * 2
		c.root = newRoot.ID
		c.height++
		c.store.MarkDirty(newRoot)
		c.store.Release(newRoot)
	}
	return added, nil
}

// insert descends to a leaf; on overflow it splits and returns the new right
// sibling's id plus its separator key (split == 0 means no split).
func (c *Core) insert(id uint32, key uint64, value []byte) (split uint32, sep uint64, added bool, err error) {
	n, err := c.store.Fetch(id)
	if err != nil {
		return 0, 0, false, err
	}
	defer c.store.Release(n)
	if n.Leaf {
		c.store.MarkDirty(n)
		i := search(n.Keys, key)
		if i < len(n.Keys) && n.Keys[i] == key {
			if old := n.Vals[i]; len(old) == len(value) {
				copy(old, value)
			} else {
				n.NBytes += len(value) - len(old)
				n.Vals[i] = append(make([]byte, 0, len(value)), value...)
			}
		} else {
			value = append(make([]byte, 0, len(value)), value...)
			n.NBytes += c.layout.LeafEntry(value)
			spare := c.spare(n.NBytes, c.layout.LeafEntry(value))
			n.Keys = insertAt(n.Keys, i, key, spare)
			n.Vals = insertAt(n.Vals, i, value, spare)
			added = true
		}
		if n.NBytes > c.budget {
			split, sep, err = c.splitLeaf(n)
		}
		return split, sep, added, err
	}

	ci := n.childIndex(key)
	childSplit, childSep, added, err := c.insert(n.Kids[ci], key, value)
	if err != nil || childSplit == 0 {
		return 0, 0, added, err
	}
	c.store.MarkDirty(n)
	n.NBytes += c.layout.BranchEntryBytes
	spare := c.spare(n.NBytes, c.layout.BranchEntryBytes)
	n.Keys = insertAt(n.Keys, ci, childSep, spare)
	n.Kids = insertAt(n.Kids, ci+1, childSplit, spare)
	if n.NBytes > c.budget {
		split, sep, err = c.splitBranch(n)
	}
	return split, sep, added, err
}

// splitLeaf moves the upper half (by bytes) of a leaf into a new right
// sibling and returns its id with its separator (the sibling's first key).
func (c *Core) splitLeaf(n *Node) (uint32, uint64, error) {
	half := n.NBytes / 2
	acc, cut := 0, 0
	for i := range n.Keys {
		acc += c.layout.LeafEntry(n.Vals[i])
		if acc > half {
			cut = i + 1
			break
		}
	}
	if cut == 0 || cut >= len(n.Keys) {
		cut = len(n.Keys) / 2
	}
	right, err := c.alloc(true)
	if err != nil {
		return 0, 0, err
	}
	keys, vals := n.Keys[cut:], n.Vals[cut:]
	for _, v := range vals {
		right.NBytes += c.layout.LeafEntry(v)
	}
	// The sibling's arrays are sized for the entries like its own it can still
	// take: whatever filled this leaf is likely to go on into one of the two.
	spare := c.spare(right.NBytes, right.NBytes/len(keys))
	right.Keys = append(grown(right.Keys, len(keys), spare), keys...)
	right.Vals = append(grown(right.Vals, len(vals), spare), vals...)
	n.Keys = n.Keys[:cut]
	n.Vals = n.Vals[:cut]
	n.NBytes -= right.NBytes
	n.Donor = true
	right.Next = n.Next
	n.Next = right.ID
	c.store.MarkDirty(n)
	c.store.MarkDirty(right)
	id, sep := right.ID, right.Keys[0]
	c.store.Release(right)
	return id, sep, nil
}

// splitBranch moves the upper half of a branch into a new right sibling; the
// middle separator moves up.
func (c *Core) splitBranch(n *Node) (uint32, uint64, error) {
	mid := len(n.Keys) / 2
	sep := n.Keys[mid]
	right, err := c.alloc(false)
	if err != nil {
		return 0, 0, err
	}
	keys, kids := n.Keys[mid+1:], n.Kids[mid+1:]
	right.NBytes = c.layout.BranchEntryBytes * len(kids)
	spare := c.spare(right.NBytes, c.layout.BranchEntryBytes)
	right.Keys = append(grown(right.Keys, len(keys), spare), keys...)
	right.Kids = append(grown(right.Kids, len(kids), spare), kids...)
	n.Keys = n.Keys[:mid]
	n.Kids = n.Kids[:mid+1]
	n.NBytes = c.layout.BranchEntryBytes * len(n.Kids)
	c.store.MarkDirty(n)
	c.store.MarkDirty(right)
	id := right.ID
	c.store.Release(right)
	return id, sep, nil
}

// Delete removes key, rebalancing (borrow first, then merge) on the way
// back up. It reports whether the key existed. A store failure during
// rebalancing can leave a node underfull — never inconsistent — and is
// returned alongside deleted == true.
func (c *Core) Delete(key uint64) (bool, error) {
	deleted, err := c.del(c.root, key)
	if deleted {
		c.count--
	}
	if err != nil || !deleted {
		return deleted, err
	}
	// Collapse a root holding a single child.
	for {
		n, err := c.store.Fetch(c.root)
		if err != nil {
			return true, err
		}
		if n.Leaf || len(n.Kids) != 1 {
			c.store.Release(n)
			break
		}
		child := n.Kids[0]
		// Free discards the pin Fetch took (see NodeStore).
		if err := c.store.Free(c.root); err != nil {
			return true, err
		}
		c.root = child
		c.height--
	}
	return true, nil
}

func (c *Core) del(id uint32, key uint64) (bool, error) {
	n, err := c.store.Fetch(id)
	if err != nil {
		return false, err
	}
	defer c.store.Release(n)
	if n.Leaf {
		i := search(n.Keys, key)
		if i >= len(n.Keys) || n.Keys[i] != key {
			return false, nil
		}
		c.store.MarkDirty(n)
		n.NBytes -= c.layout.LeafEntry(n.Vals[i])
		n.Keys = append(n.Keys[:i], n.Keys[i+1:]...)
		n.Vals = append(n.Vals[:i], n.Vals[i+1:]...)
		return true, nil
	}

	ci := n.childIndex(key)
	deleted, err := c.del(n.Kids[ci], key)
	if err != nil || !deleted {
		return deleted, err
	}
	childID := n.Kids[ci]
	child, err := c.store.Fetch(childID)
	if err != nil {
		return true, err
	}
	// The child may be freed by a merge inside rebalance; Release of a
	// freed id is a no-op by contract.
	defer c.store.Release(child)
	if child.NBytes*4 < c.budget {
		if err := c.rebalance(n, ci, child); err != nil {
			return true, err
		}
	}
	return true, nil
}

// rebalance fixes up child ci of parent n after it dropped below the fill
// threshold: borrow from a richer sibling, else merge with a neighbor that
// fits. With byte-based budgets a node can be below the threshold while
// neither is possible; it is then left underfull, which is sound.
func (c *Core) rebalance(n *Node, ci int, child *Node) error {
	var left, right *Node
	var err error
	// Both siblings are released on every exit path. A merge may Free one
	// of them first; releasing a freed id is a no-op by contract.
	defer func() {
		if left != nil {
			c.store.Release(left)
		}
		if right != nil {
			c.store.Release(right)
		}
	}()
	// Prefer borrowing from the left sibling, then the right.
	if ci > 0 {
		if left, err = c.store.Fetch(n.Kids[ci-1]); err != nil {
			left = nil
			return err
		}
		if left.NBytes*2 > c.budget {
			c.borrowFromLeft(n, ci, child, left)
			return nil
		}
	}
	if ci+1 < len(n.Kids) {
		if right, err = c.store.Fetch(n.Kids[ci+1]); err != nil {
			right = nil
			return err
		}
		if right.NBytes*2 > c.budget {
			c.borrowFromRight(n, ci, child, right)
			return nil
		}
	}
	// Merge with a neighbor if the combined node fits. A merged branch holds
	// leftKids+rightKids children (the pulled-down separator is covered by
	// the per-child accounting), a merged leaf the two entry sets, so the
	// fit check is the plain sum for both kinds.
	if left != nil && left.NBytes+child.NBytes <= c.budget {
		return c.merge(n, ci-1, left, child)
	}
	if right != nil && child.NBytes+right.NBytes <= c.budget {
		return c.merge(n, ci, child, right)
	}
	return nil
}

func (c *Core) borrowFromLeft(n *Node, ci int, child, left *Node) {
	c.store.MarkDirty(n)
	c.store.MarkDirty(child)
	c.store.MarkDirty(left)
	if child.Leaf {
		k := left.Keys[len(left.Keys)-1]
		v := left.Vals[len(left.Vals)-1]
		left.Keys = left.Keys[:len(left.Keys)-1]
		left.Vals = left.Vals[:len(left.Vals)-1]
		left.NBytes -= c.layout.LeafEntry(v)
		left.Donor = true
		child.Keys = insertAt(child.Keys, 0, k, 0)
		child.Vals = insertAt(child.Vals, 0, v, 0)
		child.NBytes += c.layout.LeafEntry(v)
		n.Keys[ci-1] = k
		return
	}
	k := left.Keys[len(left.Keys)-1]
	kid := left.Kids[len(left.Kids)-1]
	left.Keys = left.Keys[:len(left.Keys)-1]
	left.Kids = left.Kids[:len(left.Kids)-1]
	left.NBytes -= c.layout.BranchEntryBytes
	child.Keys = insertAt(child.Keys, 0, n.Keys[ci-1], 0)
	child.Kids = insertAt(child.Kids, 0, kid, 0)
	child.NBytes += c.layout.BranchEntryBytes
	n.Keys[ci-1] = k
}

func (c *Core) borrowFromRight(n *Node, ci int, child, right *Node) {
	c.store.MarkDirty(n)
	c.store.MarkDirty(child)
	c.store.MarkDirty(right)
	if child.Leaf {
		k := right.Keys[0]
		v := right.Vals[0]
		right.Keys = right.Keys[1:]
		right.Vals = right.Vals[1:]
		right.NBytes -= c.layout.LeafEntry(v)
		right.Donor = true
		child.Keys = append(grown(child.Keys, 1, 0), k)
		child.Vals = append(grown(child.Vals, 1, 0), v)
		child.NBytes += c.layout.LeafEntry(v)
		n.Keys[ci] = right.Keys[0]
		return
	}
	k := right.Keys[0]
	kid := right.Kids[0]
	right.Keys = right.Keys[1:]
	right.Kids = right.Kids[1:]
	right.NBytes -= c.layout.BranchEntryBytes
	child.Keys = append(grown(child.Keys, 1, 0), n.Keys[ci])
	child.Kids = append(grown(child.Kids, 1, 0), kid)
	child.NBytes += c.layout.BranchEntryBytes
	n.Keys[ci] = k
}

// merge folds child ci+1 of n into child ci and frees its node.
func (c *Core) merge(n *Node, ci int, left, right *Node) error {
	c.store.MarkDirty(n)
	c.store.MarkDirty(left)
	if left.Leaf {
		left.Keys = append(grown(left.Keys, len(right.Keys), 0), right.Keys...)
		left.Vals = append(grown(left.Vals, len(right.Vals), 0), right.Vals...)
		left.NBytes += right.NBytes
		left.Next = right.Next
		right.Donor = true
	} else {
		left.Keys = append(grown(left.Keys, 1+len(right.Keys), 0), n.Keys[ci])
		left.Keys = append(left.Keys, right.Keys...)
		left.Kids = append(grown(left.Kids, len(right.Kids), 0), right.Kids...)
		// Branch accounting is per child: the pulled-down separator adds no
		// cost of its own (k children always pair with k-1 keys).
		left.NBytes += right.NBytes
	}
	if err := c.store.Free(right.ID); err != nil {
		return err
	}
	n.Keys = append(n.Keys[:ci], n.Keys[ci+1:]...)
	n.Kids = append(n.Kids[:ci+1], n.Kids[ci+2:]...)
	n.NBytes -= c.layout.BranchEntryBytes
	return nil
}

// Scan visits keys in [from, to] in order, stopping early if fn returns
// false. The value slice passed to fn aliases the node: fn must not modify
// or retain it, and must not call back into the tree. The leaf being
// visited stays pinned while fn runs.
func (c *Core) Scan(from, to uint64, fn func(key uint64, value []byte) bool) error {
	n, err := c.store.Fetch(c.root)
	if err != nil {
		return err
	}
	for !n.Leaf {
		next := n.Kids[n.childIndex(from)]
		c.store.Release(n)
		if n, err = c.store.Fetch(next); err != nil {
			return err
		}
	}
	for {
		for i, k := range n.Keys {
			if k < from {
				continue
			}
			if k > to || !fn(k, n.Vals[i]) {
				c.store.Release(n)
				return nil
			}
		}
		next := n.Next
		c.store.Release(n)
		if next == 0 {
			return nil
		}
		if n, err = c.store.Fetch(next); err != nil {
			return err
		}
	}
}

// CollectPages returns every node id of the tree in post-order (the root
// last) — the set a caller frees to drop the whole tree. Child id slices are
// copied before recursing, so a store that drops nodes on fetch pressure
// (pagedb's cache) stays safe mid-walk. The walk is depth-guarded against
// cyclic corruption.
func (c *Core) CollectPages() ([]uint32, error) {
	return c.collect(c.root, c.height, nil)
}

func (c *Core) collect(id uint32, depth int, dst []uint32) ([]uint32, error) {
	if depth < 1 {
		return dst, fmt.Errorf("btree: subtree deeper than the tree height (corrupt links at node %d)", id)
	}
	n, err := c.store.Fetch(id)
	if err != nil {
		return dst, err
	}
	var kids []uint32
	if !n.Leaf {
		kids = append(kids, n.Kids...)
	}
	c.store.Release(n)
	for _, kid := range kids {
		if dst, err = c.collect(kid, depth-1, dst); err != nil {
			return dst, err
		}
	}
	return append(dst, id), nil
}
