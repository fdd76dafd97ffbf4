package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bufferpool"
)

// This file is the single B+-tree algorithm of the repository: insert/split,
// delete with borrow+merge rebalancing, range scan, page collection and the
// structural invariant checker, written once against node IDS and a fallible
// NodeStore accessor. Two stores instantiate it — the infallible in-memory
// store behind Tree (the §6.3 TPC-C trace substrate) and internal/pagedb's
// store-backed node cache (buffer pool + log-structured store) — so the
// durable engine and the trace engine can never drift algorithmically.
// descend is the one root-to-leaf walk. InsertRun descends once per leaf a run
// of puts touches and splits with the path it holds; Insert is a run of one;
// Delete rebalances up the path it descended.

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

// ErrTooLarge is Insert's error for a value a leaf cannot take (CheckValue).
var ErrTooLarge = errors.New("btree: value too large for the page size")

// CheckValue returns ErrTooLarge, wrapped, unless a page of pageSize bytes
// takes three leaf entries holding value — the split logic's floor — and the
// page image's 16-bit length field takes its length.
func (l Layout) CheckValue(value []byte, pageSize int) error {
	if l.LeafEntry(value)*3 > l.Budget(pageSize) || len(value) > 0xFFFF {
		return fmt.Errorf("%w: %d bytes in a %d-byte page", ErrTooLarge, len(value), pageSize)
	}
	return nil
}

// Node is the in-memory form of one B+-tree node, shared by every NodeStore.
// Children and leaf neighbors are referenced by node id; id 0 is reserved as
// the nil link (Next == 0 terminates the leaf chain), so a NodeStore must
// never allocate it.
type Node struct {
	ID   uint32
	Leaf bool
	// Based says the store holds an image of this leaf that its entries differ
	// from only under the keys Changed[:NChanged] (pagedb's checkpoint then
	// writes those entries as a delta page). The NodeStore sets it, with the
	// set, when it reads or writes the leaf's image; the Core adds each key it
	// puts or deletes, and clears it on a split, merge or borrow, or when a
	// ninth key changes. The set is inline, eight keys, so a change allocates
	// nothing; pagedb's checkpoint rebases most leaves before it fills.
	Based    bool
	NChanged uint8
	Keys     []uint64 // branch separators, strictly increasing
	Kids     []uint32 // branch children (len == len(Keys)+1)
	// A leaf's entries are its page image's (page.go): key | vlen | value, in
	// key order, back to back in Buf[Lo:], and Offs[i] is where entry i
	// starts. Buf[:Lo] is dead — a fault's record and page headers, or
	// entries a split moved out — and the capacity past len(Buf) is room.
	// Inserts, deletes, borrows and merges move bytes inside Buf; no value
	// has memory of its own, and no two nodes share any.
	Buf  []byte
	Lo   int
	Offs []uint32
	Next uint32 // leaf chain successor (leaves only; 0 = none)
	// NBytes is the node's byte accounting against Layout.Budget (header
	// excluded). The Core maintains it; stores materializing nodes from
	// page images rebuild it (ParseNode).
	NBytes  int
	Changed [8]uint64 // the change set of a based leaf (Based)
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
//     needs no lookup. Pins nest: a Fetch of a node already held returns
//     the same *Node and the same handle, and each is balanced by one
//     Release.
//   - Release(n) drops one pin taken by the Fetch that returned n. The
//     Core releases every node it fetches by the time an operation
//     returns, on error paths included, so between operations no frame is
//     pinned (pagedb.CheckPinBalance asserts exactly this). Releasing a
//     node whose id was Freed after the Fetch is legal and a no-op: the
//     Pin handle's version stamp no longer matches its recycled frame.
//   - MarkDirty(n) records that n, fetched and still pinned, has been (or is
//     about to be) mutated, so the store persists it: the Model marks its
//     page dirty, pagedb enters the node in its dirty-page table.
//   - Touch(n) records another access to n, fetched earlier in the same
//     operation and not freed since, as another Fetch would, without
//     looking it up or pinning it. InsertRun touches a descent's path once
//     for each entry past the first it writes, and Delete each node on its
//     path again as it rebalances the level below.
//   - Free releases id: the node is dropped and the id may be reallocated.
//     No final write happens. Freeing a node that is still pinned discards
//     its pins (the Core frees nodes it holds — a merge victim, a collapsed
//     root).
//
// A store whose nodes can never be reclaimed mid-use (the in-memory
// memStore) implements Release as a no-op and leaves Pin handles zero.
//
// Node memory. A value returned by Get, or passed to a Scan callback, is a
// slice of its leaf's Buf, which Get no longer pins: it is valid until the
// caller releases whatever guard excludes writers from the tree (pagedb: one
// hold of its read guard), and no longer — the next write to that leaf, inside
// the writer's exclusive hold, may overwrite its bytes in place (Insert of a
// value the same length) or move them (any other insert, delete or rebalance).
// Once every guard hold that could have seen a node has ended, a store may
// reuse all of a node that is no longer reachable through it — evicted clean,
// or written back — for the next page it materializes: the Node, its arrays,
// its Buf (ParseNode parses into a recycled node). No other node holds any of
// that memory.
type NodeStore interface {
	Alloc() (uint32, error)
	Fetch(id uint32) (*Node, error)
	Release(n *Node)
	MarkDirty(n *Node)
	Touch(n *Node)
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

// find returns the index of the first leaf entry whose key is >= k, and
// whether that key is k.
func (n *Node) find(k uint64) (int, bool) {
	buf, offs := n.Buf, n.Offs
	lo, hi := 0, len(offs)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); binary.LittleEndian.Uint64(buf[offs[mid]:]) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(offs) && binary.LittleEndian.Uint64(buf[offs[lo]:]) == k
}

// spare is how many more entries of e bytes a node accounting nbytes of budget
// can be given before it splits — the one that overflows it included, since a
// split finds that entry in place.
func spare(budget, nbytes, e int) int {
	if nbytes > budget {
		return 0
	}
	return (budget-nbytes)/e + 1
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

// descend returns the leaf that covers key, pinned, and the bounds [lo, hi]
// the branches above it put on its keys. Given a path (Core.path), it keeps
// those branches pinned there, root first, for its caller to release — on
// error it releases them itself; given nil, it releases each as it passes.
func (c *Core) descend(key uint64, path []*Node) (n *Node, lo, hi uint64, err error) {
	hi = ^uint64(0)
	for id, d := c.root, 0; ; d++ {
		if n, err = c.store.Fetch(id); err == nil && path != nil && n.Leaf != (d == len(path)) {
			c.store.Release(n)
			err = fmt.Errorf("btree: node %d at depth %d of a tree of height %d", id, d+1, c.height)
		}
		if err != nil {
			for d = min(d, len(path)) - 1; d >= 0; d-- {
				c.store.Release(path[d])
			}
			return nil, lo, hi, err
		}
		if n.Leaf {
			return n, lo, hi, nil
		}
		ci := n.childIndex(key)
		if ci > 0 {
			lo = max(lo, n.Keys[ci-1])
		}
		if ci < len(n.Keys) {
			hi = min(hi, n.Keys[ci]-1) // key < Keys[ci], so Keys[ci] > 0
		}
		id = n.Kids[ci]
		if path != nil {
			path[d] = n
		} else {
			c.store.Release(n)
		}
	}
}

// path returns a slot for each branch above a leaf, in buf if it has room.
func (c *Core) path(buf []*Node) []*Node {
	if c.height-1 > len(buf) {
		return make([]*Node, c.height-1)
	}
	return buf[:c.height-1]
}

// Get returns the value stored under key. The slice aliases the leaf's Buf,
// and the leaf has been Released by the time Get returns: the caller must
// copy the value while whatever guard serializes it against mutation (its own
// lock, a read guard) still holds — after that the next write to the leaf may
// move it, and the node's memory may be reused (see NodeStore).
func (c *Core) Get(key uint64) ([]byte, bool, error) {
	n, _, _, err := c.descend(key, nil)
	if err != nil {
		return nil, false, err
	}
	i, ok := n.find(key)
	var v []byte
	if ok {
		_, v = n.Entry(i)
	}
	c.store.Release(n)
	return v, ok, nil
}

// Insert stores a copy of value under key, replacing any existing value, and
// reports whether the key is new: InsertRun of one entry. The tree owns its
// values' memory: a value as long as the one it replaces is copied over that
// one's bytes, any other into its leaf's Buf, so value is only borrowed — but
// it must not be a slice of this tree's own memory (a Get's result), which the
// insert may move.
func (c *Core) Insert(key uint64, value []byte) (added bool, err error) {
	n, err := c.insertRun(1, nil, key, value)
	return n > 0, err
}

// InsertRun applies n inserts, entry i being kv(i), leaving the tree as one at
// a time would, and reports how many keys were new. It descends once per leaf,
// not per key: it writes each following entry in the leaf's key range (place),
// marking the leaf dirty once and counting each entry's accesses to the path
// (Touch), until one overflows the leaf; split then splits with the path the
// descent holds, and the next entry descends anew.
func (c *Core) InsertRun(n int, kv func(i int) (key uint64, value []byte)) (added int, err error) {
	return c.insertRun(n, kv, 0, nil)
}

// insertRun is InsertRun, whose one entry is key and value when kv is nil:
// what a closure returns escapes, so Insert passes its value by itself.
func (c *Core) insertRun(n int, kv func(i int) (uint64, []byte), key uint64, value []byte) (added int, err error) {
	start := c.count
	var branches [8]*Node
	for i := 0; i < n && err == nil; {
		if kv != nil {
			key, value = kv(i)
		}
		if err = c.layout.CheckValue(value, c.pageSize); err != nil {
			break // before the entry's descent
		}
		var leaf *Node
		var lo, hi uint64
		path := c.path(branches[:])
		if leaf, lo, hi, err = c.descend(key, path); err != nil {
			break
		}
		c.store.MarkDirty(leaf)
		at := c.place(leaf, key, value)
		for i++; i < n && leaf.NBytes <= c.budget; i++ {
			k, v := kv(i)
			if k < lo || k > hi || c.layout.CheckValue(v, c.pageSize) != nil {
				break
			}
			for _, b := range path { // the accesses the entry's own descent would make
				c.store.Touch(b)
			}
			c.store.Touch(leaf)
			key, at = k, c.place(leaf, k, v)
		}
		err = c.split(path, leaf, at, key)
	}
	return c.count - start, err
}

// place writes value under key in leaf n (set), counting a new key, and
// returns where its entry is.
func (c *Core) place(n *Node, key uint64, value []byte) int {
	i, added := n.set(key, value, c.layout, c.budget)
	if added {
		c.count++
	}
	return i
}

// set writes value under key in leaf n, noting the key changed, and returns
// where its entry is and whether the key is new: over an old value of its
// length, or else as a new entry, which may take the leaf over budget (the
// Core then splits it).
func (n *Node) set(key uint64, value []byte, l Layout, budget int) (int, bool) {
	n.changed(key)
	i, found := n.find(key)
	if found {
		_, old := n.Entry(i)
		if len(old) == len(value) {
			copy(old, value)
			return i, false
		}
		n.NBytes -= l.LeafEntryOverhead + n.drop(i)
	}
	e := l.LeafEntry(value)
	n.NBytes += e
	n.put(i, key, value, budget-n.NBytes, spare(budget, n.NBytes, e))
	return i, !found
}

// changed notes that the entry under key changed in leaf n: a based leaf adds
// the key to its change set, and is no longer based once the set is full.
func (n *Node) changed(key uint64) {
	switch {
	case !n.Based || slices.Contains(n.Changed[:n.NChanged], key):
	case int(n.NChanged) == len(n.Changed):
		n.Based = false
	default:
		n.Changed[n.NChanged] = key
		n.NChanged++
	}
}

// split ends a visit to leaf, which descend reached through path with key's
// entry, at, written last. A leaf over budget splits, and each separator is
// carried up the path: a branch it overflows splits too, and a root that
// splits grows the tree by one level. Each node is released once its level is
// done, the leaf first.
func (c *Core) split(path []*Node, leaf *Node, at int, key uint64) (err error) {
	var id uint32
	var sep uint64
	if leaf.NBytes > c.budget {
		id, sep, err = c.splitLeaf(leaf, at)
	}
	c.store.Release(leaf)
	for d := len(path) - 1; d >= 0; d-- {
		if n := path[d]; id != 0 {
			ci := n.childIndex(key)
			c.store.MarkDirty(n)
			n.NBytes += c.layout.BranchEntryBytes
			spare := spare(c.budget, n.NBytes, c.layout.BranchEntryBytes)
			n.Keys = insertAt(n.Keys, ci, sep, spare)
			n.Kids = insertAt(n.Kids, ci+1, id, spare)
			if id = 0; n.NBytes > c.budget {
				id, sep, err = c.splitBranch(n)
			}
		}
		c.store.Release(path[d])
	}
	if id == 0 {
		return err
	}
	root, err := c.alloc(false)
	if err != nil {
		return err
	}
	root.Keys = []uint64{sep}
	root.Kids = []uint32{c.root, id}
	root.NBytes = c.layout.BranchEntryBytes * 2
	c.root = root.ID
	c.height++
	c.store.MarkDirty(root)
	c.store.Release(root)
	return nil
}

// splitLeaf moves the upper half (by bytes) of a leaf into a new right
// sibling and returns its id with its separator (the sibling's first key).
// The half holding entry at, just written, keeps the buffer and its room —
// what filled the leaf likely goes on there — and the other is copied out.
func (c *Core) splitLeaf(n *Node, at int) (uint32, uint64, error) {
	half := n.NBytes / 2
	acc, cut := 0, 0
	for i := range n.Offs {
		_, v := n.Entry(i)
		acc += c.layout.LeafEntry(v)
		if acc > half {
			cut = i + 1
			break
		}
	}
	if cut == 0 || cut >= len(n.Offs) {
		cut = len(n.Offs) / 2
	}
	right, err := c.alloc(true)
	if err != nil {
		return 0, 0, err
	}
	if at < cut {
		right.Buf, right.Offs = n.span(cut, len(n.Offs))
		n.Buf, n.Offs = n.Buf[:n.Offs[cut]], n.Offs[:cut]
	} else {
		buf, offs := n.span(0, cut)
		right.Buf, right.Lo = n.Buf, int(n.Offs[cut])
		right.Offs = n.Offs[:copy(n.Offs, n.Offs[cut:])]
		n.Buf, n.Lo, n.Offs = buf, 0, offs
	}
	right.NBytes = c.leafBytes(right)
	n.NBytes, n.Based = n.NBytes-right.NBytes, false
	right.Next = n.Next
	n.Next = right.ID
	c.store.MarkDirty(n)
	c.store.MarkDirty(right)
	id, sep := right.ID, right.key(0)
	c.store.Release(right)
	return id, sep, nil
}

// leafBytes is a leaf's accounting: its entries' bytes, and its layout's
// per-entry cost beyond the page image's.
func (c *Core) leafBytes(n *Node) int {
	return len(n.Buf) - n.Lo + (c.layout.LeafEntryOverhead-leafEntryOverheadPage)*len(n.Offs)
}

// put writes a leaf entry for key and v at index i, moving the entries from i
// on up. room is what the page can still take in bytes, should Buf grow (see
// fit), and spare in entries, should Offs (see grown).
func (n *Node) put(i int, key uint64, v []byte, room, spare int) {
	e := leafEntryOverheadPage + len(v)
	n.fit(e, room)
	at := len(n.Buf)
	if i < len(n.Offs) {
		at = int(n.Offs[i])
	}
	n.Buf = n.Buf[:len(n.Buf)+e]
	copy(n.Buf[at+e:], n.Buf[at:])
	binary.LittleEndian.PutUint64(n.Buf[at:], key)
	binary.LittleEndian.PutUint16(n.Buf[at+8:], uint16(len(v)))
	copy(n.Buf[at+leafEntryOverheadPage:], v)
	n.Offs = insertAt(n.Offs, i, uint32(at), spare)
	for j := i + 1; j < len(n.Offs); j++ {
		n.Offs[j] += uint32(e)
	}
}

// drop removes leaf entry i, moving the entries after it down, and returns
// the length its value had.
func (n *Node) drop(i int) int {
	_, v := n.Entry(i)
	at, e := int(n.Offs[i]), leafEntryOverheadPage+len(v)
	n.Buf = append(n.Buf[:at], n.Buf[at+e:]...)
	n.Offs = append(n.Offs[:i], n.Offs[i+1:]...)
	for j := i; j < len(n.Offs); j++ {
		n.Offs[j] -= uint32(e)
	}
	return e - leafEntryOverheadPage
}

// fit makes room for e more bytes at the end of Buf: the entries slide over
// its dead prefix if that is enough, or else move to a new buffer for them and
// e, plus what the page can still take (room) up to as much again.
func (n *Node) fit(e, room int) {
	if len(n.Buf)+e <= cap(n.Buf) {
		return
	}
	used := len(n.Buf) - n.Lo
	buf := n.Buf[:used]
	if need := used + e; need > cap(n.Buf) {
		buf = slices.Grow([]byte(nil), need+min(max(room, 0), need))[:used]
	}
	copy(buf, n.Buf[n.Lo:])
	for j := range n.Offs {
		n.Offs[j] -= uint32(n.Lo)
	}
	n.Buf, n.Lo = buf, 0
}

// span copies leaf entries [i, j), i < j, into a buffer of their size, and
// returns it with their offsets in it.
func (n *Node) span(i, j int) ([]byte, []uint32) {
	lo, hi := int(n.Offs[i]), len(n.Buf)
	if j < len(n.Offs) {
		hi = int(n.Offs[j])
	}
	offs := make([]uint32, j-i)
	for k := range offs {
		offs[k] = n.Offs[i+k] - uint32(lo)
	}
	return append([]byte(nil), n.Buf[lo:hi]...), offs
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
	spare := spare(c.budget, right.NBytes, c.layout.BranchEntryBytes)
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

// Delete removes key, rebalancing (borrow first, then merge) up the path it
// descended. It reports whether the key existed. A store failure during
// rebalancing can leave a node underfull — never inconsistent — and is
// returned alongside deleted == true.
func (c *Core) Delete(key uint64) (deleted bool, err error) {
	var branches [8]*Node
	path := c.path(branches[:])
	leaf, _, _, err := c.descend(key, path)
	if err != nil {
		return false, err
	}
	i, deleted := leaf.find(key)
	if deleted {
		c.store.MarkDirty(leaf)
		leaf.changed(key)
		leaf.NBytes -= c.layout.LeafEntryOverhead + leaf.drop(i)
		c.count--
	}
	// Each level up visits its child again (Touch) to rebalance it. A merge
	// may free the child; its Release is then a no-op by contract.
	child := leaf
	for d := len(path) - 1; d >= 0; d-- {
		if n := path[d]; deleted && err == nil {
			c.store.Touch(child)
			if child.NBytes*4 < c.budget {
				err = c.rebalance(n, n.childIndex(key), child)
			}
		}
		c.store.Release(child)
		child = path[d]
	}
	// child is the root, still pinned, visited again: a branch left with a
	// single child (a merge below took its other) collapses into it. Free
	// discards the pin.
	if deleted && err == nil {
		c.store.Touch(child)
		if !child.Leaf && len(child.Kids) == 1 {
			kid := child.Kids[0]
			if err = c.store.Free(child.ID); err == nil {
				c.root, c.height = kid, c.height-1
			}
		}
	}
	c.store.Release(child)
	return deleted, err
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
	child.Based, left.Based = false, false
	if child.Leaf {
		k, v := left.Entry(len(left.Offs) - 1)
		child.put(0, k, v, 0, 0)
		child.NBytes += c.layout.LeafEntry(v)
		left.NBytes -= c.layout.LeafEntry(v)
		left.drop(len(left.Offs) - 1)
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
	child.Based, right.Based = false, false
	if child.Leaf {
		k, v := right.Entry(0)
		child.put(len(child.Offs), k, v, 0, 0)
		child.NBytes += c.layout.LeafEntry(v)
		right.NBytes -= c.layout.LeafEntry(v)
		right.drop(0)
		n.Keys[ci] = right.key(0)
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
	left.Based = false
	if left.Leaf {
		left.fit(len(right.Buf)-right.Lo, 0)
		left.Offs = grown(left.Offs, len(right.Offs), 0)
		for i := range right.Offs {
			k, v := right.Entry(i)
			left.put(len(left.Offs), k, v, 0, 0)
		}
		left.NBytes += right.NBytes
		left.Next = right.Next
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
	n, _, _, err := c.descend(from, nil)
	if err != nil {
		return err
	}
	for {
		// The entries from the first key >= from on, walked in their order.
		off := len(n.Buf)
		if i, _ := n.find(from); i < len(n.Offs) {
			off = int(n.Offs[i])
		}
		for rest := n.Buf[off:]; len(rest) >= leafEntryOverheadPage; {
			k, end := binary.LittleEndian.Uint64(rest), leafEntryOverheadPage+int(binary.LittleEndian.Uint16(rest[8:]))
			if k > to || !fn(k, rest[leafEntryOverheadPage:end:end]) {
				c.store.Release(n)
				return nil
			}
			rest = rest[end:]
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
