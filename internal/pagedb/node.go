package pagedb

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/store"
)

// This engine holds its decoded B+-tree nodes INSIDE the buffer pool's
// frames (the fused decoded-object slot): residency, replacement, pinning
// and the decoded node live in one place, so the hot read path is a single
// shard acquisition per tree level (bufferpool.FetchPinned) instead of the
// separate cache-lookup/Pin/Unpin round trips a layered node cache costs.
// A node's durable form is its page image (btree.ParseNode/EncodeNode); a
// dirty node stays, still decoded, in the dirty-page table (db.dirty) —
// resident or parked — until the checkpoint encodes it. The tree ALGORITHM
// lives entirely in internal/btree's Core; this file supplies the store side:
// the fallible NodeStore that faults nodes through the pool and the
// log-structured store, implementing the fused Fetch/Release pin protocol so
// concurrent readers can fault and evict against each other safely, and the
// recycling of node memory (retire, reclaim, takeNode) that faults parse into.

// nodeStore adapts the DB's fused node cache to btree.NodeStore: the
// unified tree core runs its algorithm against this accessor. Every method
// runs with db.mu held — exclusively for mutations, shared for reads; the
// pin taken by Fetch (and dropped by Release via the node's frame handle)
// is what keeps a node's frame from being evicted by a CONCURRENT reader's
// fault in between.
type nodeStore struct{ db *DB }

func (s nodeStore) Alloc() (uint32, error) { return s.db.allocNode().ID, nil }

func (s nodeStore) Fetch(id uint32) (*btree.Node, error) { return s.db.node(id) }

// Release drops the pin through the node's frame handle — no map lookup.
// A handle whose frame was freed or recycled since the Fetch releases
// nothing (version mismatch), which is exactly the contract's
// release-after-Free no-op.
func (s nodeStore) Release(n *btree.Node) { s.db.pool.Release(n.Pin) }

// MarkDirty enters the node in the dirty-page table (mutations only happen
// under db.mu's write side, where the target is pinned and therefore
// resident).
func (s nodeStore) MarkDirty(n *btree.Node) { s.db.dirty[n.ID] = n }

// Touch counts a use of the node's frame through its handle: no lookup, no
// hit, nothing if the frame has left the page since.
func (s nodeStore) Touch(n *btree.Node) { s.db.pool.Touch(n.Pin) }

func (s nodeStore) Free(id uint32) error {
	s.db.freeNode(id)
	return nil
}

// node returns the decoded node for a page id PINNED, faulting it in from
// the dirty-page table or the store on a miss.
//
// The hot path is ONE pool-shard acquisition: FetchPinned returns the
// frame's decoded node already pinned. The miss path serializes on a
// per-shard fault mutex so that when N readers miss the same page
// together, exactly one pays the read and the parse and the rest adopt its
// install — the avoided duplicate faults are counted (Stats.
// DupFaultsAvoided, pagedb.node.refaults).
func (db *DB) node(id uint32) (*btree.Node, error) {
	// The release handle is cached on the node itself (n.Pin, bound at
	// install), so the hot path discards FetchPinned's copy.
	if obj, _ := db.pool.FetchPinned(id); obj != nil {
		return obj.(*btree.Node), nil
	}
	mu := &db.faultMu[db.pool.ShardOf(id)]
	mu.Lock()
	defer mu.Unlock()
	if obj, _ := db.pool.FetchPinned(id); obj != nil {
		// Another reader faulted the page while we waited: a duplicate
		// ReadPage+decode avoided.
		db.dupFaults.Add(1)
		return obj.(*btree.Node), nil
	}
	// A parked node is the page's current state — the store's image is
	// stale — and is re-admitted; it stays in the table. Readers only read
	// the table (writers, who change it, hold the guard exclusively).
	n := db.dirty[id]
	if n != nil {
		obj, _ := db.pool.InstallPinned(id, func(h bufferpool.Handle) any {
			n.Pin = h
			return n
		})
		return obj.(*btree.Node), nil
	}
	// The read lands in the buffer of the node that will keep it — a recycled
	// one when the free list has a fit — and is parsed where it lies.
	t0 := time.Now()
	img, err := db.st.ReadRecord(id, func(size int) []byte {
		n = db.takeNode(size)
		return n.Buf
	})
	if err != nil {
		return nil, fmt.Errorf("pagedb: faulting page %d: %w", id, err)
	}
	db.hFault.Record(uint64(time.Since(t0)))
	db.faults.Add(1)
	n.Buf = n.Buf[:store.RecordHeaderSize+len(img)] // the record: its header, then the image
	if err := btree.ParseNode(n, id, store.RecordHeaderSize, btree.PageLayout); err != nil {
		return nil, fmt.Errorf("pagedb: decoding page %d: %w", id, err)
	}
	// Bind runs under the frame's shard lock BEFORE the node is published,
	// so no fused reader can observe the node without its handle set.
	obj, _ := db.pool.InstallPinned(id, func(h bufferpool.Handle) any {
		n.Pin = h
		return n
	})
	return obj.(*btree.Node), nil
}

// The recycling lists are memory for faults to parse into, nothing more: a
// node that becomes unreachable — a clean eviction, or a parked node the
// checkpoint has written — is RETIRED (db.retired), an exclusive acquisition
// of the guard makes it FREE (db.free), and a fault takes a free node for
// whatever page it reads. A listed node is no page's: a fault on its old page
// reads the store, like any other.

// freeClass is a stack of the free nodes whose buffers have capacity size: an
// allocator size class (every node buffer is allocated by append), or 0 for a
// node that never held an entry. The classes are few, and a push or pop moves
// no other node.
type freeClass struct {
	size  int
	nodes []*btree.Node
}

func classCmp(c freeClass, size int) int { return c.size - size }

// retire puts a node that just became unreachable on the retired list, unless
// the lists are full (db.keep): that node is left to the garbage collector.
// Caller holds db.evmu.
func (db *DB) retire(n *btree.Node) {
	if db.listed >= db.keep {
		db.cDropped.Inc()
		return
	}
	db.retired = append(db.retired, n)
	db.listed++
}

// reclaim moves the retired nodes to the free list, each onto its buffer
// capacity's class. The caller has JUST acquired db.mu exclusively, and that
// is the proof: every alias of a node's bytes — Core.Get's value after its
// Release, a Scan callback's argument — lives inside one hold of the guard;
// no hold that starts after a node's retirement can reach it; and this
// acquisition waited out every hold that started before.
func (db *DB) reclaim() {
	db.evmu.Lock()
	defer db.evmu.Unlock()
	for _, n := range db.retired {
		if poisonRecycled != nil {
			poisonRecycled(n) // nothing can reach the node from here on
		}
		i, ok := slices.BinarySearchFunc(db.free, cap(n.Buf), classCmp)
		if !ok {
			db.free = slices.Insert(db.free, i, freeClass{size: cap(n.Buf)})
		}
		db.free[i].nodes = append(db.free[i].nodes, n)
	}
	clear(db.retired)
	db.retired = db.retired[:0]
}

// takeNode obtains the node a fault will parse into, its Buf size bytes long:
// a free node with the smallest buffer that holds the record — a leaf's spare
// room is where its inserts grow — or a new one.
func (db *DB) takeNode(size int) *btree.Node {
	db.evmu.Lock()
	i, _ := slices.BinarySearchFunc(db.free, size, classCmp)
	for i < len(db.free) && len(db.free[i].nodes) == 0 {
		i++
	}
	var n *btree.Node
	if i < len(db.free) {
		c := &db.free[i]
		n = c.nodes[len(c.nodes)-1]
		c.nodes[len(c.nodes)-1] = nil
		c.nodes = c.nodes[:len(c.nodes)-1]
		db.listed--
	}
	db.evmu.Unlock()
	if n == nil {
		db.cFresh.Inc()
		// append rounds the capacity up to the allocator's size class, so the
		// buffer can later serve any record of its class.
		return &btree.Node{Buf: append([]byte(nil), make([]byte, size)...)}
	}
	db.cRecycled.Inc()
	n.Buf = n.Buf[:size]
	return n
}

// poisonRecycled, set by this package's tests only, overwrites what a node
// owns the moment it becomes free: a read that outlived its guard hold then
// returns garbage, and is a write/read race under -race.
var poisonRecycled func(n *btree.Node)

// allocNode creates a fresh blank node on a newly allocated page id
// (resident and dirty, but NOT pinned — the core Fetches a fresh id right
// after Alloc, and that Fetch takes the pin); the core stamps its kind. A
// reused id's pending free is superseded in the table. Caller holds db.mu
// exclusively.
func (db *DB) allocNode() *btree.Node {
	id := db.ids.Allocate()
	n := &btree.Node{ID: id}
	db.pool.Install(id, true, func(h bufferpool.Handle) any {
		n.Pin = h
		return n
	})
	db.dirty[id] = n
	db.metaDirty = true
	return n
}

// freeNode releases a page: its frame (decoded node included) or its parked
// node is dropped — pins too, Free is an ownership statement; the version bump
// turns outstanding Releases into no-ops — and its table entry becomes nil, so
// the next commit writes a store tombstone if the page had ever been
// committed. Caller holds db.mu exclusively.
func (db *DB) freeNode(id uint32) {
	db.pool.FreePage(id)
	db.ids.Free(id)
	db.dirty[id] = nil
	db.metaDirty = true
}
