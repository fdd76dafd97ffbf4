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
// recycling of node memory (retire, reclaim, takeNode) behind the faults.

// budget is the per-node byte budget: the page minus the image header.
func (db *DB) budget() int { return btree.PageLayout.Budget(db.pageSize) }

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

func (s nodeStore) Free(id uint32) error {
	s.db.freeNode(id)
	return nil
}

// node returns the decoded node for a page id PINNED, faulting it in from
// the dirty-page table, the recycling lists or the store on a miss.
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
	// the table (writers, who change it, hold the guard exclusively). A node
	// still on the recycling lists holds the store's image itself, so it is
	// re-admitted too: no read, no parse.
	n := db.dirty[id]
	if n == nil {
		n = db.readmit(id)
	}
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

// The recycling lists are a victim cache: a node that becomes unreachable —
// a clean eviction, or a parked node the checkpoint has written — is RETIRED,
// an exclusive acquisition of the guard makes it FREE, and until takeNode hands
// it to another page it stays decoded, indexed by its page id (db.kept), for a
// fault on that page to re-admit. Each list is a ring of slots in db.slots
// through a sentinel of its own, in the order its nodes joined it: the retired
// list's sentinel is slot 0, each free class has one. So a node leaves its
// list from anywhere in O(1), and the oldest of a list is its sentinel's next.
type slot struct {
	n          *btree.Node
	prev, next int32
}

// retiredRing is the retired list's sentinel slot. Slot 0 is never spare, so
// a db.spare of 0 means none.
const retiredRing = 0

// freeClass is the list of the free nodes whose buffers have capacity size:
// an allocator size class (every node buffer is allocated by append), or 0 for
// a node that never held an entry. The classes are few.
type freeClass struct {
	size int
	ring int32
}

func classCmp(c freeClass, size int) int { return c.size - size }

// attach appends slot s to the ring with sentinel r; detach takes it off its
// ring. Caller holds db.evmu.
func (db *DB) attach(r, s int32) {
	last := db.slots[r].prev
	db.slots[s].prev, db.slots[s].next = last, r
	db.slots[last].next = s
	db.slots[r].prev = s
}

func (db *DB) detach(s int32) {
	prev, next := db.slots[s].prev, db.slots[s].next
	db.slots[prev].next = next
	db.slots[next].prev = prev
}

// unlink takes slot s's node off the lists and out of the index, and spares
// the slot. Caller holds db.evmu.
func (db *DB) unlink(s int32) *btree.Node {
	n := db.slots[s].n
	db.detach(s)
	delete(db.kept, n.ID)
	db.slots[s] = slot{next: db.spare}
	db.spare = s
	return n
}

// retire puts a node that just became unreachable on the retired list, unless
// the lists are full (db.keep): that node is left to the garbage collector.
// Caller holds db.evmu.
func (db *DB) retire(n *btree.Node) {
	if len(db.kept) >= db.keep {
		db.cDropped.Inc()
		return
	}
	s := db.spare
	if s == 0 {
		s = int32(len(db.slots))
		db.slots = append(db.slots, slot{})
	} else {
		db.spare = db.slots[s].next
	}
	db.slots[s].n = n
	db.attach(retiredRing, s)
	db.kept[n.ID] = s
}

// readmit takes page id's node off the lists for the fault that re-admits it,
// or returns nil if no list holds one. Retired or free, the node's bytes are
// that page's and unchanged, so no quiescence is needed: whatever still reads
// them reads what it read before.
func (db *DB) readmit(id uint32) *btree.Node {
	db.evmu.Lock()
	s, ok := db.kept[id]
	var n *btree.Node
	if ok {
		n = db.unlink(s)
	}
	db.evmu.Unlock()
	if ok {
		db.cReadmitted.Inc()
	}
	return n
}

// reclaim moves the retired nodes to the free list, each onto its buffer
// capacity's class, in the order they retired. The caller has JUST acquired
// db.mu exclusively, and that is the proof: every alias of a node's bytes —
// Core.Get's value after its Release, a Scan callback's argument, a View read —
// lives inside one hold of the guard; no hold that starts after a node's
// retirement can reach it; and this acquisition waited out every hold that
// started before.
func (db *DB) reclaim() {
	db.evmu.Lock()
	defer db.evmu.Unlock()
	for s := db.slots[retiredRing].next; s != retiredRing; s = db.slots[retiredRing].next {
		size := cap(db.slots[s].n.Buf)
		i, ok := slices.BinarySearchFunc(db.free, size, classCmp)
		if !ok {
			r := int32(len(db.slots))
			db.slots = append(db.slots, slot{prev: r, next: r})
			db.free = slices.Insert(db.free, i, freeClass{size: size, ring: r})
		}
		db.detach(s)
		db.attach(db.free[i].ring, s)
	}
}

// firstFree returns the first class from i up that holds a node, or
// len(db.free). Caller holds db.evmu.
func (db *DB) firstFree(i int) int {
	for i < len(db.free) && db.slots[db.free[i].ring].next == db.free[i].ring {
		i++
	}
	return i
}

// takeNode obtains the node a fault will parse into, its Buf size bytes long:
// the oldest free node with the smallest buffer that holds the record — a
// leaf's spare room is where its inserts grow — or a new one. Oldest, because
// the newest is the likeliest to be faulted again, and re-admitted.
func (db *DB) takeNode(size int) *btree.Node {
	db.evmu.Lock()
	i, _ := slices.BinarySearchFunc(db.free, size, classCmp)
	var n *btree.Node
	if i = db.firstFree(i); i < len(db.free) {
		n = db.unlink(db.slots[db.free[i].ring].next)
	}
	db.evmu.Unlock()
	if n == nil {
		db.cFresh.Inc()
		// append rounds the capacity up to the allocator's size class, so the
		// buffer can later serve any record of its class.
		return &btree.Node{Buf: append([]byte(nil), make([]byte, size)...)}
	}
	if poisonRecycled != nil {
		poisonRecycled(n) // the node is another page's from here on
	}
	db.cRecycled.Inc()
	n.Buf = n.Buf[:size]
	return n
}

// poisonRecycled, set by this package's tests only, overwrites what a node
// owns the moment it is handed to another page: a read that outlived its
// guard hold then returns garbage, and is a write/read race under -race.
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

// freeNode releases a page: its frame (decoded node included), its parked
// node or its node on the recycling lists is dropped — pins too, Free is an
// ownership statement; the version bump turns outstanding Releases into
// no-ops — and its table entry becomes nil, so the next commit writes a store
// tombstone if the page had ever been committed. A reallocated id must never
// re-admit the old page's node. Caller holds db.mu exclusively.
func (db *DB) freeNode(id uint32) {
	db.pool.FreePage(id)
	db.evmu.Lock()
	if s, ok := db.kept[id]; ok {
		db.unlink(s)
	}
	db.evmu.Unlock()
	db.ids.Free(id)
	db.dirty[id] = nil
	db.metaDirty = true
}
