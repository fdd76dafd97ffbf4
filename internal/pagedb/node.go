package pagedb

import (
	"fmt"
	"time"

	"repro/internal/btree"
	"repro/internal/bufferpool"
)

// This engine holds its decoded B+-tree nodes INSIDE the buffer pool's
// frames (the fused decoded-object slot): residency, replacement, pinning
// and the decoded node live in one place, so the hot read path is a single
// shard acquisition per tree level (bufferpool.FetchPinned) instead of the
// separate cache-lookup/Pin/Unpin round trips a layered node cache costs.
// A node's durable form is the btree.NodePage image; a dirty-evicted node
// parks, still decoded, in the eviction queue (db.evq) until a fault
// re-admits it or the checkpoint encodes it. The tree ALGORITHM lives entirely in internal/btree's
// Core; this file supplies the store side: the fallible NodeStore that
// faults nodes through the pool and the log-structured store, implementing
// the fused Fetch/Release pin protocol so concurrent readers can fault and
// evict against each other safely.

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

// MarkDirty re-arms the dirty bit on a node's resident frame (mutations
// only happen under db.mu's write side, where the target is pinned and
// therefore resident).
func (s nodeStore) MarkDirty(id uint32) { s.db.pool.Dirty(id) }

func (s nodeStore) Free(id uint32) error {
	s.db.freeNode(id)
	return nil
}

// node returns the decoded node for a page id PINNED, faulting it in from
// the eviction queue or the store on a miss.
//
// The hot path is ONE pool-shard acquisition: FetchPinned returns the
// frame's decoded node already pinned. The miss path serializes on a
// per-shard fault mutex so that when N readers miss the same page
// together, exactly one pays the ReadPage+decode and the rest adopt its
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
	// stale — and is re-admitted DIRTY, as it left, so the checkpoint's
	// flush still finds it.
	db.evmu.Lock()
	n, queued := db.evq[id]
	if queued {
		delete(db.evq, id)
	}
	db.evmu.Unlock()
	if queued {
		obj, _ := db.pool.InstallPinned(id, true, func(h bufferpool.Handle) any {
			n.Pin = h
			return n
		})
		return obj.(*btree.Node), nil
	}
	img := db.imgPool.Get().([]byte)
	t0 := time.Now()
	if err := db.st.ReadPage(id, img); err != nil {
		db.imgPool.Put(img)
		return nil, fmt.Errorf("pagedb: faulting page %d: %w", id, err)
	}
	db.hFault.Record(uint64(time.Since(t0)))
	db.faults.Add(1)
	n, err := btree.DecodeNodeImage(id, img, btree.PageLayout)
	// DecodeNodeImage copies everything it keeps out of the image.
	db.imgPool.Put(img)
	if err != nil {
		return nil, fmt.Errorf("pagedb: decoding page %d: %w", id, err)
	}
	// Bind runs under the frame's shard lock BEFORE the node is published,
	// so no fused reader can observe the node without its handle set.
	obj, _ := db.pool.InstallPinned(id, false, func(h bufferpool.Handle) any {
		n.Pin = h
		return n
	})
	return obj.(*btree.Node), nil
}

// allocNode creates a fresh blank node on a newly allocated page id
// (resident and dirty, but NOT pinned — the core Fetches a fresh id right
// after Alloc, and that Fetch takes the pin); the core stamps its kind.
// Caller holds db.mu exclusively.
func (db *DB) allocNode() *btree.Node {
	id := db.pool.Allocate()
	// A reused id may carry residue from its previous life: a pending free
	// or a parked node. Both are superseded by reallocation.
	delete(db.freed, id)
	db.evmu.Lock()
	delete(db.evq, id)
	db.evmu.Unlock()
	n := &btree.Node{ID: id}
	db.pool.Install(id, true, func(h bufferpool.Handle) any {
		n.Pin = h
		return n
	})
	db.metaDirty = true
	return n
}

// freeNode releases a page: its frame (decoded node included) or its
// parked node is dropped — pins too, Free is an ownership statement; the
// version bump turns outstanding Releases into no-ops — and the next
// commit writes a store tombstone if the page had ever been committed.
// Caller holds db.mu exclusively.
func (db *DB) freeNode(id uint32) {
	db.evmu.Lock()
	delete(db.evq, id)
	db.evmu.Unlock()
	db.pool.FreePage(id)
	db.freed[id] = true
	db.metaDirty = true
}
