// Package btree implements a page-based B+-tree storage engine: the kind of
// engine the paper ran TPC-C against to collect its I/O traces (§6.3).
//
// There is exactly ONE tree algorithm in this repository — the Core of
// core.go, written against node ids and a fallible NodeStore accessor — and
// two stores instantiate it:
//
//   - the infallible in-memory store of this file, behind Tree: nodes stay
//     in memory — a leaf's entries in their page image format, as in every
//     store — sized by a byte budget derived from the page size so fanout
//     and page-write patterns track a real disk layout.
//     The cache model in front of the tree (bufferpool.Model) records which
//     pages are read and dirtied, and the resulting page-write trace — not
//     the bytes — is what the log-structure simulator consumes;
//   - internal/pagedb's store-backed node cache, where Fetch faults page
//     images in from the log-structured store (ParseNode, in place) and
//     MarkDirty feeds the commit batch.
//
// Every node access of a Tree is routed through the model: fetches, and the
// Core's repeat visits to a node it holds (NodeStore.Touch), Touch the node's
// page, mutations Dirty it. Structural changes (splits, merges,
// root changes) allocate and free page ids through it so that all trees of
// a database share one page id space, which starts at 1: id 0 is the Core's
// nil leaf-chain link.
//
// # The fused NodeStore Fetch/Release contract
//
// The Core accesses nodes exclusively through the NodeStore interface, and
// every access is bracketed: Fetch returns the node PINNED — the store must
// keep the pointer valid and its mutations durable-trackable until the
// matching Release — and the Core guarantees that by the time any operation
// returns (error paths included) it has Released every node it Fetched.
// The protocol is FUSED: a store that keeps decoded nodes inside its buffer
// pool frames (pagedb) serves Fetch as one combined lookup-and-pin
// (bufferpool.FetchPinned) and stamps the node's Pin handle, so Release(n)
// drops the pin through the handle with no id lookup — one cache
// acquisition per node visit instead of the three (cache lookup, Pin,
// Unpin) a layered node cache pays. Pins nest, Free discards the freed
// node's pins, and Release of a node whose id was freed is a no-op (the
// handle's version stamp no longer matches the recycled frame). This
// discipline is what lets a store reclaim memory safely underneath the
// tree: pagedb's buffer pool evicts only unpinned frames, so concurrent
// readers can fault and evict against each other without ever pulling a
// node out from under an in-flight operation. A store whose nodes cannot
// disappear (the in-memory one here) implements Release as a no-op and
// loses nothing.
//
// Concurrency: a Tree belongs to one goroutine at a time, reads included —
// a Get moves the cache model's reference bits and hand, and the model is
// single-threaded. The Core itself is as concurrent as its NodeStore:
// pagedb runs readers in parallel over its own.
package btree

import (
	"fmt"

	"repro/internal/bufferpool"
)

// Tree is a B+-tree keyed by uint64 with opaque []byte values: the unified
// Core instantiated over the infallible in-memory store. Operations cannot
// fail, so the API is error-free; an error out of the store would be a
// corruption bug and panics.
type Tree struct {
	core  *Core
	store *memStore
}

// New creates an empty tree whose pages live in pool and are budgeted at
// pageSize bytes.
func New(pool *bufferpool.Model, pageSize int) *Tree {
	if pageSize < 256 {
		panic(fmt.Sprintf("btree: page size %d too small", pageSize))
	}
	store := &memStore{pool: pool}
	core, err := NewCore(store, pageSize, MemLayout)
	if err != nil {
		panic(fmt.Sprintf("btree: %v", err)) // unreachable: memStore is infallible
	}
	return &Tree{core: core, store: store}
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.core.Len() }

// Height returns the tree height (1 for a lone leaf).
func (t *Tree) Height() int { return t.core.Height() }

// Get returns the value stored under key: a slice of its leaf's buffer, which
// the next write to the leaf may overwrite or move, so copy it to keep it.
func (t *Tree) Get(key uint64) ([]byte, bool) {
	v, ok, err := t.core.Get(key)
	if err != nil {
		panic(fmt.Sprintf("btree: %v", err))
	}
	return v, ok
}

// Insert stores a copy of value under key, replacing any existing value.
func (t *Tree) Insert(key uint64, value []byte) {
	if _, err := t.core.Insert(key, value); err != nil {
		panic(fmt.Sprintf("btree: %v", err))
	}
}

// Delete removes key, rebalancing on the way back up. It reports whether
// the key existed.
func (t *Tree) Delete(key uint64) bool {
	deleted, err := t.core.Delete(key)
	if err != nil {
		panic(fmt.Sprintf("btree: %v", err))
	}
	return deleted
}

// Scan visits keys in [from, to] in order, stopping early if fn returns
// false.
func (t *Tree) Scan(from, to uint64, fn func(key uint64, value []byte) bool) {
	if err := t.core.Scan(from, to, fn); err != nil {
		panic(fmt.Sprintf("btree: %v", err))
	}
}

// CheckInvariants validates the tree's structural invariants (Core.Check).
func (t *Tree) CheckInvariants() error { return t.core.Check() }

// memStore is the infallible in-memory NodeStore: nodes are Go values held
// in a slice indexed by page id (dense — the pool allocates ids
// sequentially), and residency/replacement is delegated to the model. A
// "miss" cannot happen: the slice IS the storage; the pool only models
// which pages would be resident, producing the page-write trace.
type memStore struct {
	pool  *bufferpool.Model
	nodes []*Node // indexed by id; nil = not this tree's node
}

func (s *memStore) Alloc() (uint32, error) {
	id := s.pool.Allocate()
	for int(id) >= len(s.nodes) {
		s.nodes = append(s.nodes, nil)
	}
	s.nodes[id] = &Node{ID: id}
	return id, nil
}

func (s *memStore) Fetch(id uint32) (*Node, error) {
	if nodes := s.nodes; int(id) < len(nodes) {
		if n := nodes[id]; n != nil {
			s.pool.Touch(id)
			return n, nil
		}
	}
	return nil, fmt.Errorf("node %d is not part of this tree", id)
}

// Release is a no-op: in-memory nodes can never be reclaimed mid-use, so
// the pin protocol costs nothing here.
func (s *memStore) Release(*Node) {}

func (s *memStore) MarkDirty(n *Node) { s.pool.Dirty(n.ID) }

func (s *memStore) Touch(n *Node) { s.pool.Touch(n.ID) }

func (s *memStore) Free(id uint32) error {
	if int(id) < len(s.nodes) {
		s.nodes[id] = nil
	}
	s.pool.FreePage(id)
	return nil
}
