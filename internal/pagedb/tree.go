package pagedb

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/wal"
)

// Tree is a named B+-tree of a DB: uint64 keys, opaque []byte values, one
// store page per node. Handles stay valid until the tree is dropped or the
// DB is closed, and are safe for concurrent use: reads (Get, GetInto, Scan,
// Len, Height, CheckInvariants) share the DB's read guard and run
// concurrently with each other; mutations serialize on the write side.
//
// A Tree holds NO tree algorithm of its own: it is a thin adapter — lock,
// guard, copying values out, metadata bookkeeping — around the unified
// btree.Core instantiated over this DB's store-backed NodeStore (node.go).
// Insert/split, delete with borrow+merge rebalancing, scans and the
// invariant checker are the exact code the in-memory engine runs.
type Tree struct {
	db      *DB
	name    string
	core    *btree.Core
	dropped bool
}

// Tree returns the named tree, creating it (with an empty root leaf) if it
// does not exist. The creation is durable at the next Commit.
func (db *DB) Tree(name string) (*Tree, error) {
	db.lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	return db.treeLocked(name)
}

// treeLocked is Tree's body: get-or-create under the exclusive lock, also
// the unit transaction apply and WAL replay build trees from.
func (db *DB) treeLocked(name string) (*Tree, error) {
	if name == "" {
		return nil, fmt.Errorf("pagedb: empty tree name")
	}
	if t, ok := db.trees[name]; ok {
		return t, nil
	}
	core, err := btree.NewCore(nodeStore{db}, db.pageSize, btree.PageLayout)
	if err != nil {
		return nil, err
	}
	t := &Tree{db: db, name: name, core: core}
	db.trees[name] = t
	db.order = append(db.order, name)
	db.metaDirty = true
	return t, nil
}

// DropTree deletes a named tree, freeing every page it owns. Outstanding
// handles to it fail all further operations.
func (db *DB) DropTree(name string) error {
	db.lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.dropTreeLocked(name)
}

// dropTreeLocked is DropTree's body, shared with transaction apply.
func (db *DB) dropTreeLocked(name string) error {
	t, ok := db.trees[name]
	if !ok {
		return fmt.Errorf("pagedb: no tree %q", name)
	}
	// Collect the whole subtree BEFORE freeing anything: a walk failure
	// then leaves the tree fully registered and intact (retryable), never
	// half-freed with unreachable pages leaked.
	pages, err := t.core.CollectPages()
	if err != nil {
		return err
	}
	for _, id := range pages {
		db.freeNode(id)
	}
	t.dropped = true
	delete(db.trees, name)
	for i, n := range db.order {
		if n == name {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	db.metaDirty = true
	return nil
}

func (t *Tree) guard() error {
	if t.db.closed {
		return ErrClosed
	}
	if t.dropped {
		return fmt.Errorf("pagedb: tree %q was dropped", t.name)
	}
	return nil
}

// Name returns the tree's registry name.
func (t *Tree) Name() string { return t.name }

// Len returns the number of keys stored.
func (t *Tree) Len() int {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.core.Len()
}

// Height returns the tree height (1 for a lone leaf).
func (t *Tree) Height() int {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.core.Height()
}

// Get returns a copy of the value stored under key. Reads take only the
// shared guard, so any number of Gets run concurrently; dirty pages their
// faults evict are parked for the next checkpoint.
func (t *Tree) Get(key uint64) ([]byte, bool, error) {
	v, ok, err := t.GetInto(key, nil)
	return v, ok, err
}

// GetInto is Get with caller-supplied value storage: the value is appended
// to dst[:0] and returned, so a reader looping over keys can reuse one
// buffer and allocate nothing once it is warm. ok=false leaves dst's
// contents untouched and returns dst[:0].
func (t *Tree) GetInto(key uint64, dst []byte) ([]byte, bool, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	if err := t.guard(); err != nil {
		return nil, false, err
	}
	v, ok, err := t.core.Get(key)
	// Copy while the read guard is held: v aliases the node, whose frame is
	// already unpinned — the guard is what keeps writers out until we're
	// done with it.
	dst = dst[:0]
	if ok {
		dst = append(dst, v...)
	}
	return dst, ok, err
}

// Put stores a copy of value under key, replacing any existing value.
func (t *Tree) Put(key uint64, value []byte) error {
	t.db.lock()
	defer t.db.mu.Unlock()
	return t.putRunLocked([]wal.Op{{Key: key, Value: value}})
}

// putRunLocked applies puts to this tree in order — Put's one, or a run of a
// transaction's apply or WAL replay — with one descent per leaf they touch
// (btree.Core.InsertRun). The values are borrowed: the tree copies them.
func (t *Tree) putRunLocked(ops []wal.Op) error {
	if err := t.guard(); err != nil {
		return err
	}
	added, err := t.core.InsertRun(len(ops), func(i int) (uint64, []byte) { return ops[i].Key, ops[i].Value })
	if added > 0 {
		t.db.metaDirty = true // the persisted entry count changed
	}
	return err
}

// Delete removes key, rebalancing underfull nodes (borrow from a richer
// sibling first, merge where a neighbor fits). It reports whether the key
// existed.
func (t *Tree) Delete(key uint64) (bool, error) {
	t.db.lock()
	defer t.db.mu.Unlock()
	return t.deleteLocked(key)
}

// deleteLocked is Delete's body, shared with transaction apply and WAL
// replay.
func (t *Tree) deleteLocked(key uint64) (bool, error) {
	if err := t.guard(); err != nil {
		return false, err
	}
	deleted, err := t.core.Delete(key)
	if deleted {
		t.db.metaDirty = true
	}
	return deleted, err
}

// Scan visits keys in [from, to] in order, stopping early if fn returns
// false. The value slice passed to fn is the tree's internal copy: fn must
// not modify or retain it, and must not call back into the DB. Scans share
// the read guard and run concurrently with Gets and other Scans.
func (t *Tree) Scan(from, to uint64, fn func(key uint64, value []byte) bool) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	if err := t.guard(); err != nil {
		return err
	}
	return t.core.Scan(from, to, fn)
}

// CheckInvariants validates the tree's structural invariants — the same
// unified checker (btree.Core.Check) the in-memory tree runs: sorted and
// bounded keys, uniform leaf depth, byte accounting within the page
// budget, leaf chain and count agreement.
func (t *Tree) CheckInvariants() error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	if err := t.guard(); err != nil {
		return err
	}
	return t.core.Check()
}
