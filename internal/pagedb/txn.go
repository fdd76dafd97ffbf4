package pagedb

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/obs"
	"repro/internal/wal"
)

// ErrTxnDone is returned by operations on a committed or rolled-back
// transaction.
var ErrTxnDone = errors.New("pagedb: transaction already finished")

// Txn is a per-transaction unit of durability — the granularity the big
// atomic Commit batch cannot offer. A transaction buffers its writes
// privately (no-steal: nothing touches the shared trees until Commit, so
// a checkpoint can never capture uncommitted state), reads through its
// own buffer onto the committed state, and on Commit appends its ops to
// the write-ahead log and applies them to the trees in one critical
// section — WAL seq order is exactly apply order, so replay after a crash
// reconstructs the same state. Durability comes from the log's group
// fsync: many small transactions coalesce onto one fsync round, while
// their dirty pages write back lazily through the next checkpoint
// (DB.Commit).
//
// A Txn is NOT safe for concurrent use by multiple goroutines; different
// transactions are. Conflict handling is the caller's problem (last
// writer wins, as with direct Tree access) — this layer buys atomicity
// and durability, not isolation: of two overlapping read-modify-writes of
// one key, the first update is lost (TestOverlappingTxnsLoseAnUpdate).
type Txn struct {
	db   *DB
	id   uint64
	done bool
	// The transaction's working memory: the DB's before Begin and again after
	// Commit or Rollback (finish), nil from then on — a finished Txn answers
	// ErrTxnDone and keeps nothing.
	*txnScratch
}

// txnScratch is what a transaction needs only while it runs. It is recycled
// from one transaction to the next through DB.scratch, handed back empty.
type txnScratch struct {
	// ops is the redo list in call order — exactly what the WAL logs and
	// Commit applies. Overwrites stay as two entries; replay converges
	// because it applies in the same order.
	ops  []wal.Op
	vals []byte // the staged put values, back to back: ops' values slice it

	// writes overlays the committed state for this transaction's own
	// reads: the staged final value (or tombstone) per tree and key. It is
	// derived from ops, and only when a read needs it (overlay): overlaid
	// counts the ops folded in so far, so a transaction that only writes
	// fills no map at all.
	writes   map[txnKey]txnWrite
	overlaid int

	keys []uint64 // Scan's staged keys in range
}

type txnKey struct {
	tree string
	key  uint64
}

// txnWrite distinguishes a staged put (any value, nil included) from a
// staged delete.
type txnWrite struct {
	del bool
	val []byte
}

// maxScratchOps and maxScratchVals bound the op list and the staged values a
// recycled scratch keeps: one huge transaction must not size every later one's.
const maxScratchOps, maxScratchVals = 1024, 256 << 10

// Begin starts a transaction. Read-only transactions are free: Commit
// with no buffered writes touches neither the log nor the trees.
func (db *DB) Begin() (*Txn, error) {
	db.mu.RLock()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	sc, _ := db.scratch.Get().(*txnScratch)
	if sc == nil {
		sc = new(txnScratch)
	}
	return &Txn{db: db, id: db.txnIDs.Add(1), txnScratch: sc}, nil
}

// finish ends the transaction and returns its scratch with no trace of it
// left: the trees have copied the staged values, or never will, so the next
// transaction overwrites them, and no op may still point at them or name a tree.
func (t *Txn) finish() {
	sc := t.txnScratch
	t.done, t.txnScratch = true, nil
	if cap(sc.ops) > maxScratchOps || cap(sc.vals) > maxScratchVals {
		return
	}
	clear(sc.ops)
	sc.ops, sc.vals, sc.overlaid = sc.ops[:0], sc.vals[:0], 0
	clear(sc.writes)
	t.db.scratch.Put(sc)
}

// ID returns the transaction's id (unique for the DB's lifetime,
// including across reopens — ids resume past everything in the log).
func (t *Txn) ID() uint64 { return t.id }

// overlay brings the read-your-writes map up to date with ops.
func (t *Txn) overlay() {
	for _, op := range t.ops[t.overlaid:] {
		if t.writes == nil {
			t.writes = make(map[txnKey]txnWrite)
		}
		t.writes[txnKey{op.Tree, op.Key}] = txnWrite{del: op.Kind == wal.OpDelete, val: op.Value}
	}
	t.overlaid = len(t.ops)
}

// Put stages value under key in the named tree (created at Commit if
// missing). The value is copied into recycled staging memory, which the tree
// copies from at Commit; limits are checked now so Commit cannot fail on a
// malformed write long after the caller moved on.
func (t *Txn) Put(tree string, key uint64, value []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if tree == "" {
		return fmt.Errorf("pagedb: empty tree name")
	}
	if err := btree.PageLayout.CheckValue(value, t.db.pageSize); err != nil {
		return err
	}
	start := len(t.vals)
	t.vals = append(t.vals, value...)
	t.ops = append(t.ops, wal.Op{Kind: wal.OpPut, Tree: tree, Key: key, Value: t.vals[start:len(t.vals):len(t.vals)]})
	return nil
}

// Delete stages the removal of key and reports whether the key currently
// exists in this transaction's view. The removal is logged regardless —
// redo must be deterministic whatever commits in between.
func (t *Txn) Delete(tree string, key uint64) (bool, error) {
	if t.done {
		return false, ErrTxnDone
	}
	_, existed, err := t.get(tree, key, false)
	if err != nil {
		return false, err
	}
	t.ops = append(t.ops, wal.Op{Kind: wal.OpDelete, Tree: tree, Key: key})
	return existed, nil
}

// Get returns the value under key as this transaction sees it: its own
// staged writes first, the committed state beneath. The value is a copy.
func (t *Txn) Get(tree string, key uint64) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxnDone
	}
	return t.get(tree, key, true)
}

// get is Get's lookup; without want it reports only whether key exists.
func (t *Txn) get(tree string, key uint64, want bool) ([]byte, bool, error) {
	t.overlay()
	if w, ok := t.writes[txnKey{tree, key}]; ok {
		if w.del || !want {
			return nil, !w.del, nil
		}
		return append([]byte(nil), w.val...), true, nil
	}
	return t.db.readGet(tree, key, want)
}

// Scan visits keys in [from, to] in order as this transaction sees them:
// staged writes merged over the committed state, tombstones suppressing
// base keys. The value passed to fn must not be retained; fn must not
// call back into the DB.
func (t *Txn) Scan(tree string, from, to uint64, fn func(key uint64, value []byte) bool) error {
	if t.done {
		return ErrTxnDone
	}
	t.overlay()
	keys := t.keys[:0]
	for k := range t.writes {
		if k.tree == tree && k.key >= from && k.key <= to {
			keys = append(keys, k.key)
		}
	}
	t.keys = keys
	if len(keys) == 0 {
		// Nothing staged in range: the committed state is the whole answer.
		return t.db.readScan(tree, from, to, fn)
	}
	slices.Sort(keys)
	i, stopped := 0, false
	// staged passes fn the staged keys not yet visited, up to limit if bounded.
	staged := func(limit uint64, bounded bool) {
		for ; !stopped && i < len(keys) && !(bounded && keys[i] >= limit); i++ {
			if w := t.writes[txnKey{tree, keys[i]}]; !w.del {
				stopped = !fn(keys[i], w.val)
			}
		}
	}
	err := t.db.readScan(tree, from, to, func(k uint64, v []byte) bool {
		staged(k, true)
		if !stopped && i < len(keys) && keys[i] == k { // staged over committed
			w := t.writes[txnKey{tree, k}]
			i++
			if w.del {
				return true
			}
			v = w.val
		}
		stopped = stopped || !fn(k, v)
		return !stopped
	})
	if err != nil {
		return err
	}
	staged(0, false)
	return nil
}

// Commit makes the transaction durable and visible: its ops are appended
// to the WAL and applied to the shared trees under the exclusive lock
// (one critical section, so apply order equals log order), then the call
// waits OUTSIDE the lock for the log's group fsync — concurrent
// committers coalesce onto shared rounds, readers and other writers
// proceed during the sync. With the store below DurCommit the wait is
// free and durability degrades exactly like the rest of the engine.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	defer t.finish()
	if len(t.ops) == 0 {
		return nil
	}
	db := t.db
	// The span tree attributes the commit's latency to its legs: lock
	// acquisition, WAL append, tree apply, then the group-fsync wait. A
	// commit that crosses the slow-op threshold lands in the registry's
	// slow-op ring with this breakdown intact.
	sp := obs.StartSpan(db.obsReg, "txn.commit")
	defer sp.End()
	leg := sp.Child("lock.wait")
	db.lock()
	leg.End()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	leg = sp.Child("wal.append")
	seq, err := db.wal.Append(t.id, t.ops)
	leg.End()
	if err != nil {
		db.mu.Unlock()
		return err
	}
	// The log accepted the transaction: from here on it WILL exist after a
	// crash, so an apply failure (a fault mid-split) is reported but does
	// not un-log it — reopen replays it whole.
	leg = sp.Child("tree.apply")
	err = db.applyOps(t.ops)
	leg.End()
	db.txns++
	db.mu.Unlock()
	if err != nil {
		return err
	}
	leg = sp.Child("wal.commit")
	err = db.wal.Commit(seq)
	leg.End()
	return err
}

// Rollback abandons the transaction: nothing was logged, nothing touched
// the shared trees. Always succeeds on a live transaction.
func (t *Txn) Rollback() error {
	if t.done {
		return ErrTxnDone
	}
	t.finish()
	return nil
}

// applyOps replays a transaction's ops onto the shared trees, in order.
// Caller holds db.mu exclusively (or is Open's replay, pre-concurrency).
// The semantics are redo-idempotent: put creates the tree if missing and a
// delete of something absent is a no-op, so replaying an already-checkpointed
// suffix converges to the same state. Each run of consecutive puts to one
// tree is applied one leaf at a time (putRunLocked).
// The put values are borrowed — a transaction's staging buffer, or replay's
// slices of the whole log file — and the trees copy them.
func (db *DB) applyOps(ops []wal.Op) error {
	for i := 0; i < len(ops); i++ {
		switch op := ops[i]; op.Kind {
		case wal.OpPut:
			tr, err := db.treeLocked(op.Tree)
			if err != nil {
				return err
			}
			j := i + 1
			for j < len(ops) && ops[j].Kind == wal.OpPut && ops[j].Tree == op.Tree {
				j++
			}
			if err := tr.putRunLocked(ops[i:j]); err != nil {
				return err
			}
			i = j - 1
		case wal.OpDelete:
			tr, ok := db.trees[op.Tree]
			if !ok {
				continue
			}
			if _, err := tr.deleteLocked(op.Key); err != nil {
				return err
			}
		default:
			return fmt.Errorf("pagedb: unknown wal op kind %v", op.Kind)
		}
	}
	return nil
}

// readGet is the shared-guard point read transactions build on:
// tree missing reads as key missing (a Txn must not create trees as a
// side effect of reading). The value is copied out if want, and otherwise
// only looked for.
func (db *DB) readGet(tree string, key uint64, want bool) ([]byte, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	tr, ok := db.trees[tree]
	if !ok {
		return nil, false, nil
	}
	v, ok, err := tr.core.Get(key)
	if !ok || !want {
		return nil, ok, err
	}
	return append([]byte(nil), v...), ok, err
}

// readScan is readGet's range sibling.
func (db *DB) readScan(tree string, from, to uint64, fn func(uint64, []byte) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	tr, ok := db.trees[tree]
	if !ok {
		return nil
	}
	return tr.core.Scan(from, to, fn)
}
