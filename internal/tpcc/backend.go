package tpcc

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/bufferpool"
)

// Backend is the storage a TPC-C engine runs against: a set of named keyed
// tables plus a commit (checkpoint) boundary. The built-in in-memory
// backend (btree + bufferpool, via NewEngine) produces the page-write
// traces of the paper's §6.3; a durable backend (internal/pagedb over the
// log-structured store, via NewBackend) runs the same transaction logic
// against real storage.
type Backend interface {
	// Table returns the named table, creating it if needed.
	Table(name string) (Table, error)
	// Commit is the engine's checkpoint boundary (Config.CheckpointEveryTx):
	// the in-memory backend flushes its buffer pool, a durable backend
	// commits an atomic batch.
	Commit() error
}

// Table is one keyed TPC-C table.
type Table interface {
	Get(key uint64) ([]byte, bool, error)
	Put(key uint64, value []byte) error
	Delete(key uint64) (bool, error)
	// Scan visits keys in [from, to] in order until fn returns false.
	Scan(from, to uint64, fn func(key uint64, value []byte) bool) error
	Len() int
}

// The nine TPC-C tables plus the two secondary indexes, in the fixed
// creation order that keeps in-memory page allocation (and so the §6.3
// trace) deterministic.
var tableNames = []string{
	"warehouse", "district", "customer", "custName", "orders",
	"orderCust", "newOrder", "orderLine", "history", "item", "stock",
}

// NewBackend adapts any database exposing named trees and a commit — e.g.
// *pagedb.DB via NewBackend(db.Tree, db.Commit) — to the Backend interface.
func NewBackend[T Table](table func(name string) (T, error), commit func() error) Backend {
	return funcBackend[T]{table: table, commit: commit}
}

type funcBackend[T Table] struct {
	table  func(string) (T, error)
	commit func() error
}

func (b funcBackend[T]) Table(name string) (Table, error) { return b.table(name) }
func (b funcBackend[T]) Commit() error                    { return b.commit() }

// Txn is one storage transaction: table operations addressed by name, made
// durable atomically by Commit (on pagedb, a WAL group-commit — many
// concurrent transactions share one fsync) or abandoned by Rollback. The
// method set structurally matches *pagedb.Txn.
type Txn interface {
	Get(table string, key uint64) ([]byte, bool, error)
	Put(table string, key uint64, value []byte) error
	Delete(table string, key uint64) (bool, error)
	Scan(table string, from, to uint64, fn func(key uint64, value []byte) bool) error
	Commit() error
	Rollback() error
}

// TxnBackend is a Backend that also offers per-transaction durability.
// When a backend implements it, RunConcurrent wraps every TPC-C
// transaction in one storage transaction instead of relying solely on the
// periodic checkpoint batch (Backend.Commit still runs every
// CheckpointEveryTx as the page write-back / log-truncation boundary).
type TxnBackend interface {
	Backend
	Begin() (Txn, error)
}

// NewTxnBackend is NewBackend plus a transaction constructor — e.g.
// NewTxnBackend(db.Tree, db.Commit, db.Begin) for *pagedb.DB.
func NewTxnBackend[T Table, X Txn](table func(name string) (T, error), commit func() error, begin func() (X, error)) TxnBackend {
	return txnFuncBackend[T, X]{funcBackend[T]{table: table, commit: commit}, begin}
}

type txnFuncBackend[T Table, X Txn] struct {
	funcBackend[T]
	begin func() (X, error)
}

func (b txnFuncBackend[T, X]) Begin() (Txn, error) { return b.begin() }

// txnTable binds one table's operations to an open transaction: the
// rebound engine's reads see the transaction's own writes, and nothing
// reaches the shared trees until Commit. Len stays on the base table — it
// is a load/test-side measure, never used inside a transaction body.
type txnTable struct {
	x    Txn
	name string
	base Table
}

func (t txnTable) Get(key uint64) ([]byte, bool, error) { return t.x.Get(t.name, key) }
func (t txnTable) Put(key uint64, value []byte) error   { return t.x.Put(t.name, key, value) }
func (t txnTable) Delete(key uint64) (bool, error)      { return t.x.Delete(t.name, key) }
func (t txnTable) Scan(from, to uint64, fn func(uint64, []byte) bool) error {
	return t.x.Scan(t.name, from, to, fn)
}
func (t txnTable) Len() int { return t.base.Len() }

// memBackend is the built-in trace-generating backend: one B+-tree per
// table over a shared CLOCK cache model.
type memBackend struct {
	pool     *bufferpool.Model
	pageSize int
	tables   map[string]memTable
}

func newMemBackend(pool *bufferpool.Model, pageSize int) *memBackend {
	return &memBackend{pool: pool, pageSize: pageSize, tables: make(map[string]memTable)}
}

func (b *memBackend) Table(name string) (Table, error) {
	if t, ok := b.tables[name]; ok {
		return t, nil
	}
	t := memTable{t: btree.New(b.pool, b.pageSize)}
	b.tables[name] = t
	return t, nil
}

func (b *memBackend) Commit() error {
	b.pool.FlushDirty()
	return nil
}

// memTable adapts the in-memory B+-tree to the Table interface. This is
// the in-memory instantiation of the same unified tree core the pagedb
// backend runs (btree.Core over its two NodeStores), so the cross-engine
// equivalence test compares storage stacks, never tree algorithms. The
// btree operations cannot fail, so every error is nil.
type memTable struct{ t *btree.Tree }

// Get returns the tree's own bytes, which the next write to their leaf may
// move (btree.Tree.Get): the transactions test reads for presence, keep none.
func (m memTable) Get(key uint64) ([]byte, bool, error) {
	v, ok := m.t.Get(key)
	return v, ok, nil
}

func (m memTable) Put(key uint64, value []byte) error {
	m.t.Insert(key, value)
	return nil
}

func (m memTable) Delete(key uint64) (bool, error) { return m.t.Delete(key), nil }

func (m memTable) Scan(from, to uint64, fn func(uint64, []byte) bool) error {
	m.t.Scan(from, to, fn)
	return nil
}

func (m memTable) Len() int { return m.t.Len() }

// CheckInvariants exposes the underlying tree's structural check (tests).
func (m memTable) CheckInvariants() error { return m.t.CheckInvariants() }

// openTable resolves one named table through the backend, wrapping any
// failure with the table's name (NewEngine panics on it, NewEngineOn
// returns it).
func openTable(be Backend, name string) (Table, error) {
	t, err := be.Table(name)
	if err != nil {
		return nil, fmt.Errorf("tpcc: opening table %q: %w", name, err)
	}
	return t, nil
}
