// Package tpcc implements a scaled-down TPC-C workload engine over a
// pluggable storage backend. Its original (and default) backend is the
// page-based B+-tree of internal/btree fronted by the CLOCK cache model of
// internal/bufferpool, which produces the page-write I/O traces that the
// paper's §6.3 experiment replays into the log-structure simulator ("I/O
// traces collected from running the TPC-C benchmark on a B+-tree-based
// storage engine"). The same transaction logic also drives a durable
// backend — internal/pagedb over the log-structured store — so the cleaner
// is exercised by the paper's real workload instead of a recorded trace
// (lsbench -exp tpcc).
//
// The engine executes the five standard transactions at the standard mix
// (New-Order 45%, Payment 43%, Order-Status 4%, Delivery 4%, Stock-Level 4%)
// with TPC-C's NURand skew. What matters for the reproduction is the shape
// of the page-write stream: skewed update frequencies (district/stock/
// customer pages are hot), a shifting pattern (order and order-line pages
// are hot when young and cool as they age — §6.3's "hot pages become cold
// over time"), and a data set that grows while running (orders, order lines
// and history accumulate), which is how the paper sweeps the fill factor.
// Row contents are padding of representative sizes; row bytes determine
// B+-tree fanout and page counts, not semantics. The padding is constant per
// row kind (Engine.pad: zero bytes of that kind's length), so every update of
// an existing row is a byte-identical overwrite: a checkpoint can write a
// page whose image equals the one already on disk.
//
// Backend errors (impossible on the in-memory backend) are sticky: the
// engine stops issuing operations once one occurs and reports it from Err.
package tpcc

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/bufferpool"
	"repro/internal/obs"
)

// Config scales the workload. The defaults are a deliberately reduced TPC-C
// (README.md, "The TPC-C substitution"): the paper ran scale factors 350-560 with a 4 GB
// cache; this engine defaults to a few warehouses with the cache sized to a
// comparable cache:data ratio (~1:8), preserving the trace's shape.
type Config struct {
	// Warehouses is the scale factor W (default 4).
	Warehouses int
	// DistrictsPerWarehouse is fixed at 10 by the spec (default 10).
	DistrictsPerWarehouse int
	// CustomersPerDistrict defaults to 300 (spec: 3000).
	CustomersPerDistrict int
	// Items defaults to 10000 (spec: 100000).
	Items int
	// InitialOrdersPerDistrict defaults to 300 (spec: 3000).
	InitialOrdersPerDistrict int
	// PageSize is the B+-tree page budget in bytes (default 4096). Only
	// meaningful for the built-in in-memory backend.
	PageSize int
	// CachePages sizes the in-memory backend's buffer pool; 0 derives ~1/8
	// of the estimated loaded data pages, the paper's cache:data proportion.
	CachePages int
	// CheckpointEveryTx commits the backend every N transactions (default
	// 2000; negative disables). On the in-memory backend a commit flushes
	// all dirty pages — without it the hottest pages would never appear in
	// the write trace at all; on a durable backend it is the transaction
	// batch boundary.
	CheckpointEveryTx int
	// Seed fixes the run (default 1).
	Seed int64
	// Obs receives per-transaction-type latency histograms
	// (tpcc.tx.<type>.ns). Nil creates a private registry; callers driving
	// a durable backend usually pass the backend's own registry so one
	// snapshot covers the whole stack.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Warehouses == 0 {
		c.Warehouses = 4
	}
	if c.DistrictsPerWarehouse == 0 {
		c.DistrictsPerWarehouse = 10
	}
	if c.CustomersPerDistrict == 0 {
		c.CustomersPerDistrict = 300
	}
	if c.Items == 0 {
		c.Items = 10000
	}
	if c.InitialOrdersPerDistrict == 0 {
		c.InitialOrdersPerDistrict = 300
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.CheckpointEveryTx == 0 {
		c.CheckpointEveryTx = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CachePages == 0 {
		c.CachePages = c.dataPages() / 8
		if c.CachePages < 128 {
			c.CachePages = 128
		}
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	return c
}

func (c Config) valid() error {
	if c.Warehouses < 1 || c.DistrictsPerWarehouse < 1 || c.CustomersPerDistrict < 3 || c.Items < 10 {
		return fmt.Errorf("tpcc: invalid config %+v", c)
	}
	return nil
}

// EstimateDataPages approximates the loaded database size in pages (used to
// size caches and durable-store geometry). Zero-valued fields estimate at
// their defaults.
func (c Config) EstimateDataPages() int { return c.withDefaults().dataPages() }

// dataPages is the raw row-bytes estimate; the receiver must already carry
// its defaults (withDefaults calls this to derive CachePages).
func (c Config) dataPages() int {
	w := c.Warehouses
	rows := w*rowDistrict*c.DistrictsPerWarehouse +
		w*c.DistrictsPerWarehouse*c.CustomersPerDistrict*(rowCustomer+rowHistory+64) +
		w*c.Items*rowStock +
		c.Items*rowItem +
		w*c.DistrictsPerWarehouse*c.InitialOrdersPerDistrict*(rowOrder+10*rowOrderLine)
	return rows/c.PageSize + 1
}

// Representative TPC-C row widths in bytes.
const (
	rowWarehouse = 89
	rowDistrict  = 95
	rowCustomer  = 655
	rowHistory   = 46
	rowOrder     = 24
	rowNewOrder  = 8
	rowOrderLine = 54
	rowItem      = 82
	rowStock     = 306
	rowIndex     = 8
)

// Engine is a loaded TPC-C database plus its transaction driver. An Engine
// value is single-threaded; RunConcurrent clones it (sharing tables and
// counters) to drive a concurrency-safe backend from several goroutines.
type Engine struct {
	cfg  Config
	be   Backend
	pool *bufferpool.Model // in-memory backend's cache model; nil for external backends
	r    *rand.Rand

	// txnBE, when set (UseTxns), wraps every TPC-C transaction in one
	// storage transaction with its own durable commit; nil runs the
	// historical batch mode where only the periodic checkpoint commits.
	txnBE TxnBackend

	warehouse Table
	district  Table
	customer  Table
	custName  Table // (w,d,lastNameHash,c) -> c
	orders    Table
	orderCust Table // (w,d,c,~o) -> o: latest order first in scan order
	newOrder  Table
	orderLine Table
	history   Table
	item      Table
	stock     Table

	sh *engineShared
}

// engineShared is the state shared by every clone of an engine: counters
// (atomic, so concurrent clones stay exact), the NURand constants, the
// padding buffers, and the sticky backend error.
type engineShared struct {
	// nextOID tracks each district's next order id. It lives only here: the
	// district row is zero padding of its kind's length, so it does not carry
	// the id, and a reopened engine does not recover it.
	nextOID    []atomic.Uint64
	histSeq    atomic.Uint64
	txCounts   [5]atomic.Uint64
	txSinceCkp atomic.Int64

	cLast, cID, cOLI uint64 // NURand C constants

	// reg and the per-transaction-type latency histograms are shared by
	// every clone (resolved once at engine construction).
	reg    *obs.Registry
	txHist [5]*obs.Histogram

	pads map[int][]byte // read-only after load

	loadPages  int
	loadWrites int

	failed atomic.Bool
	mu     sync.Mutex
	err    error
}

// Tx identifies the five TPC-C transactions.
type Tx int

// The five TPC-C transaction types.
const (
	TxNewOrder Tx = iota
	TxPayment
	TxOrderStatus
	TxDelivery
	TxStockLevel
)

func (t Tx) String() string {
	return [...]string{"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}[t]
}

// NewEngine creates the in-memory trace-generating engine: B+-trees over a
// CLOCK buffer pool, populated per the TPC-C population rules (scaled by
// Config) and checkpointed so the load is fully on storage before the
// measured run begins. It panics on an invalid configuration (the historic
// contract; NewEngineOn returns errors instead).
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if err := cfg.valid(); err != nil {
		panic(err.Error())
	}
	pool := bufferpool.New(cfg.CachePages)
	e, err := newEngine(cfg, newMemBackend(pool, cfg.PageSize), pool)
	if err != nil {
		panic(err.Error()) // unreachable: the in-memory backend cannot fail
	}
	return e
}

// NewEngineOn creates an engine over an external backend (e.g. a pagedb
// database via NewBackend) and loads the initial database through it. The
// load is committed before NewEngineOn returns.
func NewEngineOn(cfg Config, be Backend) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.valid(); err != nil {
		return nil, err
	}
	return newEngine(cfg, be, nil)
}

func newEngine(cfg Config, be Backend, pool *bufferpool.Model) (*Engine, error) {
	e := &Engine{
		cfg:  cfg,
		be:   be,
		pool: pool,
		r:    rand.New(rand.NewPCG(uint64(cfg.Seed), 0x7c93a11b5d2f04e9)),
		sh:   &engineShared{pads: make(map[int][]byte), reg: cfg.Obs},
	}
	for t := TxNewOrder; t <= TxStockLevel; t++ {
		e.sh.txHist[t] = cfg.Obs.Histogram("tpcc.tx." + t.String() + ".ns")
	}
	var err error
	for i, name := range tableNames {
		if *e.tableFields()[i], err = openTable(be, name); err != nil {
			return nil, err
		}
	}
	for _, n := range []int{rowWarehouse, rowDistrict, rowCustomer, rowHistory,
		rowOrder, rowNewOrder, rowOrderLine, rowItem, rowStock, rowIndex} {
		e.sh.pads[n] = make([]byte, n)
	}

	e.sh.cLast = uint64(e.r.IntN(256))
	e.sh.cID = uint64(e.r.IntN(1024))
	e.sh.cOLI = uint64(e.r.IntN(8192))

	e.load()
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("tpcc: loading the initial database: %w", err)
	}
	return e, nil
}

// tableFields returns the engine's table-handle fields in tableNames
// order, for construction and per-transaction rebinding.
func (e *Engine) tableFields() []*Table {
	return []*Table{
		&e.warehouse, &e.district, &e.customer, &e.custName, &e.orders,
		&e.orderCust, &e.newOrder, &e.orderLine, &e.history, &e.item, &e.stock,
	}
}

// UseTxns switches the engine to per-transaction storage commits, if the
// backend supports them (TxnBackend). It reports whether it did;
// RunConcurrent calls it automatically so a transactional backend gets
// transactional durability under concurrency.
func (e *Engine) UseTxns() bool {
	if tbe, ok := e.be.(TxnBackend); ok {
		e.txnBE = tbe
		return true
	}
	return false
}

// TableNames lists the TPC-C tables in their fixed creation order.
func TableNames() []string { return append([]string(nil), tableNames...) }

// Table returns one of the engine's tables by name.
func (e *Engine) Table(name string) (Table, error) { return e.be.Table(name) }

// pad returns a shared zero buffer of n bytes (contents are never read).
func (e *Engine) pad(n int) []byte {
	if b, ok := e.sh.pads[n]; ok {
		return b
	}
	return make([]byte, n) // unknown size: do not mutate the shared map
}

// Err returns the first backend error the engine hit, if any. Once set, the
// engine stops issuing backend operations.
func (e *Engine) Err() error {
	if !e.sh.failed.Load() {
		return nil
	}
	e.sh.mu.Lock()
	defer e.sh.mu.Unlock()
	return e.sh.err
}

func (e *Engine) fail(err error) {
	if err == nil {
		return
	}
	e.sh.mu.Lock()
	if e.sh.err == nil {
		e.sh.err = err
	}
	e.sh.mu.Unlock()
	e.sh.failed.Store(true)
}

func (e *Engine) broken() bool { return e.sh.failed.Load() }

// Backend-operation helpers: every table access funnels through these so a
// backend failure makes the whole engine stop instead of corrupting the
// workload's bookkeeping.

func (e *Engine) get(t Table, key uint64) ([]byte, bool) {
	if e.broken() {
		return nil, false
	}
	v, ok, err := t.Get(key)
	e.fail(err)
	return v, ok
}

func (e *Engine) put(t Table, key uint64, val []byte) {
	if e.broken() {
		return
	}
	e.fail(t.Put(key, val))
}

func (e *Engine) del(t Table, key uint64) bool {
	if e.broken() {
		return false
	}
	ok, err := t.Delete(key)
	e.fail(err)
	return ok
}

func (e *Engine) scanT(t Table, from, to uint64, fn func(uint64, []byte) bool) {
	if e.broken() {
		return
	}
	e.fail(t.Scan(from, to, fn))
}

func (e *Engine) commit() {
	if e.broken() {
		return
	}
	e.fail(e.be.Commit())
}
