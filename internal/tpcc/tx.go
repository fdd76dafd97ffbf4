package tpcc

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/obs"
)

// nuRand is the TPC-C non-uniform random function NURand(A, x, y).
func (e *Engine) nuRand(a uint64, c uint64, x, y int) int {
	r1 := uint64(e.r.IntN(int(a) + 1))
	r2 := uint64(x + e.r.IntN(y-x+1))
	return int(((r1|r2)+c)%uint64(y-x+1)) + x
}

func (e *Engine) randCustomer() int {
	return e.nuRand(1023, e.sh.cID, 1, e.cfg.CustomersPerDistrict)
}

func (e *Engine) randItem() int {
	return e.nuRand(8191, e.sh.cOLI, 1, e.cfg.Items)
}

func (e *Engine) randDistrict() int { return 1 + e.r.IntN(e.cfg.DistrictsPerWarehouse) }

// Run executes n transactions at the standard TPC-C mix, checkpointing per
// the configuration. It stops early on a backend error (Err).
func (e *Engine) Run(n int) {
	for i := 0; i < n && !e.broken(); i++ {
		e.RunOne()
	}
}

// RunConcurrent executes total transactions across workers goroutines, all
// sharing this engine's tables and counters (each worker draws from its own
// random stream). The backend must be safe for concurrent use — pagedb is,
// the built-in in-memory backend is NOT. Returns the first backend error.
func (e *Engine) RunConcurrent(total, workers int) error {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := total / workers
		if w < total%workers {
			n++
		}
		clone := *e
		clone.r = rand.New(rand.NewPCG(uint64(e.cfg.Seed)+uint64(w)+1, 0x9a3c114be2f7d055))
		clone.UseTxns() // transactional backends get per-transaction commits
		wg.Add(1)
		go func(c *Engine, n int) {
			defer wg.Done()
			c.Run(n)
		}(&clone, n)
	}
	wg.Wait()
	return e.Err()
}

// RunOne executes a single transaction drawn from the standard mix and
// returns its type. With UseTxns in effect, the whole TPC-C transaction
// runs inside one storage transaction and is durable when RunOne returns;
// otherwise durability comes only from the periodic checkpoint.
func (e *Engine) RunOne() Tx {
	w := 1 + e.r.IntN(e.cfg.Warehouses)
	p := e.r.IntN(100)
	t0 := time.Now()
	var tx Tx
	if e.txnBE != nil {
		tx = e.runTxnOf(w, p)
	} else {
		tx = e.execTx(w, p)
	}
	e.sh.txHist[tx].Record(uint64(time.Since(t0)))
	e.sh.txCounts[tx].Add(1)
	if every := int64(e.cfg.CheckpointEveryTx); every > 0 {
		if e.sh.txSinceCkp.Add(1) >= every {
			e.sh.txSinceCkp.Store(0)
			e.commit()
		}
	}
	return tx
}

// txOf maps a mix draw (0-99) to its transaction type: New-Order 45%,
// Payment 43%, Order-Status 4%, Delivery 4%, Stock-Level 4%.
func txOf(p int) Tx {
	switch {
	case p < 45:
		return TxNewOrder
	case p < 88:
		return TxPayment
	case p < 92:
		return TxOrderStatus
	case p < 96:
		return TxDelivery
	default:
		return TxStockLevel
	}
}

// execTx runs one transaction body against the engine's bound tables.
func (e *Engine) execTx(w, p int) Tx {
	tx := txOf(p)
	switch tx {
	case TxNewOrder:
		e.newOrderTx(w)
	case TxPayment:
		e.paymentTx(w)
	case TxOrderStatus:
		e.orderStatusTx(w)
	case TxDelivery:
		e.deliveryTx(w)
	case TxStockLevel:
		e.stockLevelTx(w)
	}
	return tx
}

// runTxnOf executes one TPC-C transaction inside a storage transaction: a
// shallow engine clone has its table handles rebound to the transaction,
// so every read sees the transaction's own writes and nothing touches the
// shared trees until Commit. The 1% New-Order "abort" stays a logical
// abort (early return, partial writes committed) — identical state to
// batch mode, so the mem-vs-pagedb equivalence and the §6.3 trace shape
// survive the durability upgrade.
func (e *Engine) runTxnOf(w, p int) Tx {
	x, err := e.txnBE.Begin()
	if err != nil {
		e.fail(err)
		return txOf(p)
	}
	sub := *e
	sub.txnBE = nil
	for i, f := range sub.tableFields() {
		*f = txnTable{x: x, name: tableNames[i], base: *f}
	}
	tx := sub.execTx(w, p)
	if e.broken() {
		x.Rollback()
	} else {
		e.fail(x.Commit())
	}
	return tx
}

// newOrderTx: read warehouse and customer, advance the district's next
// order id, insert the order with 5-15 order lines, updating stock per line.
// 1% of new orders abort on an unused item id after the reads, per the spec.
func (e *Engine) newOrderTx(w int) {
	d := e.randDistrict()
	c := e.randCustomer()
	e.get(e.warehouse, keyWarehouse(w))
	e.put(e.district, keyDistrict(w, d), e.pad(rowDistrict)) // next_o_id++
	e.get(e.customer, keyCustomer(w, d, c))

	lines := 5 + e.r.IntN(11)
	abort := e.r.IntN(100) == 0
	for ol := 1; ol <= lines; ol++ {
		if abort && ol == lines {
			// Invalid item: the transaction rolls back after its reads.
			return
		}
		i := e.randItem()
		sw := w
		if e.cfg.Warehouses > 1 && e.r.IntN(100) == 0 {
			// 1% of lines are supplied by a remote warehouse.
			sw = 1 + e.r.IntN(e.cfg.Warehouses)
		}
		e.get(e.item, keyItem(i))
		e.put(e.stock, keyStock(sw, i), e.pad(rowStock)) // quantity update
	}
	o := e.takeOID(w, d)
	e.put(e.orders, keyOrder(w, d, o), e.pad(rowOrder))
	e.put(e.orderCust, keyOrderCust(w, d, c, o), e.pad(rowIndex))
	e.put(e.newOrder, keyNewOrder(w, d, o), e.pad(rowNewOrder))
	for ol := 1; ol <= lines; ol++ {
		e.put(e.orderLine, keyOrderLine(w, d, o, ol), e.pad(rowOrderLine))
	}
}

// paymentTx: update warehouse and district YTD, select the customer (60% by
// last name via the name index, 15% of customers remote), update the
// customer's balance and insert a history row.
func (e *Engine) paymentTx(w int) {
	d := e.randDistrict()
	cw, cd := w, d
	if e.cfg.Warehouses > 1 && e.r.IntN(100) < 15 {
		for cw == w {
			cw = 1 + e.r.IntN(e.cfg.Warehouses)
		}
		cd = e.randDistrict()
	}
	e.put(e.warehouse, keyWarehouse(w), e.pad(rowWarehouse)) // w_ytd
	e.put(e.district, keyDistrict(w, d), e.pad(rowDistrict)) // d_ytd

	c := e.selectCustomer(cw, cd)
	e.put(e.customer, keyCustomer(cw, cd, c), e.pad(rowCustomer))
	e.put(e.history, e.sh.histSeq.Add(1)-1, e.pad(rowHistory))
}

// selectCustomer picks a customer 60% by last name (range scan on the name
// index, middle match per the spec) and 40% by id.
func (e *Engine) selectCustomer(w, d int) int {
	if e.r.IntN(100) < 60 {
		h := lastNameHash(uint64(e.nuRand(255, e.sh.cLast, 0, 999)))
		var ids []int
		e.scanT(e.custName, keyCustName(w, d, h, 0), keyCustName(w, d, h, 1<<16-1),
			func(k uint64, _ []byte) bool {
				ids = append(ids, int(k&0xFFFF))
				return true
			})
		if len(ids) > 0 {
			return ids[len(ids)/2]
		}
	}
	return e.randCustomer()
}

// orderStatusTx: read the customer, their most recent order, and its lines.
func (e *Engine) orderStatusTx(w int) {
	d := e.randDistrict()
	c := e.selectCustomer(w, d)
	e.get(e.customer, keyCustomer(w, d, c))

	var o uint64
	found := false
	e.scanT(e.orderCust, keyOrderCust(w, d, c, 0xFFFFFF), keyOrderCust(w, d, c, 0),
		func(k uint64, _ []byte) bool {
			o = (^k) & 0xFFFFFF
			found = true
			return false // first hit is the latest order
		})
	if !found {
		return
	}
	e.get(e.orders, keyOrder(w, d, o))
	e.scanT(e.orderLine, keyOrderLine(w, d, o, 0), keyOrderLine(w, d, o, 15),
		func(uint64, []byte) bool { return true })
}

// deliveryTx: for each district, deliver the oldest undelivered order:
// remove its new-order row, stamp the order and its lines, update the
// customer balance.
func (e *Engine) deliveryTx(w int) {
	for d := 1; d <= e.cfg.DistrictsPerWarehouse; d++ {
		var o uint64
		found := false
		e.scanT(e.newOrder, keyNewOrder(w, d, 0), keyNewOrder(w, d, 1<<32-1),
			func(k uint64, _ []byte) bool {
				o = k & 0xFFFFFFFF
				found = true
				return false
			})
		if !found {
			continue
		}
		e.del(e.newOrder, keyNewOrder(w, d, o))
		e.put(e.orders, keyOrder(w, d, o), e.pad(rowOrder)) // carrier id
		lines := 0
		e.scanT(e.orderLine, keyOrderLine(w, d, o, 0), keyOrderLine(w, d, o, 15),
			func(uint64, []byte) bool { lines++; return true })
		for ol := 1; ol <= lines; ol++ {
			e.put(e.orderLine, keyOrderLine(w, d, o, ol), e.pad(rowOrderLine)) // delivery date
		}
		// The order's customer: approximate with a NURand pick (the order
		// row is padding, so the original customer id is not recorded).
		e.put(e.customer, keyCustomer(w, d, e.randCustomer()), e.pad(rowCustomer))
	}
}

// stockLevelTx: examine the order lines of the district's last 20 orders
// and read the stock rows of their items.
func (e *Engine) stockLevelTx(w int) {
	d := e.randDistrict()
	e.get(e.district, keyDistrict(w, d))
	last := e.lastOID(w, d)
	lo := uint64(1)
	if last > 20 {
		lo = last - 20
	}
	// Items are padding, so item ids are sampled deterministically from the
	// keys; insertion order is kept so the run is reproducible.
	distinct := make([]int, 0, 40)
	e.scanT(e.orderLine, keyOrderLine(w, d, lo, 0), keyOrderLine(w, d, last, 15),
		func(k uint64, _ []byte) bool {
			item := int(k%uint64(e.cfg.Items)) + 1
			for _, seen := range distinct {
				if seen == item {
					return true
				}
			}
			distinct = append(distinct, item)
			return len(distinct) < 40
		})
	for _, i := range distinct {
		e.get(e.stock, keyStock(w, i))
	}
}

// Trace is a page-write trace: the §6.3 I/O recording that couples the
// TPC-C/B+-tree substrate to the log-structure simulator.
type Trace struct {
	// Universe is the page id space size (max id + 1).
	Universe int
	// Preload is the number of pages (ids 0..Preload-1) live before the
	// trace's first write.
	Preload int
	// Writes is the ordered page-write sequence.
	Writes []uint32
}

// Trace returns the page-write trace of the run phase: the writes issued
// after the initial load, over the page universe allocated so far. The
// preload set is the database as of the end of load. Only the in-memory
// backend records a trace.
func (e *Engine) Trace() *Trace {
	if e.pool == nil {
		panic(fmt.Sprintf("tpcc: Trace() on an engine with an external backend (%T)", e.be))
	}
	e.pool.FlushDirty()
	all := e.pool.Writes()
	return &Trace{
		Universe: int(e.pool.Next()),
		Preload:  e.sh.loadPages,
		Writes:   all[e.sh.loadWrites:],
	}
}

// Stats summarizes an engine run. Pool, LoadPages, TotalPages and RunWrites
// describe the in-memory backend and are zero for external backends (whose
// own Stats cover the storage side).
type Stats struct {
	Pool       bufferpool.Stats
	LoadPages  int
	TotalPages int
	TxCounts   [5]uint64
	RunWrites  int
}

// Obs returns the engine's metrics registry (always non-nil): the
// tpcc.tx.<type>.ns latency histograms, plus whatever the backend's stack
// contributed when the caller shared its registry through Config.Obs.
func (e *Engine) Obs() *obs.Registry { return e.sh.reg }

// Stats returns engine counters.
func (e *Engine) Stats() Stats {
	st := Stats{LoadPages: e.sh.loadPages}
	for i := range st.TxCounts {
		st.TxCounts[i] = e.sh.txCounts[i].Load()
	}
	if e.pool != nil {
		st.Pool = e.pool.Stats()
		st.TotalPages = int(e.pool.Next())
		st.RunWrites = len(e.pool.Writes()) - e.sh.loadWrites
	}
	return st
}
