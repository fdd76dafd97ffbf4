package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pagedb"
	"repro/internal/store"
	"repro/internal/tpcc"
)

// tpccParams sizes tpcc_txn.
type tpccParams struct {
	cfg        tpcc.Config
	workers    int
	warmTxns   int
	txnsPerSec int // measured transactions per second of -seconds
	crashTail  int // transactions left in the WAL past the last checkpoint when the phase ends
}

var tpccFull = tpccParams{
	cfg: tpcc.Config{
		Warehouses: 2, CustomersPerDistrict: 200, Items: 5000, InitialOrdersPerDistrict: 200,
		CheckpointEveryTx: 100,
	},
	workers: 2, warmTxns: 3000, txnsPerSec: 1500, crashTail: 50,
}

var tpccSmoke = tpccParams{
	cfg: tpcc.Config{
		Warehouses: 1, CustomersPerDistrict: 30, Items: 200, InitialOrdersPerDistrict: 30,
		CheckpointEveryTx: 100,
	},
	workers: 2, warmTxns: 100, txnsPerSec: 250, crashTail: 50,
}

// tpccWL drives TPC-C through tpcc.NewTxnBackend → pagedb.Txn → wal →
// bufferpool → store with DurCommit and the background cleaner: the paper's
// setting end to end. The tpcc.Txn interface and NewTxnBackend's function
// arguments are the seam the timed wrappers sit in.
type tpccWL struct {
	p       tpccParams
	seed    int64
	seconds int

	db     *pagedb.DB
	eng    *tpcc.Engine
	rec    *recorder // the running phase's; swapped only while no worker runs
	issued int       // transactions issued since the load
}

// options sizes the store with the geometry formula of
// experiments.tpccDurableRun at target fill 0.6, for the transactions a
// traced run issues (warm-up and three measured phases).
func (w *tpccWL) options(dir string) pagedb.Options {
	const pageSize, fill = 4096, 0.6
	cfg := w.p.cfg
	txs := w.p.warmTxns + 3*w.measuredTxns()
	segPages := 128
	estPages := cfg.EstimateDataPages()
	if estPages < 2000 {
		segPages = 32
	}
	growthPages := txs * 300 / pageSize
	finalLive := (estPages + growthPages) * 2
	batchSegs := cfg.CheckpointEveryTx*5/segPages + 1
	lowWater := batchSegs + 14
	maxSegs := int(float64(finalLive)/fill)/segPages + lowWater
	if min := lowWater + 2*2 + 2; maxSegs < min {
		maxSegs = min
	}
	cache := estPages / 8
	if cache < 128 {
		cache = 128
	}
	return pagedb.Options{
		Store: store.Options{
			Dir:             dir,
			PageSize:        pageSize,
			SegmentPages:    segPages,
			MaxSegments:     maxSegs,
			FreeLowWater:    lowWater,
			FreeEmergency:   batchSegs + 2,
			Algorithm:       core.MDC(),
			Durability:      core.DurCommit,
			BackgroundClean: true,
		},
		CachePages: cache,
	}
}

func (w *tpccWL) measuredTxns() int { return w.p.txnsPerSec * w.seconds }

// load opens the database and populates it: the engine's own loader, which
// writes through Tree.Put and commits once.
func (w *tpccWL) load(dir string) (int64, int64, error) {
	db, err := pagedb.Open(w.options(dir))
	if err != nil {
		return 0, 0, err
	}
	w.db, w.issued = db, 0
	w.rec = &recorder{}
	cfg := w.p.cfg
	cfg.Seed = w.seed
	cfg.Obs = db.Obs()
	w.eng, err = tpcc.NewEngineOn(cfg, tpcc.NewTxnBackend(db.Tree, w.checkpoint, w.begin))
	if err != nil {
		db.Close()
		return 0, 0, err
	}
	return 0, 0, nil // the load's figures are never needed: the measured phase writes
}

func (w *tpccWL) warm() error {
	err := w.eng.RunConcurrent(w.p.warmTxns, w.p.workers)
	w.issued += w.p.warmTxns
	return err
}

// run issues the measured transactions, rounded up so that the phase ends
// crashTail transactions past a checkpoint: the crash image then has much
// the same WAL tail to replay every run (the engine's two workers race on
// its checkpoint counter, so the tail is a few transactions short of it).
func (w *tpccWL) run(rec *recorder) int64 {
	every := w.p.cfg.CheckpointEveryTx
	n := w.measuredTxns()
	n += ((w.p.crashTail-(w.issued+n))%every + every) % every
	w.rec = rec
	if err := w.eng.RunConcurrent(n, w.p.workers); err != nil {
		rec.fail("tpcc engine stopped: %v", err)
	}
	w.issued += n
	return int64(n)
}

func (w *tpccWL) counters() (pagedb.Stats, obs.Snapshot) { return w.db.Stats(), w.db.Obs().Snapshot() }

func (w *tpccWL) close() error {
	if w.db == nil {
		return nil
	}
	db := w.db
	w.db = nil
	return db.Close()
}

// killSafe: at DurCommit every acknowledged transaction is in the fsynced
// WAL or a fsynced checkpoint batch, so a copy of the open directory must
// reopen to the live state.
func (w *tpccWL) killSafe() bool { return true }

// check has no per-key oracle to compare with — two workers commit in an
// order the benchmark cannot see — so it checks every tree's structure and
// the pool's pin balance, and digests every table.
func (w *tpccWL) check(rec *recorder) state { return checkTables(w.db, rec) }

func checkTables(db *pagedb.DB, rec *recorder) state {
	d := newDigester()
	for _, name := range tpcc.TableNames() {
		t, err := db.Tree(name)
		if err != nil {
			rec.fail("table %s: %v", name, err)
			continue
		}
		if err := t.CheckInvariants(); err != nil {
			rec.fail("table %s invariants: %v", name, err)
		}
		d.add(uint64(t.Len()), []byte(name))
		if err := t.Scan(0, math.MaxUint64, func(k uint64, v []byte) bool { d.add(k, v); return true }); err != nil {
			rec.fail("table %s scan: %v", name, err)
		}
	}
	if err := db.CheckPinBalance(); err != nil {
		rec.fail("pin balance: %v", err)
	}
	return d.state()
}

// reopen requires of a DurCommit image that every acknowledged transaction
// is present: the recovered tables digest to what the live ones did.
func (w *tpccWL) reopen(dir string, verify bool, live state, rec *recorder) (time.Duration, uint64) {
	t0 := time.Now()
	db, err := pagedb.Open(w.options(dir))
	d := time.Since(t0)
	if err != nil {
		rec.fail("reopen: %v", err)
		return d, 0
	}
	replayed := db.Stats().Txns
	if verify {
		if got := checkTables(db, rec); got != live {
			rec.fail("recovered image digests to %x (%d payload bytes), the live database to %x (%d)",
				got.digest, got.payload, live.digest, live.payload)
		}
	}
	if err := db.Close(); err != nil {
		rec.fail("closing the reopened image: %v", err)
	}
	return d, replayed
}

// checkpoint is the engine's commit callback: the worker that finishes the
// hundredth transaction calls db.Commit and waits for it. The closed-loop
// client issued it, so it is an operation with a latency sample of its own
// (and, in a traced phase, a span of its own); it is not one of the
// operations attempted, which are the committed transactions.
func (w *tpccWL) checkpoint() error {
	rec := w.rec
	s := rec.tr.begin(spCheckpoint, rec.tr.newOp(), -1)
	t0 := time.Now()
	err := w.db.Commit()
	rec.sample(int64(time.Since(t0)))
	rec.tr.end(s)
	return err
}

// begin wraps db.Begin so that one latency sample spans Begin to the return
// of Commit.
func (w *tpccWL) begin() (*timedTxn, error) {
	rec := w.rec
	t := &timedTxn{rec: rec, start: time.Now(), kind: -1}
	t.op = rec.tr.newOp()
	t.root = rec.tr.begin(spTPCCTxn, t.op, -1)
	x, err := w.db.Begin()
	if err != nil {
		rec.tr.end(t.root)
		return nil, err
	}
	t.x = x
	return t, nil
}

// timedTxn implements tpcc.Txn over a pagedb.Txn. Each storage call is a
// child span of the transaction in a traced phase; a nil tracer makes the
// span calls no-ops.
type timedTxn struct {
	x     *pagedb.Txn
	rec   *recorder
	start time.Time
	op    uint32
	root  int32
	kind  int8  // tpcc.Tx, told from the first storage call; -1 before it
	bytes int64 // payload of the puts so far
}

// classify tells the transaction type from its first storage call, which is
// distinct for each of the five bodies in internal/tpcc/tx.go. The engine
// does not pass the type through the Txn seam.
func (t *timedTxn) classify(call uint8, table string) {
	if t.kind >= 0 || t.rec.tr == nil {
		return
	}
	switch {
	case call == spTxnGet && table == "warehouse":
		t.kind = int8(tpcc.TxNewOrder)
	case call == spTxnPut && table == "warehouse":
		t.kind = int8(tpcc.TxPayment)
	case call == spTxnScan && table == "newOrder":
		t.kind = int8(tpcc.TxDelivery)
	case call == spTxnGet && table == "district":
		t.kind = int8(tpcc.TxStockLevel)
	default:
		t.kind = int8(tpcc.TxOrderStatus)
	}
}

func (t *timedTxn) Get(table string, key uint64) ([]byte, bool, error) {
	t.classify(spTxnGet, table)
	s := t.rec.tr.begin(spTxnGet, t.op, t.root)
	v, ok, err := t.x.Get(table, key)
	t.rec.tr.end(s)
	return v, ok, err
}

func (t *timedTxn) Put(table string, key uint64, value []byte) error {
	t.classify(spTxnPut, table)
	s := t.rec.tr.begin(spTxnPut, t.op, t.root)
	err := t.x.Put(table, key, value)
	t.rec.tr.end(s)
	t.bytes += 8 + int64(len(value))
	return err
}

func (t *timedTxn) Delete(table string, key uint64) (bool, error) {
	t.classify(spTxnDelete, table)
	s := t.rec.tr.begin(spTxnDelete, t.op, t.root)
	ok, err := t.x.Delete(table, key)
	t.rec.tr.end(s)
	return ok, err
}

func (t *timedTxn) Scan(table string, from, to uint64, fn func(uint64, []byte) bool) error {
	t.classify(spTxnScan, table)
	s := t.rec.tr.begin(spTxnScan, t.op, t.root)
	err := t.x.Scan(table, from, to, fn)
	t.rec.tr.end(s)
	return err
}

func (t *timedTxn) Commit() error {
	rec := t.rec
	s := rec.tr.begin(spTxnCommit, t.op, t.root)
	err := t.x.Commit()
	rec.tr.end(s)
	rec.tr.end(t.root)
	ns := int64(time.Since(t.start))
	if err != nil {
		rec.fail("transaction commit: %v", err)
		return err
	}
	rec.mu.Lock()
	rec.lat = append(rec.lat, ns)
	rec.userBytes += t.bytes
	if t.kind >= 0 {
		rec.byType[t.kind] = append(rec.byType[t.kind], ns)
	}
	rec.mu.Unlock()
	return nil
}

func (t *timedTxn) Rollback() error {
	t.rec.tr.end(t.root)
	t.rec.fail("transaction rolled back after a storage error")
	return t.x.Rollback()
}
