package experiments

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/pagedb"
	"repro/internal/store"
	"repro/internal/tpcc"
)

// TPCCDurableAt replays TPC-C end-to-end against the DURABLE stack — the
// B+-tree database engine (internal/pagedb) over the log-structured page
// store with background cleaning — instead of replaying a recorded trace
// into the simulator (Figure 6). This is the paper's actual setting: a
// B-tree page store whose page writes land in a log structured store that
// reclaims superseded versions while the workload runs (§1, §6.3). The
// table reports the cleaner's side of the story under MDC: write
// amplification, emptiness at cleaning and cleaning activity.
//
// This is a systems extension beyond the paper's figures; run it with
// `lsbench -exp tpcc`. fill is the sealed-region fill the store geometry
// targets (lsbench's default 0.6; `-fill 0.8` sweeps it).
func TPCCDurableAt(scale Scale, fill float64, log io.Writer) *Table {
	if fill <= 0.1 || fill > 0.95 {
		panic(fmt.Sprintf("experiments: tpcc-durable fill %.2f outside (0.1, 0.95]", fill))
	}
	cfg, txs := tpccScaleConfig(scale)
	t := &Table{
		Name: "tpcc-durable",
		Title: fmt.Sprintf("TPC-C on the durable B+-tree engine over the page store "+
			"(%d warehouses, %d transactions, background cleaning, DurCommit batches every %d tx, target fill %.2f)",
			cfg.Warehouses, txs, cfg.CheckpointEveryTx, fill),
		Header: []string{"algorithm", "user pages", "user MB", "delta pages", "GC pages", "write amp",
			"mean E at clean", "segs cleaned", "cleaner cycles", "fill", "cache hit"},
	}
	progress(log, "tpcc-durable: %d tx, fill %.2f", txs, fill)
	t.Rows = append(t.Rows, tpccDurableRun(cfg, txs, fill, core.MDC()))
	return t
}

// tpccScaleConfig maps a geometry preset to the TPC-C configuration and
// transaction count of the durable experiment.
func tpccScaleConfig(scale Scale) (tpcc.Config, int) {
	cfg := tpcc.Config{Seed: Seed, CheckpointEveryTx: 100}
	var txs int
	switch scale {
	case ScaleSmall:
		cfg.Warehouses = 1
		cfg.CustomersPerDistrict = 100
		cfg.Items = 2000
		cfg.InitialOrdersPerDistrict = 100
		txs = 3000
	case ScalePaper:
		cfg.Warehouses = 4
		txs = 80000
	default: // medium
		cfg.Warehouses = 2
		cfg.CustomersPerDistrict = 200
		cfg.Items = 5000
		cfg.InitialOrdersPerDistrict = 200
		txs = 20000
	}
	return cfg, txs
}

// tpccDurableRun executes one seeded TPC-C run on a fresh pagedb database
// in a temporary directory and reports the storage-side counters. The engine
// runs single-threaded in batch mode (durability only at checkpoints).
func tpccDurableRun(cfg tpcc.Config, txs int, fill float64, alg core.Algorithm) []string {
	dir, err := os.MkdirTemp("", "lsbench-tpcc-*")
	if err != nil {
		panic(fmt.Sprintf("experiments: tpcc-durable tempdir: %v", err))
	}
	defer os.RemoveAll(dir)

	// Geometry: size the store so the grown database lands near the target
	// sealed-region fill, with the B-tree's structural overhead (~1/0.7
	// leaf fill) and the workload's growth (~300 row bytes per transaction)
	// included.
	const pageSize = 4096
	segPages := 128
	estPages := cfg.EstimateDataPages()
	if estPages < 2000 {
		segPages = 32 // small data set: keep enough segments for cleaning dynamics
	}
	growthPages := txs * 300 / pageSize
	// Raw row bytes roughly double on disk: half-full post-split leaves,
	// per-entry overhead (heavy for the 8-byte index rows), branch pages.
	finalLive := (estPages + growthPages) * 2
	// The free pool must absorb a whole commit batch in one atomic Apply
	// (~5 dirty pages per transaction between checkpoints), so the cleaning
	// watermark scales with the batch and the reserve rides on top of the
	// data capacity (sized for the requested sealed-region fill).
	batchSegs := cfg.CheckpointEveryTx*5/segPages + 1
	lowWater := batchSegs + 14
	maxSegs := int(float64(finalLive)/fill)/segPages + lowWater
	// The admission floor must cover a whole commit batch: at high fill the
	// pool hovers low (each clean reclaims little), and a batch that cannot
	// reserve space fails with ErrFull instead of waiting — so make
	// admission hold commits until the cleaner has restored batch-sized slack.
	emergency := batchSegs + 2
	cache := estPages / 8
	if cache < 128 {
		cache = 128
	}

	db, err := pagedb.Open(pagedb.Options{
		Store: store.Options{
			Dir:             dir,
			PageSize:        pageSize,
			SegmentPages:    segPages,
			MaxSegments:     maxSegs,
			FreeLowWater:    lowWater,
			FreeEmergency:   emergency,
			Algorithm:       alg,
			Durability:      core.DurCommit,
			BackgroundClean: true,
		},
		CachePages: cache,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: tpcc-durable open (%s): %v", alg.Name, err))
	}
	defer db.Close()

	// Share the database's registry with the transaction driver so one
	// snapshot covers the whole stack: tpcc.tx.* latency alongside the
	// pagedb.*, store.*, cleaner.* and bufferpool.* series.
	cfg.Obs = db.Obs()
	publishLive(db.Obs())
	eng, err := tpcc.NewEngineOn(cfg, tpcc.NewBackend(db.Tree, db.Commit))
	if err != nil {
		panic(fmt.Sprintf("experiments: tpcc-durable load (%s): %v", alg.Name, err))
	}
	eng.Run(txs)
	if err := eng.Err(); err != nil {
		panic(fmt.Sprintf("experiments: tpcc-durable run (%s): %v", alg.Name, err))
	}
	if err := db.Commit(); err != nil {
		panic(fmt.Sprintf("experiments: tpcc-durable final commit (%s): %v", alg.Name, err))
	}

	// A delta page is a page: the bytes the checkpoints wrote, and how many of
	// their pages were deltas, are what show the checkpoint's share.
	st, reg := db.Stats(), db.Obs()
	ss := st.Store
	return []string{
		alg.Name,
		fmt.Sprintf("%d", ss.UserWrites),
		f2(float64(reg.Counter("store.user.bytes").Value()) / 1e6),
		fmt.Sprintf("%d", reg.Counter("pagedb.delta.pages").Value()),
		fmt.Sprintf("%d", ss.GCWrites),
		f3(ss.WriteAmp),
		f3(ss.MeanEAtClean),
		fmt.Sprintf("%d", ss.SegmentsCleaned),
		fmt.Sprintf("%d", ss.Cleaner.Cycles),
		f2(ss.FillFactor),
		f2(st.Pool.HitRatio()),
	}
}
