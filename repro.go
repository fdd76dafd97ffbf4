// Package repro is a Go reproduction of "Efficiently Reclaiming Space in a
// Log Structured Store" (Lomet & Luo, ICDE 2021): the MDC (Minimum Declining
// Cost) segment cleaning policy, every baseline it is evaluated against, the
// simulation substrate of the paper's evaluation, its closed-form analysis,
// and a record engine that uses the policies for real — a log-structured page
// store, durable on disk or volatile in memory — with an in-memory value-log
// KV store as a string-key index over the memory-backed one.
//
// This root package is the supported API surface: it re-exports the pieces a
// downstream user composes. See README.md: "Package map" is the system
// inventory, "Reproducing the paper's evaluation" the paper-vs-measured
// results.
//
// # Quick start
//
//	st, err := repro.OpenStore(repro.StoreOptions{
//		Dir:             "/data/pages",
//		BackgroundClean: true,             // reclaim space off the write path
//		Durability:      repro.DurCommit,  // group-fsync on every commit
//	})
//	...
//	st.WritePage(42, page)        // log-structured, never in place
//	st.ReadPage(42, buf)          // CRC-verified
//
//	b := repro.NewStoreBatch().Write(1, p1).Write(2, p2).Delete(9)
//	st.Apply(b)                   // atomic: one lock, one group fsync
//	st.Close()                    // checkpoint + durable shutdown
//
// # Batches and durability
//
// Both engines take writes one at a time or as atomic batches — the
// paper's premise that a log amortizes "a single write I/O for a number of
// diverse" updates, surfaced as API. A batch (NewStoreBatch/NewKVBatch) is
// applied under one admission check and one lock hold, with space for
// every record reserved before any old version is invalidated: on ErrFull
// nothing is applied, never a prefix.
//
// Durability is an explicit policy (StoreOptions.Durability): DurNone
// never fsyncs, DurSeal fsyncs segment seals and checkpoints, and
// DurCommit makes every write or Apply return only after its records are
// durable — concurrent committers coalesce onto a single group fsync, and
// a torn DurCommit batch is discarded wholesale by recovery, never
// surfaced partially. Store.Sync() is the explicit flush for the weaker
// levels.
// The in-memory KV passes the policy to the memory-backed page store under
// it, where every level behaves alike: a returned write is visible until
// Close.
//
// Cleaning runs automatically with the MDC policy; pass a different
// Algorithm (repro.Greedy(), repro.CostBenefit(), ...) to compare. Routed
// algorithms (repro.MultiLog(), repro.MDCRouted()) spread user and GC
// writes across frequency-banded append streams (the KV's included), and
// Stats().Streams reports the per-stream occupancy. With BackgroundClean a
// watermark-driven goroutine (internal/cleaner) relocates victims while
// reads and writes proceed, and writers are paced only when free space
// nears exhaustion; without it, cleaning runs synchronously inside the
// write path. Stats().Cleaner reports the background lifecycle.
//
// # Reproducing the paper
//
//	go run ./cmd/lsbench -exp all -scale medium
//
// regenerates every table and figure (-exp table1 and table2 print the closed
// forms beside the simulation); see also cmd/lssim for single runs and
// cmd/tpccgen for trace files.
package repro

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/cleaner"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pagedb"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vlog"
	"repro/internal/workload"
)

// Algorithm bundles a cleaning policy with its write-path behavior (whether
// user and GC writes are separated by update frequency, whether exact rates
// are used, victims per cycle).
type Algorithm = core.Algorithm

// SegmentMeta is the per-segment bookkeeping the policies inspect.
type SegmentMeta = core.SegmentMeta

// Cleaning algorithms: the paper's contribution and its baselines.
var (
	// MDC is the paper's Minimum Declining Cost policy with estimated
	// update frequencies and full frequency separation.
	MDC = core.MDC
	// MDCOpt is MDC with exact update rates from a workload oracle.
	MDCOpt = core.MDCOpt
	// MDCNoSepUser and MDCNoSepUserGC are the §6.2.1 ablations.
	MDCNoSepUser   = core.MDCNoSepUser
	MDCNoSepUserGC = core.MDCNoSepUserGC
	// MDCRouted is MDC with temperature-routed placement: user and GC
	// writes are spread across frequency-banded append streams (the §5.3
	// separation realized as routing, which the live engines can execute).
	MDCRouted = core.MDCRouted
	// Age cleans the oldest segment (LFS circular buffer).
	Age = core.Age
	// Greedy cleans the emptiest segment.
	Greedy = core.Greedy
	// CostBenefit is the classic LFS heuristic E*age/(2-E).
	CostBenefit = core.CostBenefit
	// MultiLog and MultiLogOpt reimplement Stoica & Ailamaki's
	// frequency-banded logs, the paper's state-of-the-art comparator.
	MultiLog    = core.MultiLog
	MultiLogOpt = core.MultiLogOpt
	// AlgorithmByName resolves a canonical name ("MDC", "greedy", ...).
	AlgorithmByName = core.ByName
	// AlgorithmNames lists the canonical names.
	AlgorithmNames = core.Names
)

// DecliningCost is the paper's §5.1.3 victim priority: the rate at which a
// segment's per-page cleaning cost is still declining; clean the smallest.
func DecliningCost(m *SegmentMeta, now uint64) float64 {
	return core.DecliningCost(m, now)
}

// Simulator: the paper's evaluation substrate.
type (
	// SimConfig sizes the simulated log-structured store.
	SimConfig = sim.Config
	// SimResult reports write amplification and emptiness at cleaning.
	SimResult = sim.Result
	// SimRunOptions sizes the update stream and warmup.
	SimRunOptions = sim.RunOptions
)

// RunSim simulates one (config, algorithm, workload) combination.
func RunSim(cfg SimConfig, alg Algorithm, gen Workload, opts SimRunOptions) (SimResult, error) {
	return sim.Run(cfg, alg, gen, opts)
}

// Workload is a page-update stream with an optional exact-rate oracle.
type Workload = workload.Generator

// Workload generators of the paper's evaluation (§6.1.4).
var (
	// UniformWorkload updates all pages with equal probability.
	UniformWorkload = workload.NewUniform
	// HotColdWorkload sends m of the updates to 1-m of the pages.
	HotColdWorkload = workload.NewSkew
	// ZipfWorkload is Zipfian with any exponent θ>0 (0.99 and 1.35 are the
	// paper's "80-20" and "90-10").
	ZipfWorkload = workload.NewZipf
	// ShiftingWorkload moves its hotspot over time (extension).
	ShiftingWorkload = workload.NewShifting
	// ReplayWorkload replays a recorded page-write trace.
	ReplayWorkload = workload.NewReplay
)

// Closed-form analysis (paper §2-§3).
var (
	// FixpointE solves E = 1-(1/e)^(E/F) (Table 1).
	FixpointE = analysis.FixpointE
	// CleaningCost is equation 1: 2/E segment writes per segment of data.
	CleaningCost = analysis.CostSeg
	// WriteAmplification is equation 2: (1-E)/E.
	WriteAmplification = analysis.Wamp
	// HotColdMinCost is the §3 two-population cost at a given slack split.
	HotColdMinCost = analysis.HotColdCost
)

// Durable page store.
type (
	// Store is a durable log-structured page store with CRC-verified
	// records, crash recovery and pluggable cleaning.
	Store = store.Store
	// StoreOptions configures Open.
	StoreOptions = store.Options
	// StoreStats reports occupancy, durability and cleaning efficiency.
	StoreStats = store.Stats
	// StoreBatch collects page writes/deletes for one atomic Store.Apply.
	StoreBatch = store.Batch
)

// Store errors.
var (
	ErrNotFound = store.ErrNotFound
	ErrFull     = store.ErrFull
)

// OpenStore creates or recovers a durable page store.
func OpenStore(opts StoreOptions) (*Store, error) { return store.Open(opts) }

// NewStoreBatch returns an empty page-store batch:
// NewStoreBatch().Write(id, data).Delete(id) → Store.Apply.
func NewStoreBatch() *StoreBatch { return store.NewBatch() }

// Durability is the explicit write-durability policy of the engines
// (StoreOptions.Durability / KVOptions.Durability).
type Durability = core.Durability

// Durability levels, weakest first.
const (
	// DurNone never fsyncs (the default).
	DurNone = core.DurNone
	// DurSeal fsyncs segment seals and checkpoints.
	DurSeal = core.DurSeal
	// DurCommit group-fsyncs on every commit — concurrent committers
	// coalesce onto one fsync — and makes batches crash-atomic.
	DurCommit = core.DurCommit
)

// StreamStats is the per-stream occupancy snapshot in Stats().Streams on
// both engines; WrittenStreams counts the streams ever appended to.
type StreamStats = core.StreamStats

// WrittenStreams counts the streams of a Stats().Streams snapshot that
// were ever appended to.
func WrittenStreams(ss []StreamStats) int { return core.WrittenStreams(ss) }

// Background cleaning (StoreOptions.BackgroundClean / KVOptions.
// BackgroundClean): the shared watermark-driven reclamation engine.
type (
	// CleanerStats is the background cleaner's lifecycle snapshot, exposed
	// through StoreStats.Cleaner and KVStats.Cleaner: cycles, segments
	// reclaimed, bytes relocated, and how long writers were blocked below
	// the emergency floor.
	CleanerStats = cleaner.Stats
)

// Durable B+-tree database engine on the page store.
type (
	// PageDB is a durable keyed database: named B+-trees whose nodes live
	// as pages in a log-structured Store, faulted through a buffer pool and
	// committed as atomic batches. Open recovers every tree from the store
	// (metadata page + crash-atomic commits). See internal/pagedb.
	PageDB = pagedb.DB
	// PageDBOptions configures OpenPageDB: the backing StoreOptions
	// (directory, geometry, cleaning algorithm, durability) plus the
	// node-cache size.
	PageDBOptions = pagedb.Options
	// PageDBStats is the layered snapshot: node cache, backing store
	// (cleaner and streams included), commit counters.
	PageDBStats = pagedb.Stats
	// PageTree is one named B+-tree of a PageDB (Get/Put/Delete/Scan).
	// Its algorithm — insert/split, delete with borrow+merge rebalancing,
	// scans, invariants — is the SAME unified core (internal/btree) the
	// in-memory TPC-C trace engine runs, instantiated over the durable
	// node cache.
	PageTree = pagedb.Tree
	// PageTxn is one write transaction of a PageDB (db.Begin): operations
	// addressed by tree name buffer privately, reads see the transaction's
	// own writes over the committed state, and Commit makes them durable
	// through the write-ahead log's group fsync — per-transaction
	// durability at a fraction of an fsync per transaction, with dirty
	// pages writing back lazily at the next checkpoint (db.Commit).
	PageTxn = pagedb.Txn
	// PageView is the consistent multi-read snapshot handle of
	// PageDB.View: no transaction can apply between two reads inside one
	// View callback.
	PageView = pagedb.View
)

// OpenPageDB creates or recovers a durable B+-tree database on a
// log-structured page store:
//
//	db, _ := repro.OpenPageDB(repro.PageDBOptions{
//		Store: repro.StoreOptions{Dir: dir, Durability: repro.DurCommit,
//			BackgroundClean: true, Algorithm: repro.MDCRouted()},
//	})
//	users, _ := db.Tree("users")
//	users.Put(42, profile)
//	db.Commit() // one atomic, group-fsynced batch (checkpoint)
//
//	txn, _ := db.Begin()
//	txn.Put("users", 43, profile)
//	txn.Commit() // per-transaction durability via the WAL's group fsync
func OpenPageDB(opts PageDBOptions) (*PageDB, error) { return pagedb.Open(opts) }

// In-memory value-log KV store (variable-size values).
type (
	// KV is an in-memory log-structured key-value store (RAMCloud-style
	// log-structured memory): a string-key index over a memory-backed page
	// store, a value (at most half a segment less 24 B) one page record.
	KV = vlog.Store
	// KVOptions configures NewKV.
	KVOptions = vlog.Options
	// KVStats reports byte-level write amplification, headers included.
	KVStats = vlog.Stats
	// KVBatch collects Puts/Deletes for one atomic KV.Commit.
	KVBatch = vlog.Batch
)

// NewKV creates an in-memory value-log store.
func NewKV(opts KVOptions) (*KV, error) { return vlog.New(opts) }

// NewKVBatch returns an empty value-log batch:
// NewKVBatch().Put(k, v).Delete(k) → KV.Commit.
func NewKVBatch() *KVBatch { return vlog.NewBatch() }

// Experiment harness: regenerates the paper's tables and figures.
type (
	// ExperimentScale selects simulation geometry (small/medium/paper).
	ExperimentScale = experiments.Scale
	// ExperimentTable is a rendered result table.
	ExperimentTable = experiments.Table
)

// Experiment scales.
const (
	ScaleSmall  = experiments.ScaleSmall
	ScaleMedium = experiments.ScaleMedium
	ScalePaper  = experiments.ScalePaper
)

// RunAllExperiments regenerates every table and figure at the given scale,
// logging progress to log (may be nil).
func RunAllExperiments(scale ExperimentScale, log io.Writer) []*ExperimentTable {
	return experiments.All(scale, log)
}
