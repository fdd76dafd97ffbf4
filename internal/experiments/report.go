package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// AlgReport is one engine run inside a Report: the storage-side outcome of
// a single execution plus the compact metrics snapshot of the registry that
// instrumented it. Engine names the stack that ran ("pagedb", "page store",
// "value log"); Algorithm labels the variant — the placement algorithm for
// the placement experiments, the cleaning or batching mode for the others.
// The flat fields duplicate the headline numbers of the run's table row so
// they can be read without digging into Metrics; everything else (latency
// quantiles, cleaner phase costs, victim-E histograms) lives in Metrics.
type AlgReport struct {
	Engine          string  `json:"engine"`
	Algorithm       string  `json:"algorithm"`
	UserWrites      uint64  `json:"user_writes"`
	GCWrites        uint64  `json:"gc_writes"`
	WriteAmp        float64 `json:"write_amp"`
	MeanEAtClean    float64 `json:"mean_e_at_clean"`
	SegmentsCleaned uint64  `json:"segments_cleaned"`
	CleanerCycles   uint64  `json:"cleaner_cycles"`
	// ThroughputOps is operations (or transactions) per second over the
	// run's timed phase; 0 when the run has no timed phase.
	ThroughputOps float64 `json:"throughput_ops_per_sec"`
	// Metrics is the run's registry snapshot: counters, gauges and latency
	// histograms with quantiles.
	Metrics *obs.Snapshot `json:"metrics"`
}

// Report is the document `lsbench -metrics-out` persists (by convention as
// BENCH_<exp>.json): run metadata plus one AlgReport per engine run. CI
// writes one per smoke experiment, validates the schema with cmd/benchcheck
// and archives them as artifacts; none is committed, and performance is
// bench/'s job, not theirs.
type Report struct {
	Experiment string      `json:"experiment"`
	Scale      string      `json:"scale"`
	UnixNanos  int64       `json:"unix_nanos"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Runs       []AlgReport `json:"runs"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// The active report is package state because the experiment drivers are
// free functions called through several layers; only the live-engine
// experiments (cleaner, routing, batching, tpcc) record runs — the
// simulator experiments have no engine registry to snapshot.
var (
	reportMu     sync.Mutex
	activeReport *Report
)

// BeginReport arms run collection: until TakeReport, every live-engine
// experiment run appends an AlgReport to the returned document.
func BeginReport(experiment string, scale Scale) {
	reportMu.Lock()
	defer reportMu.Unlock()
	activeReport = &Report{
		Experiment: experiment,
		Scale:      scale.String(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// TakeReport disarms collection and returns the report with every run
// recorded since BeginReport, or nil if collection was never armed.
// UnixNanos is left zero; the caller stamps it (lsbench does, at write
// time).
func TakeReport() *Report {
	reportMu.Lock()
	defer reportMu.Unlock()
	r := activeReport
	activeReport = nil
	return r
}

// snapshotOf captures a registry snapshot on the heap for an AlgReport, in
// the compact form: zero-valued and empty series dropped and the event ring
// omitted (absence means zero; the snapshot is marked Compact).
func snapshotOf(r *obs.Registry) *obs.Snapshot {
	s := r.Snapshot().Compacted()
	return &s
}

// liveReg is the most recently opened engine registry. The experiment
// drivers build a fresh registry per run, so the -serve introspection
// server reads through this pointer instead of holding any one registry.
var liveReg atomic.Pointer[obs.Registry]

// publishLive makes r the process's live registry, the one LiveRegistry
// (and therefore a running -serve server) reports. Each live-engine run
// publishes its registry right after opening the engine.
func publishLive(r *obs.Registry) {
	if r != nil {
		liveReg.Store(r)
	}
}

// LiveRegistry returns the most recently published engine registry — nil
// before the first live-engine run opens one. It is the Source lsbench
// hands to httpx.Serve: scrapes follow the current run automatically.
func LiveRegistry() *obs.Registry { return liveReg.Load() }

// recordRun appends a run to the active report; a no-op when collection is
// disarmed, so the experiment drivers call it unconditionally.
func recordRun(run AlgReport) {
	reportMu.Lock()
	defer reportMu.Unlock()
	if activeReport != nil {
		activeReport.Runs = append(activeReport.Runs, run)
	}
}
