// Command bench is the repository's benchmark: four workloads driven through
// the engines' public functions, every answer checked against an oracle, nine
// end-to-end metrics from an untraced run and the per-layer metrics from a
// traced one. README.md in this directory says what each workload and metric
// is for; BENCHMARK.json at the root of the repository is the contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/pagedb"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	smoke    bool
	dir      string // runs make their data directories under it
	traceOut string // span file of a traced run
}

// A run loads at least setupRepeats times and reports the median, and a
// traced run opens at least reopenCopies images and reports the fastest open
// (an untraced run opens one, to check it); durations of
// tens of milliseconds to a second do not repeat on a shared box without
// this. The shorter they are the worse they repeat, so a run goes on, up to
// three times the count, while the repeats so far fit a time budget.
const (
	setupRepeats, setupBudget  = 5, 3 * time.Second
	reopenCopies, reopenBudget = 7, 2 * time.Second
)

// again reports whether repeat i (from 0) of a measurement that needs at
// least min repeats and started at start is due.
func again(i, min int, start time.Time, budget time.Duration) bool {
	return i < min || (i < 3*min && time.Since(start) < budget)
}

func main() {
	var c config
	var trace, repeat int
	var contractPath string
	flag.StringVar(&c.workload, "workload", "", "tpcc_txn, store_zipf_f80, kv_mixed_spill or kv_read_fit")
	flag.Int64Var(&c.seed, "seed", 1, "seeds every key and operation-mix stream")
	flag.IntVar(&c.seconds, "seconds", 10, "length of the measured phase: a workload issues its per-second operation budget this many times")
	flag.IntVar(&trace, "trace", 0, "1 repeats the measured phase with spans on and prints the per-layer metrics")
	flag.BoolVar(&c.smoke, "smoke", false, "tiny sizes, for the self-tests")
	flag.StringVar(&c.dir, "dir", "", "where a run makes its data directory: a real disk, not tmpfs (default: the system's temporary directory)")
	flag.StringVar(&c.traceOut, "trace-out", "", "span file of a traced run (default: trace-<workload>.json under -dir)")
	flag.IntVar(&repeat, "repeat", 0, "calibration: run the workload this many times, each with the next seed, and print the spread of every metric")
	flag.StringVar(&contractPath, "contract", "BENCHMARK.json", "the contract whose bounds -repeat prints beside the spreads")
	flag.Parse()
	c.traced = trace != 0
	if c.dir == "" {
		c.dir = os.TempDir()
	}
	var err error
	switch {
	case flag.NArg() > 0 || c.seconds < 1 || newWorkload(c) == nil:
		err = fmt.Errorf("usage: -workload tpcc_txn|store_zipf_f80|kv_mixed_spill|kv_read_fit [-seed n] [-seconds n] [-trace 0|1]")
	case repeat > 0:
		err = calibrate(c, repeat, contractPath)
	default:
		err = run(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func newWorkload(c config) workload {
	switch c.workload {
	case "tpcc_txn":
		return &tpccWL{p: pick(c.smoke, tpccFull, tpccSmoke), seed: c.seed, seconds: c.seconds}
	case "store_zipf_f80":
		return &storeWL{p: pick(c.smoke, storeFull, storeSmoke), seed: c.seed, seconds: c.seconds}
	case "kv_mixed_spill":
		return &kvWL{p: pick(c.smoke, kvMixedFull, kvMixedSmoke), seed: c.seed, seconds: c.seconds}
	case "kv_read_fit":
		return &kvWL{p: pick(c.smoke, kvReadFull, kvReadSmoke), seed: c.seed, seconds: c.seconds}
	}
	return nil
}

func pick[T any](smoke bool, full, small T) T {
	if smoke {
		return small
	}
	return full
}

// run executes one run and prints its result. It returns an error — and the
// process exits non-zero — when the run could not be made or any operation
// or check failed.
func run(c config) error {
	m, attempted, failed, err := execute(c)
	if err != nil {
		return err
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer
	}
	if err := writeResult(os.Stdout, defs, m, attempted, failed); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d operations and checks failed", failed, attempted)
	}
	return nil
}

// phase is one measured phase: what the clients saw and what the engine and
// the process counted across it.
type phase struct {
	rec           *recorder
	attempted     int64
	wall          time.Duration
	before, after boundary
}

// rate is the phase's operations per second.
func (ph phase) rate() float64 { return float64(ph.attempted) / ph.wall.Seconds() }

// loadPhase is what the last load did, for the workload that writes at no
// other time.
type loadPhase struct {
	ops, userBytes int64
	start          procCounters
	end            boundary
}

// boundary is every counter read at one end of a phase.
type boundary struct {
	proc procCounters
	db   pagedb.Stats
	obs  obs.Snapshot
}

// loadRepeatedly opens a fresh engine under root and loads it, at least min
// times, and sets setup_s to the median. It returns the last engine's
// directory, left open in w, and what its load did.
func loadRepeatedly(w workload, root string, min int, budget time.Duration, m metrics) (dir string, ld loadPhase, err error) {
	var took []int64
	for i, start := 0, time.Now(); again(i, min, start, budget); i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return "", ld, fmt.Errorf("load: close: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return "", ld, err
			}
		}
		dir = filepath.Join(root, fmt.Sprintf("data%d", i))
		if ld.start, err = readProc(); err != nil {
			return "", ld, err
		}
		t0 := time.Now()
		if ld.ops, ld.userBytes, err = w.load(dir); err != nil {
			return "", ld, fmt.Errorf("load: %w", err)
		}
		took = append(took, int64(time.Since(t0)))
	}
	m["setup_s"] = float64(quantile(sortedCopy(took), 0.5)) / 1e9
	ld.end, err = readBoundary(w)
	return dir, ld, err
}

// reopenImages copies dir to image and opens the copy, at least min times,
// each open on a fresh copy because an open repairs and rewrites what it
// finds. The first image is checked in full against live. It returns the
// fastest open and the transactions the first one replayed.
func reopenImages(w workload, dir, image string, min int, budget time.Duration, live state, checks *recorder) (fastest time.Duration, replayed uint64, err error) {
	for i, start := 0, time.Now(); again(i, min, start, budget); i++ {
		if err := copyDir(dir, image); err != nil {
			return 0, 0, fmt.Errorf("image: %w", err)
		}
		d, r := w.reopen(image, i == 0, live, checks)
		if i == 0 {
			replayed = r
		}
		if i == 0 || d < fastest {
			fastest = d
		}
		if err := os.RemoveAll(image); err != nil {
			return 0, 0, err
		}
	}
	return fastest, replayed, nil
}

func readBoundary(w workload) (boundary, error) {
	var b boundary
	var err error
	b.db, b.obs = w.counters()
	b.proc, err = readProc()
	return b, err
}

func measure(w workload, tr *tracer) (phase, error) {
	ph := phase{rec: &recorder{tr: tr}}
	var err error
	if ph.before, err = readBoundary(w); err != nil {
		return ph, err
	}
	t0 := time.Now()
	ph.attempted = w.run(ph.rec)
	ph.wall = time.Since(t0)
	ph.after, err = readBoundary(w)
	return ph, err
}

// execute is the order of a run: sync, set up (several times), measure
// untraced, measure again traced if asked, quiesce, check the live state,
// take crash images and reopen them.
func execute(c config) (m metrics, attempted, failed int64, err error) {
	runtime.GOMAXPROCS(2)
	syscall.Sync() // an earlier run's dirty pages must not ride on this run's fsyncs
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	root, err := os.MkdirTemp(c.dir, c.workload+"-")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(root)

	w := newWorkload(c)
	defer w.close() // error paths; the success path checks its Close below
	m = metrics{}

	// Set-up is the program's: open and load. The warm-up and the flush of
	// what both left dirty belong to neither set-up nor measurement.
	loads, loadBudget := setupRepeats, setupBudget
	if c.traced {
		loads, loadBudget = 1, 0
	}
	dir, ld, err := loadRepeatedly(w, root, loads, loadBudget, m)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := w.warm(); err != nil {
		return nil, 0, 0, fmt.Errorf("warm-up: %w", err)
	}
	syscall.Sync()

	ph, err := measure(w, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	attempted, failed = ph.attempted, ph.rec.failed
	endToEndMetrics(m, ph, ld)

	// A traced run measures three times: untraced, traced, untraced. The
	// stat metrics come from the first phase, the span metrics from the
	// second, and what tracing cost from the second against the mean of the
	// other two, so that a drift of the engine's state across the phases
	// does not pass for overhead.
	var traced phase
	if c.traced {
		clientMetrics(m, ph)
		statMetrics(m, ph)
		if traced, err = measure(w, newTracer(1<<20)); err != nil {
			return nil, 0, 0, err
		}
		again, err := measure(w, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		failed += traced.rec.failed + again.rec.failed
		spanMetrics(m, traced, ph, w)
		m["trace.overhead_share"] = 1 - 2*traced.rate()/(ph.rate()+again.rate())
	}

	// Quiesce. The samples are dropped first: the live heap is the
	// engine's and the oracle's, not the benchmark's bookkeeping.
	if err := waitCleanerIdle(w); err != nil {
		return nil, 0, 0, err
	}
	ph.rec.lat = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	checks := &recorder{}
	live := w.check(checks)
	if !w.killSafe() {
		if err := w.close(); err != nil {
			return nil, 0, 0, fmt.Errorf("close: %w", err)
		}
	}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	m["space_amp"] = ratio(float64(size), float64(live.payload))

	// Images: the directory as a kill would leave it (or, for an engine that
	// is not kill-safe, as its Close left it). An untraced run opens one, to
	// check it; a traced run goes on to time more opens.
	opens, openBudget := 1, time.Duration(0)
	if c.traced {
		opens, openBudget = reopenCopies, reopenBudget
	}
	fastest, replayed, err := reopenImages(w, dir, filepath.Join(root, "image"), opens, openBudget, live, checks)
	if err != nil {
		return nil, 0, 0, err
	}
	failed += checks.failed
	if err := w.close(); err != nil {
		return nil, 0, 0, fmt.Errorf("close: %w", err)
	}

	if c.traced {
		m["pagedb.open_s"], m["store.open_s"] = fastest.Seconds(), 0
		if c.workload == "store_zipf_f80" {
			m["pagedb.open_s"], m["store.open_s"] = 0, fastest.Seconds()
		}
		m["pagedb.replayed_txns"] = float64(replayed)
		if err := probes(root, c.seed, c.smoke, m); err != nil {
			return nil, 0, 0, err
		}
		m["sim.engine_wamp_gap"] = 0
		if c.workload == "store_zipf_f80" {
			m["sim.engine_wamp_gap"] = m["store.gc_pages_per_user_page"] - m["sim.wamp"]
		}
		out := c.traceOut
		if out == "" {
			out = filepath.Join(c.dir, "trace-"+c.workload+".json")
		}
		if err := traced.rec.tr.writeJSON(out); err != nil {
			return nil, 0, 0, fmt.Errorf("span file: %w", err)
		}
		fmt.Printf("%d spans written to %s\n", len(traced.rec.tr.spans), out)
	}
	return m, attempted, failed, nil
}
