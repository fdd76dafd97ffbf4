// Command benchcheck validates the BENCH_*.json metrics reports that
// `lsbench -metrics-out` writes. CI runs it on every report its smoke runs
// produce before archiving them, so a malformed report (or an
// instrumentation regression that empties a required series) fails the
// build. It judges no performance: that is bench/'s job.
//
// For every file argument it checks that the file is valid JSON in the
// experiments.Report schema, that the run metadata is present, that every
// run carries a registry snapshot, and that every histogram is internally
// consistent: quantiles monotone (p50 <= p95 <= p99 <= p999), mean and
// quantiles zero when empty, and the bucket counts summing to the total.
// Reports of the tpcc experiment additionally must show live
// per-transaction and commit latency series. Snapshots are compact
// (zero-valued series dropped), so an absent series counts as zero.
//
// Usage:
//
//	benchcheck BENCH_tpcc.json [BENCH_routing.json ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcheck: ")
	flag.Parse() // no flags are defined: any -option is a usage error
	if flag.NArg() == 0 {
		log.Fatal("usage: benchcheck BENCH_<exp>.json ...")
	}
	failed := false
	for _, path := range flag.Args() {
		if err := checkFile(path); err != nil {
			log.Printf("FAIL %s: %v", path, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func checkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep experiments.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if rep.Experiment == "" || rep.Scale == "" || rep.GoVersion == "" {
		return fmt.Errorf("missing run metadata (experiment=%q scale=%q go_version=%q)",
			rep.Experiment, rep.Scale, rep.GoVersion)
	}
	if rep.UnixNanos == 0 {
		return fmt.Errorf("unix_nanos not stamped")
	}
	if len(rep.Runs) == 0 {
		return fmt.Errorf("no runs recorded")
	}
	hists := 0
	for i, run := range rep.Runs {
		if run.Algorithm == "" || run.Engine == "" {
			return fmt.Errorf("run %d: missing engine/algorithm labels", i)
		}
		if run.Metrics == nil {
			return fmt.Errorf("run %d (%s/%s): no metrics snapshot", i, run.Engine, run.Algorithm)
		}
		if run.WriteAmp < 0 || run.MeanEAtClean < 0 || run.MeanEAtClean > 1 {
			return fmt.Errorf("run %d (%s/%s): implausible write_amp=%g mean_e_at_clean=%g",
				i, run.Engine, run.Algorithm, run.WriteAmp, run.MeanEAtClean)
		}
		for name, h := range run.Metrics.Histograms {
			if err := checkHistogram(h); err != nil {
				return fmt.Errorf("run %d (%s/%s): histogram %q: %w", i, run.Engine, run.Algorithm, name, err)
			}
			hists++
		}
		// The commit path must have recorded: a tpcc run with zero committed
		// transactions is broken, not idle.
		if rep.Experiment == "tpcc" {
			if err := requireNonEmpty(run.Metrics,
				"store.commit.ns", "pagedb.commit.ns", "tpcc.tx.NewOrder.ns"); err != nil {
				return fmt.Errorf("run %d (%s/%s): %w", i, run.Engine, run.Algorithm, err)
			}
		}
	}
	fmt.Printf("ok %s: %s/%s, %d run(s), %d histogram(s)\n",
		path, rep.Experiment, rep.Scale, len(rep.Runs), hists)
	return nil
}

// checkHistogram asserts internal consistency of one latency histogram.
func checkHistogram(h obs.HistogramSnapshot) error {
	if h.Count == 0 {
		if h.Mean != 0 || h.P50 != 0 || h.P999 != 0 {
			return fmt.Errorf("empty but mean=%g p50=%g p999=%g", h.Mean, h.P50, h.P999)
		}
		return nil
	}
	if !(h.P50 <= h.P95 && h.P95 <= h.P99 && h.P99 <= h.P999) {
		return fmt.Errorf("quantiles not monotone: p50=%g p95=%g p99=%g p999=%g",
			h.P50, h.P95, h.P99, h.P999)
	}
	var sum uint64
	prev := uint64(0)
	first := true
	for _, b := range h.Buckets {
		if !first && b.LE <= prev {
			return fmt.Errorf("bucket bounds not increasing at le=%d", b.LE)
		}
		prev, first = b.LE, false
		sum += b.Count
	}
	if sum != h.Count {
		return fmt.Errorf("bucket counts sum to %d, total says %d", sum, h.Count)
	}
	return nil
}

// requireNonEmpty checks the named histograms recorded at least one sample
// (absent counts as zero).
func requireNonEmpty(s *obs.Snapshot, names ...string) error {
	for _, n := range names {
		if s.Histograms[n].Count == 0 {
			return fmt.Errorf("required histogram %q recorded nothing", n)
		}
	}
	return nil
}
