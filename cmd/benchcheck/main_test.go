package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// goodReport is a compact tpcc report as lsbench writes it: one run whose
// snapshot comes from a real registry, so the histograms are whatever
// obs.Histogram.Snapshot produces.
func goodReport() *experiments.Report {
	reg := obs.New()
	for _, name := range []string{"store.commit.ns", "pagedb.commit.ns", "tpcc.tx.NewOrder.ns"} {
		h := reg.Histogram(name)
		for v := uint64(1); v <= 1000; v++ {
			h.Record(v * 100)
		}
	}
	reg.Histogram("cleaner.select.ns") // empty: compaction drops it
	snap := reg.Snapshot().Compacted()
	return &experiments.Report{
		Experiment: "tpcc",
		Scale:      "small",
		UnixNanos:  time.Now().UnixNano(),
		GoVersion:  "go-test",
		Runs: []experiments.AlgReport{{
			Engine:       "pagedb",
			Algorithm:    "mdc",
			WriteAmp:     0.25,
			MeanEAtClean: 0.9,
			Metrics:      &snap,
		}},
	}
}

// TestCheckFile drives the validation CI gates its smoke reports with: the
// good report passes, and each way a report can be broken fails with the
// message that names it.
func TestCheckFile(t *testing.T) {
	// edit replaces one histogram of the report's only run.
	edit := func(name string, f func(*obs.HistogramSnapshot)) func(*experiments.Report) {
		return func(r *experiments.Report) {
			h := r.Runs[0].Metrics.Histograms[name]
			f(&h)
			r.Runs[0].Metrics.Histograms[name] = h
		}
	}
	cases := []struct {
		name    string
		mutate  func(*experiments.Report)
		wantErr string // empty: must pass
	}{
		{"good compact tpcc report", func(*experiments.Report) {}, ""},
		{"missing metadata", func(r *experiments.Report) { r.GoVersion = "" }, "missing run metadata"},
		{"zero unix_nanos", func(r *experiments.Report) { r.UnixNanos = 0 }, "unix_nanos not stamped"},
		{"run without snapshot", func(r *experiments.Report) { r.Runs[0].Metrics = nil }, "no metrics snapshot"},
		{"non-monotone quantiles",
			edit("store.commit.ns", func(h *obs.HistogramSnapshot) { h.P95 = h.P999 + 1 }),
			`histogram "store.commit.ns": quantiles not monotone`},
		{"bucket counts off the total",
			edit("store.commit.ns", func(h *obs.HistogramSnapshot) { h.Count++ }),
			"bucket counts sum to 1000, total says 1001"},
		{"tpcc with empty pagedb.commit.ns",
			func(r *experiments.Report) { delete(r.Runs[0].Metrics.Histograms, "pagedb.commit.ns") },
			`required histogram "pagedb.commit.ns" recorded nothing`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := goodReport()
			tc.mutate(rep)
			path := filepath.Join(t.TempDir(), "BENCH_tpcc.json")
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			err := checkFile(path)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("good report rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted; want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
