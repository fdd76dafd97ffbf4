// Command lsbench regenerates the paper's evaluation: every table and
// figure, as markdown (the source of README.md's "Paper vs measured"
// tables) or CSV.
//
// Examples:
//
//	lsbench -exp all -scale medium          # everything, ~minutes
//	lsbench -exp fig5 -scale small -v       # one experiment with progress
//	lsbench -exp table1 -format csv
//	lsbench -exp cleaner -scale medium      # foreground vs background cleaning tail latency
//	lsbench -exp routing -scale medium      # routed vs single-stream placement on the live engines
//	lsbench -exp batching -scale medium     # per-op vs batched writes with group commit
//	lsbench -exp tpcc -scale medium         # TPC-C end-to-end on the durable B+-tree engine
//	lsbench -exp tpcc -fill 0.8             # the same at a target sealed-region fill of 0.8
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs/httpx"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lsbench: ")

	exp := flag.String("exp", "all", "experiment: all, table1, table2, fig3, fig4, fig5, fig6, cleaner, routing, batching, tpcc")
	scaleName := flag.String("scale", "medium", "geometry preset: small, medium, paper")
	format := flag.String("format", "md", "output format: md, csv")
	fill := flag.Float64("fill", 0, "tpcc only: target sealed-region fill factor (0 = default 0.6; routed placement is predicted to pay at 0.8+)")
	metricsOut := flag.String("metrics-out", "", "write a metrics report (run metadata + per-run registry snapshots) as JSON to this path, e.g. BENCH_tpcc.json; only the live-engine experiments (cleaner, routing, batching, tpcc) record runs")
	serve := flag.String("serve", "", "serve live introspection over HTTP on this address (e.g. localhost:6060) while the experiments run: /metrics.json, /metrics/delta, /trace, /debug/pprof/")
	verbose := flag.Bool("v", false, "log per-run progress to stderr")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	if *fill != 0 {
		if *exp != "tpcc" {
			log.Fatal("-fill only applies to -exp tpcc")
		}
		if *fill <= 0.1 || *fill > 0.95 {
			log.Fatalf("-fill %.2f outside (0.1, 0.95]", *fill)
		}
	}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}

	if *metricsOut != "" {
		experiments.BeginReport(*exp, scale)
	}
	if *serve != "" {
		srv, err := httpx.Serve(*serve, experiments.LiveRegistry)
		if err != nil {
			log.Fatalf("-serve %s: %v", *serve, err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "lsbench: introspection at http://%s/ (metrics.json, metrics/delta, trace, debug/pprof)\n", srv.Addr())
	}

	start := time.Now()
	var tables []*experiments.Table
	switch *exp {
	case "all":
		tables = experiments.All(scale, progress)
	case "table1":
		tables = append(tables, experiments.Table1(scale, nil, progress))
	case "table2":
		tables = append(tables, experiments.Table2(scale, progress))
	case "fig3":
		tables = append(tables, experiments.Fig3(scale, progress))
	case "fig4":
		tables = append(tables, experiments.Fig4(scale, progress))
	case "fig5":
		tables = append(tables,
			experiments.Fig5(scale, experiments.Fig5Uniform, progress),
			experiments.Fig5(scale, experiments.Fig5Zipf99, progress),
			experiments.Fig5(scale, experiments.Fig5Zipf135, progress))
	case "fig6":
		tables = append(tables, experiments.Fig6(scale, nil, progress))
	case "cleaner":
		// Beyond the paper: foreground vs background cleaning write tail
		// on the page store, with the cleaner lifecycle stats.
		tables = append(tables, experiments.CleanerLatency(scale, progress))
	case "routing":
		// Beyond the paper: routed multi-stream placement vs single-stream
		// MDC on the live engines (the §5.3 separation as placement).
		tables = append(tables, experiments.StreamRouting(scale, progress))
	case "batching":
		// Beyond the paper: per-op vs batched writes under the explicit
		// durability contract — group-commit coalescing on the page store,
		// lock amortization on the value log.
		tables = append(tables, experiments.Batching(scale, progress))
	case "tpcc":
		// Beyond the paper: TPC-C replayed end-to-end against the durable
		// B+-tree engine (pagedb) on the page store — the paper's B-tree
		// page-store setting executed live instead of via recorded traces.
		// -fill sweeps the sealed-region fill the geometry targets.
		tables = append(tables, experiments.TPCCDurableAt(scale, cmp.Or(*fill, 0.6), progress))
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}

	for _, t := range tables {
		switch *format {
		case "md":
			t.Markdown(os.Stdout)
		case "csv":
			fmt.Printf("# %s\n", t.Name)
			t.CSV(os.Stdout)
			fmt.Println()
		default:
			log.Fatalf("unknown format %q", *format)
		}
	}
	if *metricsOut != "" {
		rep := experiments.TakeReport()
		rep.UnixNanos = time.Now().UnixNano()
		if len(rep.Runs) == 0 {
			log.Printf("warning: -exp %s records no metrics runs (only cleaner, routing, batching and tpcc do)", *exp)
		}
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "lsbench: wrote %d metric run(s) to %s\n", len(rep.Runs), *metricsOut)
	}
	fmt.Fprintf(os.Stderr, "lsbench: %s at scale %s in %.1fs\n", *exp, scale, time.Since(start).Seconds())
}
