// Command lsbench regenerates the paper's evaluation: every table and
// figure, as markdown (the source of README.md's "Paper vs measured"
// tables) or CSV. Two live-engine runs, routing and tpcc, set the engine's
// write amplification beside the simulator's; -serve is their live view
// (metrics, trace, pprof over HTTP). Engine performance is measured by the
// bench/ module, not here.
//
// Examples:
//
//	lsbench -exp all -scale medium          # everything, ~minutes
//	lsbench -exp fig5 -scale small -v       # one experiment with progress
//	lsbench -exp table1 -format csv
//	lsbench -exp routing -scale medium      # routed vs single-stream placement on the live engines
//	lsbench -exp tpcc -scale medium         # TPC-C end-to-end on the durable B+-tree engine
//	lsbench -exp tpcc -fill 0.8             # the same at a target sealed-region fill of 0.8
//	lsbench -exp tpcc -serve localhost:6060 # TPC-C, scrapeable over HTTP while it runs
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

	exp := flag.String("exp", "all", "experiment: all, table1, table2, fig3, fig4, fig5, fig6, routing, tpcc")
	scaleName := flag.String("scale", "medium", "geometry preset: small, medium, paper")
	format := flag.String("format", "md", "output format: md, csv")
	fill := flag.Float64("fill", 0, "tpcc only: target sealed-region fill factor (0 = default 0.6; routed placement is predicted to pay at 0.8+)")
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
	case "routing":
		// Beyond the paper: routed multi-stream placement vs single-stream
		// MDC on the live engines (the §5.3 separation as placement).
		tables = append(tables, experiments.StreamRouting(scale, progress))
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
	fmt.Fprintf(os.Stderr, "lsbench: %s at scale %s in %.1fs\n", *exp, scale, time.Since(start).Seconds())
}
