// TPC-C replay example: the paper's §6.3 experiment in miniature. Runs the
// TPC-C workload against the B+-tree storage engine with a CLOCK buffer
// cache, captures the page-write I/O trace from dirty evictions and
// checkpoints, then replays the trace through the log-structure simulator
// under several cleaning policies.
//
//	go run ./examples/tpccreplay
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// A scaled-down TPC-C database (README.md, "The TPC-C substitution":
	// the paper's scale factors 350-560 with a 4 GB cache are reduced
	// proportionally, preserving the trace's skewed and shifting page-update
	// pattern).
	eng := tpcc.NewEngine(tpcc.Config{Warehouses: 2, Seed: 7})
	eng.Run(20000)
	tr := eng.Trace()
	st := eng.Stats()
	fmt.Printf("TPC-C: %d pages after load, %d at end, %d traced writes, cache hit %.3f\n\n",
		tr.Preload, tr.Universe, len(tr.Writes), st.Pool.HitRatio())

	const fill = 0.8
	const segPages = 64
	numSegs := int(float64(tr.Universe)/(fill*segPages)) + 1

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tWamp\tE@GC\tsegments cleaned")
	for _, name := range []string{"age", "greedy", "cost-benefit", "multi-log", "MDC", "MDC-opt"} {
		alg, err := core.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		cfg := sim.Config{
			SegmentPages: segPages, NumSegments: numSegs,
			FillFactor:   float64(tr.Universe) / float64(numSegs*segPages),
			FreeLowWater: 4, CleanBatch: 8, WriteBufferSegs: 8,
		}
		// The *-opt variants pre-analyze page update frequencies from the
		// trace, as in the paper.
		gen := workload.NewReplay("tpcc", tr.Writes, tr.Universe, tr.Preload, alg.Exact)
		res, err := sim.Run(cfg, alg, gen, sim.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%d\n", name, res.Wamp, res.MeanEAtClean, res.SegmentsCleaned)
	}
	w.Flush()
	fmt.Println("\nexpected shape (paper Fig. 6): age worst; multi-log behind cost-benefit")
	fmt.Println("(slow convergence on short traces); MDC lowest among estimator policies.")
}
