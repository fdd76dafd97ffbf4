// FTL example: an SSD flash translation layer is a log-structured store
// whose "segments" are erase blocks, and whose write amplification directly
// burns flash endurance (paper §1). This example sizes a simulated FTL like
// a consumer SSD slice (4 KB pages, 2 MB erase blocks, 7% over-provisioning
// — i.e. fill factor 0.93) and compares cleaning policies under a skewed
// (Zipfian) update workload, reporting the flash-lifetime implications.
//
//	go run ./examples/ftl
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// A small slice of an SSD: 512 blocks x 512 pages x 4 KB = 1 GiB of
	// flash with 7% over-provisioning (a typical consumer configuration).
	cfg := sim.Config{
		PageSize:        4096,
		SegmentPages:    128,
		NumSegments:     2048,
		FillFactor:      0.93,
		FreeLowWater:    6,
		CleanBatch:      16,
		WriteBufferSegs: 8, // the drive's RAM write buffer
	}
	opts := sim.RunOptions{UpdateMultiple: 20, WarmupFraction: 0.5}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tWamp\tE@GC\ttotal flash writes per user write\trelative lifetime")
	var baseline float64
	for _, name := range []string{"age", "greedy", "cost-benefit", "multi-log", "MDC"} {
		alg, err := core.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		gen := workload.NewZipf(cfg.UserPages(), 0.99, 42)
		res, err := sim.Run(cfg, alg, gen, opts)
		if err != nil {
			log.Fatal(err)
		}
		// Every user write costs 1 + Wamp flash page programs.
		total := 1 + res.Wamp
		if name == "age" {
			baseline = total
		}
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.2fx\n",
			name, res.Wamp, res.MeanEAtClean, total, baseline/total)
	}
	w.Flush()
	fmt.Println("\nrelative lifetime = flash programs under age-based cleaning / programs under this policy")
	fmt.Println("(same host workload; fewer GC relocations = less wear, per paper §1.2)")
}
