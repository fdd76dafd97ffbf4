// KV log example: an in-memory log-structured key-value store (RAMCloud
// style log-structured memory) holding variable-size session records — a
// string-key index over the page store on its memory backend, each session
// one page record. Hot sessions are updated constantly; MDC's variable-size
// declining-cost priority (paper §4.4) keeps the byte-level write
// amplification of the cleaner low compared to greedy.
//
//	go run ./examples/kvlog
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/vlog"
)

func main() {
	log.SetFlags(0)

	for _, alg := range []core.Algorithm{core.Greedy(), core.CostBenefit(), core.MDC()} {
		kv, err := vlog.New(vlog.Options{
			SegmentBytes: 64 << 10,
			MaxSegments:  64, // 4 MiB arena
			Algorithm:    alg,
		})
		if err != nil {
			log.Fatal(err)
		}

		// ~3 MiB of live sessions (fill ~0.75), sizes 64..576 bytes,
		// loaded through the batch API: one lock hold and one admission
		// check per 256 sessions, and each Commit is all-or-nothing.
		r := rand.New(rand.NewPCG(7, 7))
		session := func(id int) string { return fmt.Sprintf("session:%06d", id) }
		blob := make([]byte, 1024)
		const sessions = 10000
		b := vlog.NewBatch()
		for id := 0; id < sessions; id++ {
			b.Put(session(id), blob[:64+id%512])
			if b.Len() == 256 || id == sessions-1 {
				if err := kv.Commit(b); err != nil {
					log.Fatal(err)
				}
				b.Reset()
			}
		}
		// Skewed updates: 10% of sessions take 90% of the traffic.
		for i := 0; i < 200000; i++ {
			id := r.IntN(sessions)
			if r.Float64() < 0.9 {
				id = r.IntN(sessions / 10)
			}
			if err := kv.Put(session(id), blob[:64+(id+i)%512]); err != nil {
				log.Fatal(err)
			}
		}
		st := kv.Stats()
		fmt.Printf("%-13s live %.1f MiB / %.1f MiB, cleaner moved %.1f MiB for %.1f MiB written (byte Wamp %.3f, E@GC %.3f)\n",
			alg.Name,
			float64(st.LiveBytes)/(1<<20), float64(st.CapacityBytes)/(1<<20),
			float64(st.GCBytes)/(1<<20), float64(st.UserBytes)/(1<<20),
			st.WriteAmp, st.MeanEAtClean)
		kv.Close()
	}
	fmt.Println("\nMDC waits for hot segments to empty and clusters relocations by")
	fmt.Println("estimated update frequency, so it moves fewer bytes per byte written.")
}
