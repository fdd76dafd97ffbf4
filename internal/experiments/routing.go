package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/vlog"
)

// StreamRouting compares single-stream MDC against routed placement on the
// LIVE engine under a skewed workload (hot 10% of pages take 90% of the
// updates): the paper's §5.3 attributes much of MDC's win to separating
// records by update frequency, and on the live engine that separation is
// realized as multi-stream routed placement (core.MDCRouted, core.MultiLog)
// rather than the simulator's sort buffer. The table reports write
// amplification, emptiness at cleaning and the streams actually used, on
// the page store with full pages and on the in-memory value log (the same
// store in memory, holding variable-size values under string keys).
//
// This is a systems extension beyond the paper's tables, so it is not part
// of All(); run it with `lsbench -exp routing`.
func StreamRouting(scale Scale, log io.Writer) *Table {
	var segPages, maxSegs, ops int
	switch scale {
	case ScaleSmall:
		segPages, maxSegs, ops = 32, 128, 40000
	case ScalePaper:
		segPages, maxSegs, ops = 64, 256, 400000
	default: // medium
		segPages, maxSegs, ops = 64, 128, 150000
	}
	t := &Table{
		Name: "stream-routing",
		Title: fmt.Sprintf("Routed vs single-stream placement on the live engines "+
			"(fill 0.6, hot 10%% gets 90%%, %d updates)", ops),
		Header: []string{"engine", "algorithm", "write amp", "mean E at clean", "segments cleaned", "streams"},
	}
	algs := []core.Algorithm{core.MDC(), core.MDCRouted(), core.MultiLog()}
	for _, alg := range algs {
		progress(log, "stream-routing: page store, %s", alg.Name)
		t.Rows = append(t.Rows, storeRoutingRun(segPages, maxSegs, ops, alg))
	}
	for _, alg := range algs {
		progress(log, "stream-routing: value log, %s", alg.Name)
		t.Rows = append(t.Rows, vlogRoutingRun(maxSegs, ops, alg))
	}
	return t
}

// skewedID draws a page/key id with the hot 10% taking 90% of the updates.
func skewedID(r *rand.Rand, universe int) int {
	if r.Float64() < 0.9 {
		return r.IntN(universe / 10)
	}
	return universe/10 + r.IntN(universe*9/10)
}

func storeRoutingRun(segPages, maxSegs, ops int, alg core.Algorithm) []string {
	opts := store.Options{
		PageSize:     512,
		SegmentPages: segPages,
		MaxSegments:  maxSegs,
		Algorithm:    alg,
	}
	s, err := store.Open(opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: stream-routing store open: %v", err))
	}
	defer s.Close()
	publishLive(s.Obs())
	live := maxSegs * segPages * 3 / 5 // fill factor 0.6
	buf := make([]byte, opts.PageSize)
	for id := uint32(0); id < uint32(live); id++ {
		if err := s.WritePage(id, buf); err != nil {
			panic(fmt.Sprintf("experiments: stream-routing preload: %v", err))
		}
	}
	r := rand.New(rand.NewPCG(Seed, Seed))
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := s.WritePage(uint32(skewedID(r, live)), buf); err != nil {
			panic(fmt.Sprintf("experiments: stream-routing write: %v", err))
		}
	}
	elapsed := time.Since(start)
	st := s.Stats()
	recordRun(AlgReport{
		Engine:          "page store",
		Algorithm:       alg.Name,
		UserWrites:      st.UserWrites,
		GCWrites:        st.GCWrites,
		WriteAmp:        st.WriteAmp,
		MeanEAtClean:    st.MeanEAtClean,
		SegmentsCleaned: st.SegmentsCleaned,
		CleanerCycles:   st.Cleaner.Cycles,
		ThroughputOps:   float64(ops) / elapsed.Seconds(),
		Metrics:         snapshotOf(s.Obs()),
	})
	return []string{"page store", alg.Name, f3(st.WriteAmp), f3(st.MeanEAtClean),
		fmt.Sprintf("%d", st.SegmentsCleaned), fmt.Sprintf("%d", core.WrittenStreams(st.Streams))}
}

func vlogRoutingRun(maxSegs, ops int, alg core.Algorithm) []string {
	opts := vlog.Options{
		SegmentBytes: 1 << 14,
		MaxSegments:  maxSegs,
		Algorithm:    alg,
	}
	s, err := vlog.New(opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: stream-routing vlog open: %v", err))
	}
	defer s.Close()
	publishLive(s.Obs())
	// ~128-byte records at fill factor 0.6.
	keys := maxSegs * opts.SegmentBytes * 3 / 5 / 128
	val := make([]byte, 100)
	key := func(k int) string { return fmt.Sprintf("key-%08d", k) }
	for k := 0; k < keys; k++ {
		if err := s.Put(key(k), val); err != nil {
			panic(fmt.Sprintf("experiments: stream-routing vlog preload: %v", err))
		}
	}
	r := rand.New(rand.NewPCG(Seed, Seed+1))
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := s.Put(key(skewedID(r, keys)), val); err != nil {
			panic(fmt.Sprintf("experiments: stream-routing vlog put: %v", err))
		}
	}
	elapsed := time.Since(start)
	st := s.Stats()
	recordRun(AlgReport{
		Engine:          "value log",
		Algorithm:       alg.Name,
		UserWrites:      st.UserWrites,
		GCWrites:        st.GCWrites,
		WriteAmp:        st.WriteAmp,
		MeanEAtClean:    st.MeanEAtClean,
		SegmentsCleaned: st.SegmentsCleaned,
		CleanerCycles:   st.Cleaner.Cycles,
		ThroughputOps:   float64(ops) / elapsed.Seconds(),
		Metrics:         snapshotOf(s.Obs()),
	})
	return []string{"value log", alg.Name, f3(st.WriteAmp), f3(st.MeanEAtClean),
		fmt.Sprintf("%d", st.SegmentsCleaned), fmt.Sprintf("%d", core.WrittenStreams(st.Streams))}
}
