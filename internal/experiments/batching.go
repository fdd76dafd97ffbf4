package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/vlog"
)

// Batching measures what the batched write API buys on the live engines:
// the paper's premise is that a log structured store amortizes "a single
// write I/O for a number of diverse" updates, and group commit is how that
// premise becomes throughput under an explicit durability contract. On the
// file-backed page store every per-op write at DurCommit pays (a share of)
// an fsync, while a batch pays one group fsync for the whole batch; the
// table reports throughput, the fsync-round count, and rounds per commit —
// under concurrency the group commit coalesces independent committers, so
// rounds/commit drops below 1. The in-memory value log (a key index over a
// memory-backed page store) has no fsync to amortize; its rows isolate the
// lock/admission amortization of batching.
//
// This is a systems extension beyond the paper's tables, so it is not part
// of All(); run it with `lsbench -exp batching`.
func Batching(scale Scale, log io.Writer) *Table {
	var segPages, maxSegs, writers, ops, batch int
	switch scale {
	case ScaleSmall:
		segPages, maxSegs, writers, ops, batch = 32, 128, 4, 256, 32
	case ScalePaper:
		segPages, maxSegs, writers, ops, batch = 64, 256, 8, 4096, 64
	default: // medium
		segPages, maxSegs, writers, ops, batch = 64, 128, 4, 1024, 64
	}
	t := &Table{
		Name: "batching",
		Title: fmt.Sprintf("Per-op vs batched writes under the explicit durability contract "+
			"(fill 0.5, hot 10%% gets 90%%, %d ops/writer per-op, %dx that batched)", ops, batch),
		Header: []string{"engine", "mode", "writers", "durability", "throughput (Kops/s)",
			"commits", "fsync rounds", "rounds/commit"},
	}
	for _, w := range []int{1, writers} {
		progress(log, "batching: page store per-op, %d writer(s)", w)
		t.Rows = append(t.Rows, storeBatchingRun(segPages, maxSegs, w, ops, 1))
		progress(log, "batching: page store batch=%d, %d writer(s)", batch, w)
		t.Rows = append(t.Rows, storeBatchingRun(segPages, maxSegs, w, ops*batch, batch))
	}
	progress(log, "batching: value log per-op, %d writers", writers)
	t.Rows = append(t.Rows, vlogBatchingRun(maxSegs, writers, 40000, 1))
	progress(log, "batching: value log batch=%d, %d writers", batch, writers)
	t.Rows = append(t.Rows, vlogBatchingRun(maxSegs, writers, 40000, batch))
	return t
}

// storeBatchingRun drives the file-backed page store at DurCommit with
// writers goroutines, each performing ops page updates — one at a time
// when batch == 1, in batches of `batch` otherwise — and reports the
// group-commit statistics of the timed phase.
func storeBatchingRun(segPages, maxSegs, writers, ops, batch int) []string {
	dir, err := os.MkdirTemp("", "lsbench-batching-*")
	if err != nil {
		panic(fmt.Sprintf("experiments: batching tempdir: %v", err))
	}
	defer os.RemoveAll(dir)
	opts := store.Options{
		Dir:             dir,
		PageSize:        1024,
		SegmentPages:    segPages,
		MaxSegments:     maxSegs,
		Durability:      core.DurCommit,
		BackgroundClean: true,
	}
	s, err := store.Open(opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: batching store open: %v", err))
	}
	defer s.Close()
	publishLive(s.Obs())

	// Preload to fill 0.5 with large batches (cheap even at DurCommit).
	live := maxSegs * segPages / 2
	buf := make([]byte, opts.PageSize)
	pre := store.NewBatch()
	for id := 0; id < live; id++ {
		pre.Write(uint32(id), buf)
		if pre.Len() == 256 || id == live-1 {
			if err := s.Apply(pre); err != nil {
				panic(fmt.Sprintf("experiments: batching preload: %v", err))
			}
			pre.Reset()
		}
	}
	base := s.Stats()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), Seed))
			buf := make([]byte, opts.PageSize)
			if batch == 1 {
				for i := 0; i < ops; i++ {
					if err := s.WritePage(uint32(skewedID(r, live)), buf); err != nil {
						panic(fmt.Sprintf("experiments: batching write: %v", err))
					}
				}
				return
			}
			b := store.NewBatch()
			for i := 0; i < ops; i++ {
				b.Write(uint32(skewedID(r, live)), buf)
				if b.Len() == batch {
					if err := s.Apply(b); err != nil {
						panic(fmt.Sprintf("experiments: batching apply: %v", err))
					}
					b.Reset()
				}
			}
			if b.Len() > 0 {
				if err := s.Apply(b); err != nil {
					panic(fmt.Sprintf("experiments: batching apply: %v", err))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := s.Stats()
	commits := st.Commits - base.Commits
	rounds := st.FsyncRounds - base.FsyncRounds
	mode := "per-op"
	if batch > 1 {
		mode = fmt.Sprintf("batch=%d", batch)
	}
	kops := float64(writers*ops) / elapsed.Seconds() / 1000
	recordRun(AlgReport{
		Engine:          "page store",
		Algorithm:       fmt.Sprintf("%s/%dw", mode, writers),
		UserWrites:      st.UserWrites,
		GCWrites:        st.GCWrites,
		WriteAmp:        st.WriteAmp,
		MeanEAtClean:    st.MeanEAtClean,
		SegmentsCleaned: st.SegmentsCleaned,
		CleanerCycles:   st.Cleaner.Cycles,
		ThroughputOps:   kops * 1000,
		Metrics:         snapshotOf(s.Obs()),
	})
	return []string{"page store", mode, fmt.Sprintf("%d", writers), st.Durability,
		f2(kops), fmt.Sprintf("%d", commits), fmt.Sprintf("%d", rounds),
		f3(ratio(rounds, commits))}
}

// vlogBatchingRun drives the in-memory value log with writers goroutines;
// with no fsync to coalesce (its memory store's group commit syncs nothing),
// the difference between its per-op and batched rows is lock/admission
// amortization.
func vlogBatchingRun(maxSegs, writers, ops, batch int) []string {
	opts := vlog.Options{
		SegmentBytes:    1 << 14,
		MaxSegments:     maxSegs,
		Durability:      core.DurCommit,
		BackgroundClean: true,
	}
	s, err := vlog.New(opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: batching vlog open: %v", err))
	}
	defer s.Close()
	publishLive(s.Obs())
	keys := maxSegs * opts.SegmentBytes / 2 / 128
	val := make([]byte, 100)
	key := func(k int) string { return fmt.Sprintf("key-%08d", k) }
	for k := 0; k < keys; k++ {
		if err := s.Put(key(k), val); err != nil {
			panic(fmt.Sprintf("experiments: batching vlog preload: %v", err))
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), Seed+1))
			if batch == 1 {
				for i := 0; i < ops; i++ {
					if err := s.Put(key(skewedID(r, keys)), val); err != nil {
						panic(fmt.Sprintf("experiments: batching vlog put: %v", err))
					}
				}
				return
			}
			b := vlog.NewBatch()
			for i := 0; i < ops; i++ {
				b.Put(key(skewedID(r, keys)), val)
				if b.Len() == batch {
					if err := s.Commit(b); err != nil {
						panic(fmt.Sprintf("experiments: batching vlog commit: %v", err))
					}
					b.Reset()
				}
			}
			if b.Len() > 0 {
				if err := s.Commit(b); err != nil {
					panic(fmt.Sprintf("experiments: batching vlog commit: %v", err))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := s.Stats()
	mode := "per-op"
	if batch > 1 {
		mode = fmt.Sprintf("batch=%d", batch)
	}
	kops := float64(writers*ops) / elapsed.Seconds() / 1000
	recordRun(AlgReport{
		Engine:          "value log",
		Algorithm:       fmt.Sprintf("%s/%dw", mode, writers),
		UserWrites:      st.UserWrites,
		GCWrites:        st.GCWrites,
		WriteAmp:        st.WriteAmp,
		MeanEAtClean:    st.MeanEAtClean,
		SegmentsCleaned: st.SegmentsCleaned,
		CleanerCycles:   st.Cleaner.Cycles,
		ThroughputOps:   kops * 1000,
		Metrics:         snapshotOf(s.Obs()),
	})
	return []string{"value log", mode, fmt.Sprintf("%d", writers), st.Durability,
		f2(kops), fmt.Sprintf("%d", st.Commits), "0", "0.000"}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
