package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vlog"
	"repro/internal/wal"
	simload "repro/internal/workload"
)

// The probes call straight into layers no workload reaches from outside, so
// that wal, bufferpool, btree, vlog and core/sim each have a number of their
// own. Each does a fixed amount of work sized to stay under two seconds, and
// runs in the traced run only.

// probes runs every probe in scratch, a directory the caller removes.
func probes(scratch string, seed int64, smoke bool, m metrics) error {
	scale := 1
	if smoke {
		scale = 50
	}
	if err := probeWAL(filepath.Join(scratch, "probe-wal"), 2000/scale, m); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	probePool(1_000_000/scale, m)
	probeBtree(1_000_000/scale, uint64(seed), m)
	if err := probeVlog(1_000_000/scale, uint64(seed), m); err != nil {
		return fmt.Errorf("vlog probe: %w", err)
	}
	if err := probeSim(seed, smoke, m); err != nil {
		return fmt.Errorf("sim probe: %w", err)
	}
	return nil
}

// probeWAL times Append of a ten-op transaction plus its fsynced Commit.
func probeWAL(dir string, n int, m metrics) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer l.Close()
	ops := make([]wal.Op, 10)
	val := make([]byte, kvValueBytes)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for j := range ops {
			ops[j] = wal.Op{Kind: wal.OpPut, Tree: kvTree, Key: uint64(i*10 + j), Value: val}
		}
		seq, err := l.Append(uint64(i+1), ops)
		if err != nil {
			return err
		}
		if err := l.Commit(seq); err != nil {
			return err
		}
	}
	m["wal.append_commit_us"] = float64(time.Since(t0).Microseconds()) / float64(n)
	return nil
}

// probePool times a FetchPinned hit and its Release.
func probePool(n int, m metrics) {
	const pages = 4096
	p := bufferpool.NewSharded(2*pages, 2)
	for id := uint32(1); id <= pages; id++ {
		p.Install(id, false, func(bufferpool.Handle) any { return id })
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_, h := p.FetchPinned(uint32(i%pages) + 1)
		p.Release(h)
	}
	m["bufferpool.fetch_release_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeBtree times Get and overwriting Insert on the in-memory tree.
func probeBtree(n int, seed uint64, m metrics) {
	keys := max(n/10, 1000)
	t := btree.New(bufferpool.New(1<<20), 4096)
	val := make([]byte, kvValueBytes)
	for k := 0; k < keys; k++ {
		t.Insert(uint64(k), val)
	}
	r := rand.New(rand.NewPCG(seed, 3))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.Get(r.Uint64N(uint64(keys)))
	}
	m["btree.mem_get_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		t.Insert(r.Uint64N(uint64(keys)), val)
	}
	m["btree.mem_put_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeVlog churns the in-memory value log at fill 0.8 with foreground
// cleaning: half Gets, half Puts, Zipf keys. Its write amplification is a
// count and repeats exactly for a seed.
func probeVlog(n int, seed uint64, m metrics) error {
	const segBytes, segs, valBytes = 256 << 10, 64, 256
	s, err := vlog.New(vlog.Options{SegmentBytes: segBytes, MaxSegments: segs, Algorithm: core.MDC()})
	if err != nil {
		return err
	}
	defer s.Close()
	keys := segBytes * segs * 8 / 10 / (valBytes + 6 + 8) // fill 0.8
	name := make([]string, keys)
	val := make([]byte, valBytes)
	for k := range name {
		name[k] = "k" + strconv.FormatInt(int64(1e6+k), 10)
		if err := s.Put(name[k], val); err != nil {
			return err
		}
	}
	ks := newKeyStream(seed, 4, keys, zipfTheta)
	before := s.Stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		k := name[ks.next()]
		if i&1 == 0 {
			if _, ok := s.Get(k); !ok {
				return fmt.Errorf("key %s missing", k)
			}
		} else if err := s.Put(k, val); err != nil {
			return err
		}
	}
	m["vlog.op_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	after := s.Stats()
	m["vlog.wamp"] = ratio(float64(after.GCBytes-before.GCBytes), float64(after.UserBytes-before.UserBytes))
	return s.CheckInvariants()
}

// probeSim runs the paper's simulator on the distribution store_zipf_f80
// uses (Zipf 0.99, fill 0.8, MDC), which puts the simulated write
// amplification beside the live store's.
func probeSim(seed int64, smoke bool, m metrics) error {
	cfg := sim.Config{SegmentPages: 64, NumSegments: 1024, FillFactor: storeFill, FreeLowWater: 12, CleanBatch: 8}
	opts := sim.RunOptions{UpdateMultiple: 20}
	if smoke {
		cfg.NumSegments, opts.UpdateMultiple = 128, 10
	}
	gen := simload.NewZipf(cfg.UserPages(), zipfTheta, seed)
	t0 := time.Now()
	res, err := sim.Run(cfg, core.MDC(), gen, opts)
	if err != nil {
		return err
	}
	updates := float64(cfg.UserPages()) * (1 + opts.UpdateMultiple)
	m["sim.updates_per_s"] = updates / time.Since(t0).Seconds()
	m["sim.wamp"] = res.Wamp
	m["sim.mean_e_at_clean"] = res.MeanEAtClean
	return nil
}
