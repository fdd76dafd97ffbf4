package sim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestQuickInvariantsUnderRandomDrive drives the simulator with random
// workload mixes, algorithms and buffer sizes and checks the conservation
// invariants at random points mid-stream, not just at the end.
func TestQuickInvariantsUnderRandomDrive(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x5bd1e995))
		algs := everyAlgorithm()
		alg := algs[r.IntN(len(algs))]
		cfg := Config{
			SegmentPages:    16 + r.IntN(3)*16, // 16, 32 or 48
			NumSegments:     256,
			FillFactor:      0.5 + r.Float64()*0.3,
			FreeLowWater:    4,
			CleanBatch:      1 + r.IntN(8),
			WriteBufferSegs: r.IntN(5),
		}
		var gen workload.Generator
		switch r.IntN(3) {
		case 0:
			gen = workload.NewUniform(cfg.UserPages(), int64(seed))
		case 1:
			gen = workload.NewZipf(cfg.UserPages(), 0.5+r.Float64(), int64(seed))
		default:
			gen = workload.NewSkew(cfg.UserPages(), 0.6+r.Float64()*0.3, int64(seed))
		}
		s, err := New(cfg, alg, gen)
		if err != nil {
			t.Logf("seed %x: %v", seed, err)
			return false
		}
		for p := 0; p < gen.PreloadPages(); p++ {
			s.Write(uint32(p))
		}
		checkAt := 1 + r.IntN(4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 2*gen.Universe(); j++ {
				p, _ := gen.Next()
				s.Write(p)
			}
			if i == checkAt || i == 3 {
				if err := s.CheckInvariants(); err != nil {
					t.Logf("seed %x alg %s: %v", seed, alg.Name, err)
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

// TestQuickWampIdentityUnbuffered checks equation 2 numerically: for
// unbuffered algorithms, measured Wamp must track (1-E)/E of the measured
// emptiness at cleaning within the tolerance allowed by batching effects.
func TestQuickWampIdentityUnbuffered(t *testing.T) {
	err := quick.Check(func(seedRaw uint8) bool {
		seed := int64(seedRaw) + 1
		cfg := Config{SegmentPages: 32, NumSegments: 512, FillFactor: 0.8,
			FreeLowWater: 4, CleanBatch: 8, WriteBufferSegs: 0}
		gen := workload.NewUniform(cfg.UserPages(), seed)
		res, err := Run(cfg, core.Greedy(), gen, RunOptions{UpdateMultiple: 12})
		if err != nil {
			return false
		}
		wantWamp := (1 - res.MeanEAtClean) / res.MeanEAtClean
		rel := (res.Wamp - wantWamp) / wantWamp
		if rel < 0 {
			rel = -rel
		}
		return rel < 0.08 && res.Wamp == res.WampPhysical
	}, &quick.Config{MaxCount: 6})
	if err != nil {
		t.Error(err)
	}
}
