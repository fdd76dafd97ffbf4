package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/workload"
)

// tinyCfg is a fast configuration with paper-proportioned reserve and batch.
func tinyCfg(f float64) Config {
	return Config{
		SegmentPages: 32, NumSegments: 256, FillFactor: f,
		FreeLowWater: 4, CleanBatch: 8, WriteBufferSegs: 4,
	}
}

// smallCfg is the accuracy configuration used by the agreement tests.
func smallCfg(f float64) Config {
	return Config{
		SegmentPages: 64, NumSegments: 1024, FillFactor: f,
		FreeLowWater: 4, CleanBatch: 8, WriteBufferSegs: 8,
	}
}

func TestConfigValidation(t *testing.T) {
	gen := workload.NewUniform(1000, 1)
	if _, err := New(Config{FillFactor: 0}, core.Greedy(), gen); err == nil {
		t.Error("F=0 must fail")
	}
	if _, err := New(Config{FillFactor: 1.2}, core.Greedy(), gen); err == nil {
		t.Error("F>1 must fail")
	}
	// Universe exceeding the fill-factor budget must fail.
	big := workload.NewUniform(300*32, 1)
	cfg := tinyCfg(0.5)
	if _, err := New(cfg, core.Greedy(), big); err == nil {
		t.Error("oversized universe must fail")
	}
	// Too little slack for the reserve must fail.
	crowded := workload.NewUniform(250*32, 1)
	if _, err := New(tinyCfg(0.999), core.Greedy(), crowded); err == nil ||
		!strings.Contains(err.Error(), "slack") {
		t.Error("insufficient slack must fail with a slack error")
	}
	// Exact algorithms need an oracle.
	noOracle := workload.NewShifting(1000, 0.1, 0.9, 100, 1)
	if _, err := New(tinyCfg(0.5), core.MDCOpt(), noOracle); err == nil ||
		!strings.Contains(err.Error(), "oracle") {
		t.Error("exact algorithm without oracle must fail")
	}
}

// everyAlgorithm returns each algorithm core builds, once.
func everyAlgorithm() []core.Algorithm {
	return append(core.Figure5Set(), core.CostBenefitLiteral(), core.MDCNoSepUser(), core.MDCNoSepUserGC())
}

func TestInvariantsUnderEveryAlgorithm(t *testing.T) {
	for _, alg := range everyAlgorithm() {
		t.Run(alg.Name, func(t *testing.T) {
			cfg := tinyCfg(0.8)
			gen := workload.NewSkew(cfg.UserPages(), 0.8, 42)
			s, err := New(cfg, alg, gen)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < gen.PreloadPages(); p++ {
				s.Write(uint32(p))
			}
			for i := 0; i < 12*gen.Universe(); i++ {
				p, _ := gen.Next()
				s.Write(p)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("invariants violated: %v", err)
			}
			// Every page must be locatable after the run.
			for p := 0; p < gen.Universe(); p++ {
				if _, _, _, ok := s.Location(uint32(p)); !ok {
					t.Fatalf("page %d lost", p)
				}
			}
		})
	}
}

func TestInvariantsWithoutWriteBuffer(t *testing.T) {
	cfg := tinyCfg(0.8)
	cfg.WriteBufferSegs = 0
	gen := workload.NewZipf(cfg.UserPages(), 0.99, 7)
	s, err := New(cfg, core.MDC(), gen)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < gen.PreloadPages(); p++ {
		s.Write(uint32(p))
	}
	for i := 0; i < 10*gen.Universe(); i++ {
		p, _ := gen.Next()
		s.Write(p)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLocationTransitions(t *testing.T) {
	cfg := tinyCfg(0.6)
	gen := workload.NewUniform(cfg.UserPages(), 3)
	// MDC separates user writes, so it runs with the write buffer.
	s, err := New(cfg, core.MDC(), gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := s.Location(0); ok {
		t.Error("unwritten page must not be locatable")
	}
	s.Write(0)
	if _, _, buffered, ok := s.Location(0); !ok || !buffered {
		t.Error("freshly written page should sit in the write buffer")
	}
	// Fill past one buffer worth so page 0 is flushed to a segment.
	for p := 1; p < cfg.WriteBufferSegs*cfg.SegmentPages+1; p++ {
		s.Write(uint32(p % cfg.UserPages()))
	}
	if _, _, buffered, ok := s.Location(0); !ok || buffered {
		t.Error("page 0 should have been flushed to a segment")
	}
	if _, _, _, ok := s.Location(math.MaxUint32); ok {
		t.Error("out-of-universe page must not be locatable")
	}
}

func TestAbsorptionCoalescesHotRewrites(t *testing.T) {
	cfg := tinyCfg(0.7)
	gen := workload.NewSkew(cfg.UserPages(), 0.9, 5)
	res, err := Run(cfg, core.MDC(), gen, RunOptions{UpdateMultiple: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.AbsorbedUpdates == 0 {
		t.Error("skewed workload with a write buffer should absorb some rewrites")
	}
	if res.LogicalUpdates != res.UserPageWrites+res.AbsorbedUpdates {
		// Up to one buffer of pending writes may be in flight at snapshot
		// time, so allow that slack.
		diff := int64(res.LogicalUpdates) - int64(res.UserPageWrites+res.AbsorbedUpdates)
		if diff < 0 || diff > int64(cfg.WriteBufferSegs*cfg.SegmentPages) {
			t.Errorf("accounting broken: logical=%d phys=%d absorbed=%d",
				res.LogicalUpdates, res.UserPageWrites, res.AbsorbedUpdates)
		}
	}
	cfg.WriteBufferSegs = 0
	res0, err := Run(cfg, core.MDC(), gen, RunOptions{UpdateMultiple: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res0.AbsorbedUpdates != 0 {
		t.Error("unbuffered run must not absorb")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := tinyCfg(0.8)
	run := func() Result {
		gen := workload.NewZipf(cfg.UserPages(), 0.99, 123)
		res, err := Run(cfg, core.MDC(), gen, RunOptions{UpdateMultiple: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestAgreementTable1 is the paper's §8.1 uniform-distribution agreement:
// the simulated emptiness at cleaning under age-based cleaning must match
// the analytic fixpoint to about two digits.
func TestAgreementTable1(t *testing.T) {
	for _, f := range []float64{0.7, 0.8, 0.9} {
		want := analysis.FixpointE(f)
		cfg := smallCfg(f)
		gen := workload.NewUniform(cfg.UserPages(), 42)
		res, err := Run(cfg, core.Age(), gen, RunOptions{UpdateMultiple: 30})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.MeanEAtClean-want) / want; rel > 0.04 {
			t.Errorf("F=%v: sim E@clean=%.4f vs analysis %.4f (rel %.3f)",
				f, res.MeanEAtClean, want, rel)
		}
	}
}

// TestAgreementTable2 is the paper's hot/cold agreement: MDC-opt on an
// 80-20 hot/cold workload at F=0.8 approaches the analytic minimum cost
// (write amplification ~1.0), far below greedy.
func TestAgreementTable2(t *testing.T) {
	cfg := smallCfg(0.8)
	gen := workload.NewSkew(cfg.UserPages(), 0.8, 42)
	res, err := Run(cfg, core.MDCOpt(), gen, RunOptions{UpdateMultiple: 30})
	if err != nil {
		t.Fatal(err)
	}
	opt := analysis.WampFromCost(analysis.HotColdCost(0.8, 0.8, 0.5))
	if res.Wamp > opt*1.15 {
		t.Errorf("MDC-opt Wamp=%.3f too far above analytic optimum %.3f", res.Wamp, opt)
	}
	if res.Wamp < opt*0.85 {
		t.Errorf("MDC-opt Wamp=%.3f suspiciously below analytic optimum %.3f", res.Wamp, opt)
	}
}

// TestUniformEquivalences checks §6.2.2's Figure 5a observations: under a
// uniform distribution age, greedy and MDC-opt all sit near the analytic
// write amplification.
func TestUniformEquivalences(t *testing.T) {
	cfg := smallCfg(0.8)
	want := analysis.Wamp(analysis.FixpointE(0.8))
	for _, alg := range []core.Algorithm{core.Age(), core.Greedy(), core.MDCOpt(), core.MDC()} {
		gen := workload.NewUniform(cfg.UserPages(), 42)
		res, err := Run(cfg, alg, gen, RunOptions{UpdateMultiple: 25})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.Wamp-want) / want; rel > 0.08 {
			t.Errorf("%s uniform Wamp=%.3f vs analytic %.3f (rel %.3f)",
				alg.Name, res.Wamp, want, rel)
		}
	}
}

// TestSkewedOrdering checks the headline result (Figures 3/5): under skew,
// MDC-opt <= MDC < greedy, and MDC beats the no-separation ablations.
func TestSkewedOrdering(t *testing.T) {
	cfg := smallCfg(0.8)
	wamp := func(alg core.Algorithm) float64 {
		gen := workload.NewSkew(cfg.UserPages(), 0.8, 42)
		res, err := Run(cfg, alg, gen, RunOptions{UpdateMultiple: 25})
		if err != nil {
			t.Fatal(err)
		}
		return res.Wamp
	}
	greedy := wamp(core.Greedy())
	mdc := wamp(core.MDC())
	mdcOpt := wamp(core.MDCOpt())
	noSepUser := wamp(core.MDCNoSepUser())
	noSepBoth := wamp(core.MDCNoSepUserGC())

	if !(mdcOpt <= mdc*1.02) {
		t.Errorf("MDC-opt (%.3f) should not exceed MDC (%.3f)", mdcOpt, mdc)
	}
	if !(mdc < greedy) {
		t.Errorf("MDC (%.3f) should beat greedy (%.3f) under skew", mdc, greedy)
	}
	// §6.2.1: separating user writes matters more than separating GC
	// writes; removing either costs something.
	if !(mdc <= noSepUser*1.02) {
		t.Errorf("MDC (%.3f) should not exceed MDC-no-sep-user (%.3f)", mdc, noSepUser)
	}
	if !(noSepUser <= noSepBoth*1.05) {
		t.Errorf("no-sep-user (%.3f) should not clearly exceed no-sep-user-GC (%.3f)",
			noSepUser, noSepBoth)
	}
}

func TestMultiLogRuns(t *testing.T) {
	cfg := smallCfg(0.8)
	for _, alg := range []core.Algorithm{core.MultiLog(), core.MultiLogOpt()} {
		gen := workload.NewSkew(cfg.UserPages(), 0.8, 42)
		res, err := Run(cfg, alg, gen, RunOptions{UpdateMultiple: 15})
		if err != nil {
			t.Fatal(err)
		}
		if res.Wamp <= 0 || math.IsInf(res.Wamp, 0) || math.IsNaN(res.Wamp) {
			t.Errorf("%s produced bogus Wamp %v", alg.Name, res.Wamp)
		}
		// Cleaning one segment per cycle: cycles == segments cleaned.
		if res.CleanCycles != res.SegmentsCleaned {
			t.Errorf("%s cleans 1/cycle but cleaned %d in %d cycles",
				alg.Name, res.SegmentsCleaned, res.CleanCycles)
		}
	}
}

// TestMultiLogOptUniformActsLikeAge verifies §6.2.2: with exact frequencies
// and a uniform workload multi-log-opt degenerates to age-based cleaning.
func TestMultiLogOptUniformActsLikeAge(t *testing.T) {
	cfg := smallCfg(0.8)
	gen1 := workload.NewUniform(cfg.UserPages(), 42)
	mlo, err := Run(cfg, core.MultiLogOpt(), gen1, RunOptions{UpdateMultiple: 20})
	if err != nil {
		t.Fatal(err)
	}
	gen2 := workload.NewUniform(cfg.UserPages(), 42)
	age, err := Run(cfg, core.Age(), gen2, RunOptions{UpdateMultiple: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(mlo.Wamp-age.Wamp) / age.Wamp; rel > 0.08 {
		t.Errorf("multi-log-opt uniform Wamp=%.3f vs age %.3f (rel %.3f)",
			mlo.Wamp, age.Wamp, rel)
	}
}

func TestWriteBufferSweepImproves(t *testing.T) {
	// Figure 4 shape at small scale: a sorted write buffer lowers Wamp
	// substantially versus no buffer.
	base := tinyCfg(0.8)
	wamp := func(w int) float64 {
		cfg := base
		cfg.WriteBufferSegs = w
		gen := workload.NewZipf(cfg.UserPages(), 0.99, 42)
		res, err := Run(cfg, core.MDC(), gen, RunOptions{UpdateMultiple: 15})
		if err != nil {
			t.Fatal(err)
		}
		return res.Wamp
	}
	w0, w16 := wamp(0), wamp(16)
	if !(w16 < w0*0.8) {
		t.Errorf("16-segment buffer (%.3f) should clearly beat none (%.3f)", w16, w0)
	}
}

func TestTraceReplayRun(t *testing.T) {
	// A synthetic finite trace exercises the replay path end to end.
	cfg := tinyCfg(0.7)
	p := cfg.UserPages()
	gen := workload.NewZipf(p, 0.99, 9)
	writes := make([]uint32, 6*p)
	for i := range writes {
		w, _ := gen.Next()
		writes[i] = w
	}
	rep := workload.NewReplay("synthetic-trace", writes, p, p, true)
	res, err := Run(cfg, core.MDCOpt(), rep, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogicalUpdates != uint64(len(writes)) {
		t.Errorf("replayed %d updates, want %d", res.LogicalUpdates, len(writes))
	}
	if res.Wamp <= 0 {
		t.Errorf("trace replay Wamp = %v", res.Wamp)
	}
	if !strings.Contains(res.String(), "synthetic-trace") {
		t.Errorf("Result.String() missing workload: %s", res.String())
	}
}

func TestResultCostSeg(t *testing.T) {
	cfg := tinyCfg(0.8)
	gen := workload.NewUniform(cfg.UserPages(), 1)
	res, err := Run(cfg, core.Greedy(), gen, RunOptions{UpdateMultiple: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 / res.MeanEAtClean; math.Abs(res.CostSeg-want) > 1e-9 {
		t.Errorf("CostSeg=%v, want %v", res.CostSeg, want)
	}
}

// benchSim returns a simulator at -scale small's geometry and fill 0.8 under
// MDC, and the generator newGen makes for its pages, with its preload written.
func benchSim(b *testing.B, newGen func(pages int) workload.Generator) (*Sim, workload.Generator) {
	cfg := Config{SegmentPages: 32, NumSegments: 1024, FillFactor: 0.8,
		FreeLowWater: 4, CleanBatch: 8, WriteBufferSegs: 8}
	gen := newGen(cfg.UserPages())
	s, err := New(cfg, core.MDC(), gen)
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < gen.PreloadPages(); p++ {
		s.Write(uint32(p))
	}
	return s, gen
}

// BenchmarkSimWrite measures the raw simulator update path (ns per user
// update, including amortized cleaning) under MDC.
func BenchmarkSimWrite(b *testing.B) {
	s, gen := benchSim(b, func(pages int) workload.Generator { return workload.NewZipf(pages, 0.99, 42) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := gen.Next()
		s.Write(p)
	}
}

// BenchmarkVictimSelection measures one policy selection over a full
// segment table.
func BenchmarkVictimSelection(b *testing.B) {
	s, _ := benchSim(b, func(pages int) workload.Generator { return workload.NewUniform(pages, 1) })
	view, alg := s.View(), core.MDC()
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = alg.Policy.Victims(view, 8, dst[:0])
	}
}
