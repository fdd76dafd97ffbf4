package workload

import (
	"math"
	"testing"
	"testing/quick"
)

// checkRatesSumToOne verifies Σ_p Rate(p) == 1 for an oracle-bearing
// generator: rates are per-tick probabilities over the whole universe.
func checkRatesSumToOne(t *testing.T, g Generator) {
	t.Helper()
	var sum float64
	for p := 0; p < g.Universe(); p++ {
		r := g.Rate(uint32(p))
		if r < 0 {
			t.Fatalf("%s: Rate(%d) = %v, want >= 0", g.Name(), p, r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("%s: rates sum to %v, want 1", g.Name(), sum)
	}
}

// checkEmpiricalMatchesOracle samples n pages and compares empirical
// frequencies of a few probe pages against the oracle within rtol.
func checkEmpiricalMatchesOracle(t *testing.T, g Generator, n int, probes []uint32, rtol float64) {
	t.Helper()
	counts := make(map[uint32]int)
	for i := 0; i < n; i++ {
		p, ok := g.Next()
		if !ok {
			t.Fatalf("%s: generator exhausted at %d", g.Name(), i)
		}
		if int(p) >= g.Universe() {
			t.Fatalf("%s: page %d outside universe %d", g.Name(), p, g.Universe())
		}
		counts[p]++
	}
	for _, p := range probes {
		want := g.Rate(p)
		got := float64(counts[p]) / float64(n)
		if want <= 0 {
			continue
		}
		if math.Abs(got-want)/want > rtol {
			t.Errorf("%s: page %d empirical rate %.3e vs oracle %.3e (rtol %.2f)",
				g.Name(), p, got, want, rtol)
		}
	}
}

func TestUniform(t *testing.T) {
	g := NewUniform(1000, 1)
	if g.Universe() != 1000 || g.PreloadPages() != 1000 {
		t.Fatalf("universe/preload wrong: %d/%d", g.Universe(), g.PreloadPages())
	}
	checkRatesSumToOne(t, g)
	checkEmpiricalMatchesOracle(t, g, 200000, []uint32{0, 1, 500, 999}, 0.25)
}

func TestUniformDeterminism(t *testing.T) {
	a, b := NewUniform(5000, 7), NewUniform(5000, 7)
	for i := 0; i < 1000; i++ {
		pa, _ := a.Next()
		pb, _ := b.Next()
		if pa != pb {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, pa, pb)
		}
	}
	c := NewUniform(5000, 8)
	same := 0
	for i := 0; i < 1000; i++ {
		pa, _ := a.Next()
		pc, _ := c.Next()
		if pa == pc {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different seeds matched %d/1000 draws", same)
	}
}

func TestHotCold(t *testing.T) {
	g := NewSkew(10000, 0.8, 3) // 80% of updates to 20% of pages
	if g.hotPages != 2000 {
		t.Fatalf("hot set = %d pages, want 2000", g.hotPages)
	}
	checkRatesSumToOne(t, g)
	// Hot page rate is m/H, cold is (1-m)/(P-H); ratio should be 16x.
	hot, cold := g.Rate(0), g.Rate(9999)
	if math.Abs(hot/cold-16) > 1e-9 {
		t.Errorf("hot/cold rate ratio = %v, want 16", hot/cold)
	}
	// Empirically ~80% of updates land in the hot set.
	n, inHot := 100000, 0
	for i := 0; i < n; i++ {
		p, _ := g.Next()
		if int(p) < g.hotPages {
			inHot++
		}
	}
	frac := float64(inHot) / float64(n)
	if math.Abs(frac-0.8) > 0.01 {
		t.Errorf("hot fraction = %v, want 0.80±0.01", frac)
	}
}

func TestHotColdUniformDegenerate(t *testing.T) {
	g := NewSkew(1000, 0.5, 3) // 50-50 == uniform
	if r0, r1 := g.Rate(0), g.Rate(999); math.Abs(r0-r1) > 1e-12 {
		t.Errorf("50-50 rates differ: %v vs %v", r0, r1)
	}
	checkRatesSumToOne(t, g)
}

func TestHotColdValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHotCold(0, .2, .8, 1) },
		func() { NewHotCold(100, 0, .8, 1) },
		func() { NewHotCold(100, 1, .8, 1) },
		func() { NewHotCold(100, .2, 1.5, 1) },
		func() { NewUniform(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid parameters")
				}
			}()
			fn()
		}()
	}
}

func TestZipfRates(t *testing.T) {
	for _, theta := range []float64{0.5, 0.99, 1.0, 1.35, 2.5} {
		g := NewZipf(2000, theta, 11)
		checkRatesSumToOne(t, g)
		// Rates must be strictly decreasing in rank.
		for rank := 1; rank < 2000; rank++ {
			if g.rates[rank-1] <= g.rates[rank] {
				t.Fatalf("theta=%v: rate(rank %d) <= rate(rank %d)", theta, rank, rank+1)
			}
		}
		// rate(rank1)/rate(rank2) == 2^theta exactly.
		want := math.Pow(2, theta)
		if got := g.rates[0] / g.rates[1]; math.Abs(got-want) > 1e-9 {
			t.Errorf("theta=%v: rank1/rank2 ratio = %v, want %v", theta, got, want)
		}
	}
}

func TestZipfPermutationIsBijective(t *testing.T) {
	g := NewZipf(5000, 0.99, 11)
	seen := make([]bool, 5000)
	for _, p := range g.perm {
		if seen[p] {
			t.Fatalf("page %d appears twice in permutation", p)
		}
		seen[p] = true
	}
	for rank, page := range g.perm {
		if g.invPerm[page] != uint32(rank) {
			t.Fatalf("invPerm[%d] = %d, want %d", page, g.invPerm[page], rank)
		}
	}
}

func TestZipfEmpirical(t *testing.T) {
	// The rejection-inversion sampler must produce the exact distribution:
	// compare empirical frequency of the hottest ranks with the oracle.
	for _, theta := range []float64{0.99, 1.35} {
		g := NewZipf(10000, theta, 5)
		probes := []uint32{g.perm[0], g.perm[1], g.perm[9], g.perm[99]}
		checkEmpiricalMatchesOracle(t, g, 300000, probes, 0.1)
	}
}

func TestZipfHeadMass(t *testing.T) {
	// θ=0.99 over many pages approximates "80-20"-like skew; check the top
	// 20% of ranks carry well over half the mass, and more for θ=1.35.
	mass := func(theta float64) float64 {
		g := NewZipf(10000, theta, 5)
		var m float64
		for rank := 0; rank < 2000; rank++ {
			m += g.rates[rank]
		}
		return m
	}
	m99, m135 := mass(0.99), mass(1.35)
	if m99 < 0.6 || m99 > 0.9 {
		t.Errorf("theta=0.99 top-20%% mass = %v, want in [0.6,0.9]", m99)
	}
	if m135 <= m99 || m135 < 0.85 {
		t.Errorf("theta=1.35 top-20%% mass = %v, want > %v and > 0.85", m135, m99)
	}
}

func TestZipfDeterminism(t *testing.T) {
	a, b := NewZipf(3000, 1.35, 9), NewZipf(3000, 1.35, 9)
	for i := 0; i < 2000; i++ {
		pa, _ := a.Next()
		pb, _ := b.Next()
		if pa != pb {
			t.Fatalf("same-seed Zipf diverged at %d", i)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(0, 1, 1) },
		func() { NewZipf(100, 0, 1) },
		func() { NewZipf(100, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestZipfHelperContinuity(t *testing.T) {
	// helper1/helper2 must be continuous across the small-|x| switch.
	if err := quick.Check(func(raw float64) bool {
		x := math.Mod(raw, 1e-7) // exercise both branches near the boundary
		if math.IsNaN(x) {
			return true
		}
		h1a, h1b := helper1(x), helper1(x*1.0000001)
		h2a, h2b := helper2(x), helper2(x*1.0000001)
		return math.Abs(h1a-h1b) < 1e-6 && math.Abs(h2a-h2b) < 1e-6
	}, nil); err != nil {
		t.Error(err)
	}
	if got := helper1(0); got != 1 {
		t.Errorf("helper1(0) = %v, want 1", got)
	}
	if got := helper2(0); got != 1 {
		t.Errorf("helper2(0) = %v, want 1", got)
	}
}

func TestShifting(t *testing.T) {
	g := NewShifting(1000, 0.1, 0.9, 10, 3)
	if g.Rate(0) >= 0 {
		t.Error("shifting workload must not claim an exact-rate oracle")
	}
	seen := make(map[uint32]bool)
	for i := 0; i < 50000; i++ {
		p, ok := g.Next()
		if !ok || int(p) >= g.Universe() {
			t.Fatalf("bad draw %d ok=%v", p, ok)
		}
		seen[p] = true
	}
	if len(seen) < 500 {
		t.Errorf("hotspot never moved: only %d distinct pages", len(seen))
	}
}

func TestReplay(t *testing.T) {
	writes := []uint32{5, 3, 5, 5, 2, 3}
	r := NewReplay("t", writes, 10, 6, true)
	if r.Universe() != 10 || r.PreloadPages() != 6 || r.Len() != 6 {
		t.Fatalf("replay metadata wrong: %d %d %d", r.Universe(), r.PreloadPages(), r.Len())
	}
	var got []uint32
	for {
		p, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, p)
	}
	if len(got) != len(writes) {
		t.Fatalf("replayed %d writes, want %d", len(got), len(writes))
	}
	for i := range got {
		if got[i] != writes[i] {
			t.Fatalf("write %d = %d, want %d", i, got[i], writes[i])
		}
	}
	// Pre-analyzed rates: page 5 appears 3/6 times.
	if want := 0.5; r.Rate(5) != want {
		t.Errorf("Rate(5) = %v, want %v", r.Rate(5), want)
	}
	if r.Rate(9) != 0 {
		t.Errorf("Rate(9) = %v, want 0", r.Rate(9))
	}
	// Reset rewinds.
	r.Reset()
	if p, ok := r.Next(); !ok || p != 5 {
		t.Errorf("after Reset, Next = %d,%v; want 5,true", p, ok)
	}
	// Without pre-analysis there is no oracle.
	r2 := NewReplay("t2", writes, 10, 6, false)
	if r2.Rate(5) >= 0 {
		t.Error("non-analyzed replay must not claim an oracle")
	}
}

// BenchmarkZipfNext measures the rejection-inversion sampler.
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(1<<20, 0.99, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
