package core

import (
	"math"
	"testing"
)

func seg(capacity, free int64, live int32, state SegState) SegmentMeta {
	return SegmentMeta{Capacity: capacity, Free: free, Live: live, State: state}
}

func TestEmptiness(t *testing.T) {
	cases := []struct {
		name string
		m    SegmentMeta
		want float64
	}{
		{"half", seg(100, 50, 5, SegSealed), 0.5},
		{"full", seg(100, 0, 10, SegSealed), 0},
		{"empty", seg(100, 100, 0, SegSealed), 1},
		{"zero-capacity", seg(0, 0, 0, SegFree), 0},
	}
	for _, c := range cases {
		if got := c.m.Emptiness(); got != c.want {
			t.Errorf("%s: Emptiness() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSegStateString(t *testing.T) {
	if SegFree.String() != "free" || SegOpen.String() != "open" || SegSealed.String() != "sealed" {
		t.Errorf("unexpected state strings: %v %v %v", SegFree, SegOpen, SegSealed)
	}
	if s := SegState(9).String(); s != "SegState(9)" {
		t.Errorf("unknown state string = %q", s)
	}
}

func TestDecliningCostDegenerateCases(t *testing.T) {
	m := seg(100, 100, 0, SegSealed) // completely empty
	if got := DecliningCost(&m, 10); got != 0 {
		t.Errorf("empty segment priority = %v, want 0", got)
	}
	m = seg(100, 0, 10, SegSealed) // completely full
	if got := DecliningCost(&m, 10); !math.IsInf(got, 1) {
		t.Errorf("full segment priority = %v, want +Inf", got)
	}
	// Clamped interval: up2 in the future must not go negative or panic.
	m = seg(100, 50, 5, SegSealed)
	m.Up2 = 1e9
	if got := DecliningCost(&m, 10); !(got > 0) || math.IsInf(got, 0) {
		t.Errorf("clamped-interval priority = %v, want finite positive", got)
	}
}

func TestDecliningCostOrdering(t *testing.T) {
	// Emptier segments decline slower (lower priority value, cleaned first),
	// all else equal. This is the §4.5 equivalence with greedy under
	// uniform updates.
	now := uint64(1000)
	prev := math.Inf(1)
	for free := int64(10); free <= 90; free += 10 {
		m := seg(100, free, int32((100-free)/10), SegSealed)
		m.Up2 = 500
		p := DecliningCost(&m, now)
		if p >= prev {
			t.Fatalf("priority not decreasing in emptiness: free=%d p=%v prev=%v", free, p, prev)
		}
		prev = p
	}
	// Hotter segments (more recent up2, shorter interval) decline faster:
	// higher priority value, cleaned later.
	cold := seg(100, 50, 5, SegSealed)
	cold.Up2 = 0
	hot := cold
	hot.Up2 = 990
	if DecliningCost(&cold, now) >= DecliningCost(&hot, now) {
		t.Errorf("cold segment should have lower declining cost than hot: cold=%v hot=%v",
			DecliningCost(&cold, now), DecliningCost(&hot, now))
	}
}

func TestDecliningCostExact(t *testing.T) {
	now := uint64(1000)
	m := seg(100, 50, 5, SegSealed)
	m.RateSum = 0
	if got := DecliningCostExact(&m, now); got != 0 {
		t.Errorf("frozen segment exact priority = %v, want 0", got)
	}
	slow := m
	slow.RateSum = 0.001
	fast := m
	fast.RateSum = 0.5
	if DecliningCostExact(&slow, now) >= DecliningCostExact(&fast, now) {
		t.Errorf("slower segment must have smaller exact priority")
	}
	full := seg(100, 0, 10, SegSealed)
	full.RateSum = 1
	if got := DecliningCostExact(&full, now); !math.IsInf(got, 1) {
		t.Errorf("full segment exact priority = %v, want +Inf", got)
	}
	empty := seg(100, 100, 0, SegSealed)
	if got := DecliningCostExact(&empty, now); got != 0 {
		t.Errorf("empty segment exact priority = %v, want 0", got)
	}
}

func TestNextUp2(t *testing.T) {
	// Midpoint rule: new up2 is halfway between old up2 and now.
	if got := NextUp2(100, 200); got != 150 {
		t.Errorf("NextUp2(100,200) = %v, want 150", got)
	}
	if got := NextUp2(0, 0); got != 0 {
		t.Errorf("NextUp2(0,0) = %v, want 0", got)
	}
	// Repeated application converges toward now.
	u := 0.0
	for i := 0; i < 60; i++ {
		u = NextUp2(u, 1000)
	}
	if math.Abs(u-1000) > 1e-9 {
		t.Errorf("repeated NextUp2 should converge to now, got %v", u)
	}
}

// view builds a View over sealed segments with the given emptiness values at
// capacity 100 and seal sequence equal to the index.
func view(now uint64, frees ...int64) View {
	segs := make([]SegmentMeta, len(frees))
	for i, f := range frees {
		segs[i] = seg(100, f, int32((100-f)/10), SegSealed)
		segs[i].SealSeq = uint64(i + 1)
		segs[i].SealTime = uint64(i)
	}
	return View{Now: now, Segs: segs}
}

func ids(v []int32) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

func TestGreedySelectsEmptiest(t *testing.T) {
	v := view(100, 10, 90, 50, 70)
	alg := Greedy()
	got := alg.Policy.Victims(v, 2, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("greedy victims = %v, want [1 3]", ids(got))
	}
}

func TestAgeSelectsOldest(t *testing.T) {
	v := view(100, 10, 90, 50, 70)
	// Shuffle seal sequences: make segment 2 the oldest, then 0.
	v.Segs[2].SealSeq = 1
	v.Segs[0].SealSeq = 2
	v.Segs[1].SealSeq = 3
	v.Segs[3].SealSeq = 4
	alg := Age()
	got := alg.Policy.Victims(v, 3, nil)
	if len(got) != 3 || got[0] != 2 || got[1] != 0 || got[2] != 1 {
		t.Errorf("age victims = %v, want [2 0 1]", ids(got))
	}
}

func TestVictimsSkipNonSealed(t *testing.T) {
	v := view(100, 10, 90, 50)
	v.Segs[1].State = SegOpen
	for _, alg := range []Algorithm{Age(), Greedy(), CostBenefit(), MDC(), MDCOpt()} {
		got := alg.Policy.Victims(v, 10, nil)
		for _, id := range got {
			if v.Segs[id].State != SegSealed {
				t.Errorf("%s selected non-sealed segment %d", alg.Name, id)
			}
		}
		if len(got) != 2 {
			t.Errorf("%s returned %d victims, want 2 sealed", alg.Name, len(got))
		}
	}
}

func TestVictimsRespectMax(t *testing.T) {
	v := view(100, 10, 90, 50, 70, 30, 60)
	for _, alg := range []Algorithm{Age(), Greedy(), CostBenefit(), MDC()} {
		if got := alg.Policy.Victims(v, 3, nil); len(got) != 3 {
			t.Errorf("%s returned %d victims, want 3", alg.Name, len(got))
		}
		if got := alg.Policy.Victims(v, 0, nil); len(got) != 0 {
			t.Errorf("%s with max=0 returned %d victims", alg.Name, len(got))
		}
		if got := alg.Policy.Victims(v, 100, nil); len(got) != 6 {
			t.Errorf("%s with max=100 returned %d victims, want all 6", alg.Name, len(got))
		}
	}
}

func TestCostBenefitPrefersOldColdSpace(t *testing.T) {
	// Two equally empty segments: the older one has higher benefit.
	v := view(1000, 50, 50)
	v.Segs[0].SealTime = 10
	v.Segs[1].SealTime = 900
	alg := CostBenefit()
	got := alg.Policy.Victims(v, 1, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("cost-benefit picked %v, want the older segment 0", ids(got))
	}
	// An old, slightly-less-empty segment can beat a young emptier one —
	// the hallmark that distinguishes it from greedy.
	v = view(1000, 40, 60)
	v.Segs[0].SealTime = 1   // old, E=0.4: benefit = .4*999/1.6 = 249
	v.Segs[1].SealTime = 900 // young, E=0.6: benefit = .6*100/1.4 = 42
	got = alg.Policy.Victims(v, 1, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("cost-benefit picked %v, want old cold segment 0", ids(got))
	}
}

func TestCostBenefitLiteralIsPathological(t *testing.T) {
	// The formula as printed in §6.1.3 prefers FULLER segments at equal age
	// — documenting why it cannot be what the paper plotted.
	v := view(1000, 20, 80)
	v.Segs[0].SealTime = 500
	v.Segs[1].SealTime = 500
	alg := CostBenefitLiteral()
	got := alg.Policy.Victims(v, 1, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("literal cost-benefit picked %v; expected the fuller segment 0", ids(got))
	}
}

func TestMDCUniformMatchesGreedyOrder(t *testing.T) {
	// §4.5: with identical up2 (uniform update frequency), MDC's priority
	// orders segments exactly as greedy does.
	v := view(1000, 10, 90, 50, 70, 30)
	for i := range v.Segs {
		v.Segs[i].Up2 = 500
	}
	mdc := MDC().Policy.Victims(v, 5, nil)
	greedy := Greedy().Policy.Victims(v, 5, nil)
	for i := range mdc {
		if mdc[i] != greedy[i] {
			t.Fatalf("order diverges at %d: MDC=%v greedy=%v", i, ids(mdc), ids(greedy))
		}
	}
}

func TestMDCWaitsForHotSegments(t *testing.T) {
	// Equal emptiness; the cold segment (older up2) declines slower and must
	// be cleaned first ("we wait for hot segments to be emptier", §3.3).
	v := view(1000, 50, 50)
	v.Segs[0].Up2 = 990 // hot
	v.Segs[1].Up2 = 10  // cold
	got := MDC().Policy.Victims(v, 2, nil)
	if len(got) != 2 || got[0] != 1 {
		t.Errorf("MDC picked %v first, want cold segment 1", ids(got))
	}
}

func TestScoredSelectMatchesBruteForce(t *testing.T) {
	// The bounded-heap selection must agree with a full sort for every
	// (max, n) shape, including ties.
	frees := []int64{50, 20, 80, 20, 100, 0, 60, 40, 90, 30, 70, 20}
	v := view(1000, frees...)
	for max := 0; max <= len(frees)+1; max++ {
		got := Greedy().Policy.Victims(v, max, nil)
		// Brute force: all sealed ids sorted by emptiness desc, seq asc.
		type c struct {
			id int32
			e  float64
		}
		var all []c
		for id := range v.Segs {
			all = append(all, c{int32(id), v.Segs[id].Emptiness()})
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				better := all[j].e > all[i].e ||
					(all[j].e == all[i].e && v.Segs[all[j].id].SealSeq < v.Segs[all[i].id].SealSeq)
				if better {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		want := min(max, len(all))
		if len(got) != want {
			t.Fatalf("max=%d: got %d victims, want %d", max, len(got), want)
		}
		for i := range got {
			if got[i] != all[i].id {
				t.Fatalf("max=%d pos=%d: got %v, want %v", max, i, ids(got), all)
			}
		}
	}
}

func TestMultiLogRouting(t *testing.T) {
	ml := &multiLog{maxBands: DefaultMaxBands}
	// No history: presumed cold, coldest log (§5.2.2's presumption).
	if got := ml.Route(0, -1); got != DefaultMaxBands-1 {
		t.Errorf("no-history route = %d, want coldest band %d", got, DefaultMaxBands-1)
	}
	if got := ml.Route(1, -1); got != 0 {
		t.Errorf("interval-1 route = %d, want band 0", got)
	}
	if got := ml.Route(1024, -1); got != 10 {
		t.Errorf("interval-1024 route = %d, want band 10", got)
	}
	if got := ml.Route(1<<60, -1); got != DefaultMaxBands-1 {
		t.Errorf("huge interval route = %d, want clamped band %d", got, DefaultMaxBands-1)
	}
	// Exact routing: a uniform workload (one rate) maps to one band.
	mlOpt := &multiLog{exact: true, maxBands: DefaultMaxBands}
	b1 := mlOpt.Route(0, 1.0/52428)
	b2 := mlOpt.Route(0, 1.0/52428)
	if b1 != b2 {
		t.Errorf("exact uniform routing split bands: %d vs %d", b1, b2)
	}
	if got := mlOpt.Route(0, -1); got != DefaultMaxBands-1 {
		t.Errorf("exact route with unknown rate = %d, want coldest band", got)
	}
	hot := mlOpt.Route(0, 0.1)
	cold := mlOpt.Route(0, 1e-7)
	if hot >= cold {
		t.Errorf("hotter pages must land in lower bands: hot=%d cold=%d", hot, cold)
	}
}

func TestMultiLogSelectsMostReclaimable(t *testing.T) {
	v := view(1000, 30, 80, 50, 90)
	v.Segs[0].Stream = 3
	v.Segs[1].Stream = 9
	v.Segs[2].Stream = 2
	v.Segs[3].Stream = 4
	v.TriggerStream = 3
	alg := MultiLog()
	got := alg.Policy.Victims(v, 1, nil)
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("multi-log picked %v, want most-reclaimable 3", ids(got))
	}
	// Full segments are never victims: cleaning them reclaims nothing.
	v = view(1000, 0, 0, 40)
	got = alg.Policy.Victims(v, 1, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("multi-log picked %v, want the only cleanable segment 2", ids(got))
	}
	// Nothing cleanable: no victims rather than a zero-gain pick.
	v = view(1000, 0, 0)
	if got = alg.Policy.Victims(v, 1, nil); len(got) != 0 {
		t.Errorf("multi-log picked %v from all-full store", ids(got))
	}
}

func TestMultiLogOldestWithinLog(t *testing.T) {
	// Within one log multi-log cleans FIFO: with a single band it behaves
	// exactly as age-based (§6.2.2).
	v := view(1000, 50, 50, 50)
	v.Segs[0].SealSeq = 3
	v.Segs[1].SealSeq = 1
	v.Segs[2].SealSeq = 2
	v.TriggerStream = 0
	got := MultiLogOpt().Policy.Victims(v, 1, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("multi-log-opt picked %v, want oldest 1", ids(got))
	}
}

// everyAlgorithm returns each algorithm this package builds, once.
func everyAlgorithm() []Algorithm {
	return append(Figure5Set(), CostBenefitLiteral(), MDCNoSepUser(), MDCNoSepUserGC())
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, alg := range everyAlgorithm() {
		if alg.Name == "" || seen[alg.Name] {
			t.Errorf("algorithm name %q is empty or repeated", alg.Name)
		}
		seen[alg.Name] = true
		if alg.Policy == nil {
			t.Errorf("algorithm %q has nil policy", alg.Name)
		}
	}
	if len(seen) != 10 {
		t.Errorf("%d algorithms, want 10", len(seen))
	}
	if got := len(Figure5Set()); got != 7 {
		t.Errorf("Figure5Set has %d algorithms, want 7", got)
	}
	if got := len(Figure3Set()); got != 5 {
		t.Errorf("Figure3Set has %d algorithms, want 5", got)
	}
}

func TestAlgorithmFlags(t *testing.T) {
	mdc := MDC()
	if !mdc.SortUser || !mdc.SortGC || mdc.Exact {
		t.Errorf("MDC flags wrong: %+v", mdc)
	}
	opt := MDCOpt()
	if !opt.SortUser || !opt.SortGC || !opt.Exact {
		t.Errorf("MDC-opt flags wrong: %+v", opt)
	}
	nsu := MDCNoSepUser()
	if nsu.SortUser || !nsu.SortGC {
		t.Errorf("MDC-no-sep-user flags wrong: %+v", nsu)
	}
	nsug := MDCNoSepUserGC()
	if nsug.SortUser || nsug.SortGC {
		t.Errorf("MDC-no-sep-user-GC flags wrong: %+v", nsug)
	}
	ml := MultiLog()
	if ml.Router == nil || ml.CleanPerCycle != 1 {
		t.Errorf("multi-log must route and clean 1 per cycle: %+v", ml)
	}
	if s := ml.String(); s != "multi-log" {
		t.Errorf("String() = %q", s)
	}
}
