package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Property tests on the priority functions and selection, with testing/quick
// driving the segment populations.

// randomView builds a plausible sealed-segment population from quick's seed.
func randomView(seed uint64, n int) View {
	r := rand.New(rand.NewPCG(seed, seed^0xdeadbeef))
	segs := make([]SegmentMeta, n)
	now := uint64(r.IntN(1<<20) + 1000)
	for i := range segs {
		capacity := int64(1 << 16)
		live := int32(r.IntN(256) + 1)
		segs[i] = SegmentMeta{
			Capacity: capacity,
			Free:     capacity - int64(live)*256,
			Live:     live,
			State:    SegSealed,
			SealSeq:  uint64(i + 1),
			SealTime: uint64(r.IntN(int(now))),
			Up2:      float64(r.IntN(int(now))),
			RateSum:  r.Float64(),
		}
	}
	return View{Now: now, Segs: segs}
}

func TestQuickDecliningCostScaleInvariance(t *testing.T) {
	// Scaling B, A and the record size together must not change the
	// ORDERING of priorities (constant factors drop out, §5.1.3).
	err := quick.Check(func(seed uint64) bool {
		v := randomView(seed, 16)
		for scale := int64(2); scale <= 8; scale *= 2 {
			for i := 1; i < len(v.Segs); i++ {
				a, b := v.Segs[i-1], v.Segs[i]
				pa, pb := DecliningCost(&a, v.Now), DecliningCost(&b, v.Now)
				a.Capacity *= scale
				a.Free *= scale
				b.Capacity *= scale
				b.Free *= scale
				qa, qb := DecliningCost(&a, v.Now), DecliningCost(&b, v.Now)
				if (pa < pb) != (qa < qb) && pa != pb {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickPrioritiesNonNegative(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		v := randomView(seed, 32)
		for i := range v.Segs {
			if DecliningCost(&v.Segs[i], v.Now) < 0 {
				return false
			}
			if DecliningCostExact(&v.Segs[i], v.Now) < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickVictimsSortedByScore(t *testing.T) {
	// For every policy, returned victims must be ordered by its criterion:
	// verify by re-scoring.
	err := quick.Check(func(seed uint64, maxRaw uint8) bool {
		v := randomView(seed, 24)
		max := int(maxRaw)%24 + 1
		for _, alg := range []Algorithm{Age(), Greedy(), CostBenefit(), MDC(), MDCOpt()} {
			got := alg.Policy.Victims(v, max, nil)
			if len(got) != max {
				return false
			}
			score := func(id int32) float64 {
				m := &v.Segs[id]
				switch alg.Name {
				case "age":
					return float64(m.SealSeq)
				case "greedy":
					return -m.Emptiness()
				case "cost-benefit":
					e := m.Emptiness()
					return -(e * float64(v.Now-m.SealTime) / (2 - e))
				case "MDC":
					return DecliningCost(m, v.Now)
				default:
					return DecliningCostExact(m, v.Now)
				}
			}
			for i := 1; i < len(got); i++ {
				if score(got[i-1]) > score(got[i])+1e-12 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickVictimsDisjoint(t *testing.T) {
	// No policy may return the same victim twice.
	err := quick.Check(func(seed uint64) bool {
		v := randomView(seed, 40)
		for _, alg := range everyAlgorithm() {
			got := alg.Policy.Victims(v, 40, nil)
			seen := map[int32]bool{}
			for _, id := range got {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickNextUp2Monotone(t *testing.T) {
	// The §5.2.2 midpoint always lands strictly between up2 and now (when
	// up2 < now), so repeated updates keep the estimate within the clock.
	err := quick.Check(func(up2Raw uint32, nowRaw uint32) bool {
		up2 := float64(up2Raw % 1000000)
		now := uint64(nowRaw%1000000) + uint64(up2) + 1
		next := NextUp2(up2, now)
		return next > up2 && next < float64(now)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}
