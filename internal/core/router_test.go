package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestRoutersArePure pins Router's contract: a caller may ask Route again for
// the same append (a replanned batch, a retried write), so an answer may
// depend on the arguments alone. Every algorithm's router must route a seeded
// sequence the same whether it is asked once or twice per element.
func TestRoutersArePure(t *testing.T) {
	type call struct {
		est  uint64
		rate float64
	}
	r := rand.New(rand.NewPCG(7, 8))
	calls := make([]call, 8192)
	for i := range calls {
		c := &calls[i]
		if r.IntN(16) != 0 { // the rest have no history
			c.est = uint64(1)<<r.IntN(32) + r.Uint64N(64)
		}
		c.rate = -1
		if r.IntN(2) == 0 {
			c.rate = 1 / float64(r.IntN(1<<24)+1)
		}
	}
	twice := everyAlgorithm()
	for k, once := range everyAlgorithm() {
		if once.Router == nil {
			continue
		}
		for i, c := range calls {
			want := once.Router.Route(c.est, c.rate)
			twice[k].Router.Route(c.est, c.rate)
			if got := twice[k].Router.Route(c.est, c.rate); got != want {
				t.Errorf("%s: element %d (interval %d, rate %g) routes to %d asked once, %d asked twice",
					once.Name, i, c.est, c.rate, want, got)
				break
			}
		}
	}
}

func TestMultiLogStreams(t *testing.T) {
	a := MultiLog()
	if a.Router == nil {
		t.Fatal("multi-log has no router")
	}
	if got := a.Router.Streams(); got != DefaultMaxBands {
		t.Errorf("multi-log Streams() = %d, want %d", got, DefaultMaxBands)
	}
	if got := a.Router.Route(0, -1); got != DefaultMaxBands-1 {
		t.Errorf("multi-log no-history route = %d, want coldest", got)
	}
}

func TestSmoothInterval(t *testing.T) {
	if got := SmoothInterval(0, 10); got != 10 {
		t.Errorf("first observation = %d, want 10", got)
	}
	if got := SmoothInterval(10, 30); got != 20 {
		t.Errorf("midpoint = %d, want 20", got)
	}
	if got := SmoothInterval(0, 0); got != 1 {
		t.Errorf("zero observation = %d, want clamp to 1", got)
	}
	if got := SmoothInterval(0, math.MaxUint64); got != math.MaxUint32 {
		t.Errorf("huge observation = %d, want MaxUint32", got)
	}
	if got := SmoothInterval(1, 1); got != 1 {
		t.Errorf("steady estimate = %d, want 1", got)
	}
}
