package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestRoutersArePure pins Router's contract: a caller may ask Route again for
// the same append (a replanned batch, a retried write), so an answer may
// depend on the arguments alone. Every registered router must route a seeded
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
	for _, name := range Names() {
		once, _ := ByName(name)
		if once.Router == nil {
			continue
		}
		twice, _ := ByName(name)
		for i, c := range calls {
			want := once.Router.Route(c.est, c.rate)
			twice.Router.Route(c.est, c.rate)
			if got := twice.Router.Route(c.est, c.rate); got != want {
				t.Errorf("%s: element %d (interval %d, rate %g) routes to %d asked once, %d asked twice",
					name, i, c.est, c.rate, want, got)
				break
			}
		}
	}
}

func TestTempRouterBands(t *testing.T) {
	r := TempRouter{Bands: 4}
	if r.Streams() != 4 {
		t.Fatalf("Streams() = %d, want 4", r.Streams())
	}
	if got := r.Route(0, -1); got != 3 {
		t.Errorf("no-history write routed to stream %d, want coldest (3)", got)
	}
	if got := r.Route(1, -1); got != 0 {
		t.Errorf("hottest interval routed to stream %d, want 0", got)
	}
	// Monotone: a longer interval never routes hotter, and every id is in
	// range.
	prev := int32(0)
	for exp := 0; exp < 40; exp++ {
		got := r.Route(uint64(1)<<exp, -1)
		if got < 0 || got >= r.Bands {
			t.Fatalf("Route(1<<%d) = %d outside [0,%d)", exp, got, r.Bands)
		}
		if got < prev {
			t.Fatalf("Route(1<<%d) = %d hotter than Route of shorter interval (%d)", exp, got, prev)
		}
		prev = got
	}
	if prev != r.Bands-1 {
		t.Errorf("longest interval routed to %d, want coldest %d", prev, r.Bands-1)
	}
	// Exact rate takes precedence over the estimate when provided.
	if got := r.Route(1<<30, 1.0); got != 0 {
		t.Errorf("exact hot rate routed to stream %d, want 0", got)
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

func TestMDCRoutedRegistered(t *testing.T) {
	a, err := ByName("MDC-routed")
	if err != nil {
		t.Fatal(err)
	}
	if a.Router == nil {
		t.Fatal("MDC-routed has no router")
	}
	if a.Router.Streams() < 2 || a.Router.Streams() > 64 {
		t.Errorf("MDC-routed stream count %d outside sane range", a.Router.Streams())
	}
	if a.Policy.Name() != "MDC" {
		t.Errorf("MDC-routed victim policy = %q, want MDC's declining cost", a.Policy.Name())
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
