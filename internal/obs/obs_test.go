package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	var r *Registry
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Record(123)
	tr.Emit(EvErrFull, 1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Total() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if hs := h.Snapshot(); hs.Count != 0 {
		t.Fatal("nil histogram snapshot must be empty")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil || r.Trace() != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	r.GaugeFunc("x", func() int64 { return 1 })
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 || s.Events != nil {
		t.Fatalf("nil registry snapshot must be empty, got %+v", s)
	}
}

// TestHistogramBucketBoundaries pins the exact bucket layout: 0 in bucket
// 0, powers of two opening new buckets, and 2^i-1 closing them.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 38, 39}, {1<<39 - 1, 39},
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		lo, hi := BucketBounds(c.want)
		if c.v < lo || c.v > hi {
			t.Errorf("value %d outside its bucket bounds [%d, %d]", c.v, lo, hi)
		}
	}
	var h Histogram
	for _, c := range cases {
		h.Record(c.v)
	}
	if got := h.Count(); got != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", got, len(cases))
	}
}

// TestHistogramOverflowBucket checks that everything at or above the
// overflow threshold lands in the last bucket and that quantiles report
// its floor rather than inventing values.
func TestHistogramOverflowBucket(t *testing.T) {
	over := uint64(1) << (histBuckets - 2)
	for _, v := range []uint64{over, 2 * over, math.MaxUint64} {
		if got := BucketIndex(v); got != histBuckets-1 {
			t.Errorf("BucketIndex(%d) = %d, want overflow bucket %d", v, got, histBuckets-1)
		}
	}
	var h Histogram
	h.Record(over)
	h.Record(math.MaxUint64)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.P50 != float64(over) || s.P999 != float64(over) {
		t.Fatalf("overflow quantiles must report the bucket floor %d, got p50=%g p999=%g", over, s.P50, s.P999)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].LE != math.MaxUint64 || s.Buckets[0].Count != 2 {
		t.Fatalf("overflow bucket snapshot wrong: %+v", s.Buckets)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 || s.P999 != 0 || s.Buckets != nil {
		t.Fatalf("empty histogram snapshot must be zero, got %+v", s)
	}
}

// TestHistogramKnownQuantiles records 1..1000 once each: every quantile
// estimate must land inside the bucket holding the true quantile, and the
// estimates must be monotone in q.
func TestHistogramKnownQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	check := func(name string, got float64, trueQ uint64) {
		lo, hi := BucketBounds(BucketIndex(trueQ))
		if got < float64(lo) || got > float64(hi) {
			t.Errorf("%s = %g, want inside bucket [%d, %d] of true value %d", name, got, lo, hi, trueQ)
		}
	}
	check("p50", s.P50, 500)
	check("p95", s.P95, 950)
	check("p99", s.P99, 990)
	check("p999", s.P999, 999)
	if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.P999) {
		t.Errorf("quantiles not monotone: %g %g %g %g", s.P50, s.P95, s.P99, s.P999)
	}
	// True mean is 500.5; the bucket-midpoint estimate is coarse but must
	// stay within a factor of two.
	if s.Mean < 250 || s.Mean > 1001 {
		t.Errorf("mean estimate %g too far from 500.5", s.Mean)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Record(100)
	}
	s := h.Snapshot()
	lo, hi := BucketBounds(BucketIndex(100))
	for name, q := range map[string]float64{"p50": s.P50, "p95": s.P95, "p99": s.P99, "p999": s.P999} {
		if q < float64(lo) || q > float64(hi) {
			t.Errorf("%s = %g outside bucket [%d, %d]", name, q, lo, hi)
		}
	}
}

func TestTraceRingEviction(t *testing.T) {
	tr := NewTrace(4)
	for i := int64(0); i < 10; i++ {
		tr.Emit(EvCommitRound, i)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("event %d: seq %d, want %d (oldest-first)", i, e.Seq, want)
		}
		if e.Kind != "commit.round" {
			t.Errorf("event %d: kind %q", i, e.Kind)
		}
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
}

func TestRegistrySharedHandles(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name must return the same histogram")
	}
	r.Counter("a").Add(3)
	r.Gauge("g").Set(-1)
	r.Histogram("h").Record(10)
	r.GaugeFunc("fn", func() int64 { return 99 })
	r.Trace().Emit(EvWatermark, 5)

	s := r.Snapshot()
	if s.Counters["a"] != 3 || s.Gauges["g"] != -1 || s.Gauges["fn"] != 99 {
		t.Fatalf("snapshot wrong: %+v", s)
	}
	if s.Histograms["h"].Count != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", s.Histograms["h"])
	}
	if len(s.Events) != 1 || s.Events[0].Kind != "watermark" || s.Events[0].Args[0] != 5 {
		t.Fatalf("events wrong: %+v", s.Events)
	}
}

func TestWriteJSONStable(t *testing.T) {
	r := New()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Histogram("lat").Record(100)
	b1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("snapshot JSON must be deterministic for a fixed state")
	}
	var s Snapshot
	if err := json.Unmarshal(b1, &s); err != nil {
		t.Fatalf("snapshot JSON must round-trip: %v", err)
	}
	if s.Counters["a"] != 1 || s.Counters["b"] != 2 || s.Histograms["lat"].Count != 1 {
		t.Fatalf("round-trip lost data: %+v", s)
	}
}

// checkHistogram returns why a histogram snapshot is internally
// inconsistent, or "" if it is not: an empty one has zero mean and
// quantiles; otherwise bucket bounds strictly increase, bucket counts sum to
// Count and the quantiles are monotone.
func checkHistogram(h HistogramSnapshot) string {
	if h.Count == 0 {
		if h.Mean != 0 || h.P50 != 0 || h.P95 != 0 || h.P99 != 0 || h.P999 != 0 {
			return fmt.Sprintf("empty but mean=%g p50=%g p95=%g p99=%g p999=%g", h.Mean, h.P50, h.P95, h.P99, h.P999)
		}
		return ""
	}
	var sum uint64
	for i, b := range h.Buckets {
		if i > 0 && b.LE <= h.Buckets[i-1].LE {
			return fmt.Sprintf("bucket bounds not increasing at le=%d", b.LE)
		}
		sum += b.Count
	}
	if sum != h.Count {
		return fmt.Sprintf("bucket counts sum to %d, Count says %d", sum, h.Count)
	}
	if !(h.P50 <= h.P95 && h.P95 <= h.P99 && h.P99 <= h.P999) {
		return fmt.Sprintf("quantiles not monotone: p50=%g p95=%g p99=%g p999=%g", h.P50, h.P95, h.P99, h.P999)
	}
	return ""
}

// TestConcurrentRecordSnapshot hammers one histogram and the registry from
// several goroutines while snapshotting (the -race run is the memory-model
// assertion), and checks every histogram of every mid-record snapshot with
// checkHistogram: Histogram.Snapshot derives Count from the buckets it
// loaded, so a snapshot is consistent even while writers record.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	r.Histogram("idle") // never recorded: must snapshot as all zeros
	c := r.Counter("ops")
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				h.Record(seed*1000 + i)
				c.Inc()
				r.Trace().Emit(EvCleanerKick, int64(i))
			}
		}(uint64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for name, hs := range r.Snapshot().Histograms {
				if msg := checkHistogram(hs); msg != "" {
					t.Errorf("snapshot %d, histogram %q: %s", i, name, msg)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	s := r.Snapshot()
	lat := s.Histograms["lat"]
	if s.Counters["ops"] != workers*per || lat.Count != workers*per {
		t.Fatalf("lost updates: %+v", s.Counters)
	}
	if msg := checkHistogram(lat); msg != "" {
		t.Fatalf("final snapshot: %s", msg)
	}
}

// TestCheckHistogram shows checkHistogram passes real snapshots, full and
// empty, and names each way a broken one is inconsistent.
func TestCheckHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v * 100)
	}
	r.Histogram("idle")
	s := r.Snapshot()
	cases := []struct {
		name    string
		hs      HistogramSnapshot
		mutate  func(*HistogramSnapshot)
		wantErr string // empty: must pass
	}{
		{"recorded", s.Histograms["lat"], func(*HistogramSnapshot) {}, ""},
		{"empty", s.Histograms["idle"], func(*HistogramSnapshot) {}, ""},
		{"empty with a quantile", s.Histograms["idle"],
			func(h *HistogramSnapshot) { h.P99 = 1 }, "empty but"},
		{"non-monotone quantiles", s.Histograms["lat"],
			func(h *HistogramSnapshot) { h.P95 = h.P999 + 1 }, "quantiles not monotone"},
		{"bucket counts off the total", s.Histograms["lat"],
			func(h *HistogramSnapshot) { h.Count++ }, "bucket counts sum to 1000, Count says 1001"},
		{"bucket bounds out of order", s.Histograms["lat"],
			func(h *HistogramSnapshot) { h.Buckets[1].LE = h.Buckets[0].LE }, "bucket bounds not increasing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs := tc.hs
			hs.Buckets = append([]BucketCount(nil), tc.hs.Buckets...)
			tc.mutate(&hs)
			msg := checkHistogram(hs)
			switch {
			case tc.wantErr == "" && msg != "":
				t.Fatalf("consistent snapshot rejected: %s", msg)
			case tc.wantErr != "" && !strings.Contains(msg, tc.wantErr):
				t.Fatalf("got %q, want it to contain %q", msg, tc.wantErr)
			}
		})
	}
}
