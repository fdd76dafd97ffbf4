package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Registry is a named collection of metrics with a stable JSON snapshot.
// Handles are get-or-create by name, so layers sharing a registry share
// series; engines resolve their handles once at Open and then touch only
// the atomic fast paths. A nil *Registry is the disabled mode: it hands
// out nil handles (no-op metrics) and snapshots empty.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
	trace    *Trace
	slowState
}

// New creates an empty registry with a DefaultTraceCap event ring and a
// DefaultSlowOpCap slow-op ring (threshold DefaultSlowOpNanos).
func New() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
		trace:    NewTrace(DefaultTraceCap),
	}
	r.initSlow()
	return r
}

// Counter returns the named counter, creating it on first use. Nil (a
// no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Nil on
// a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a callback evaluated at snapshot time and reported
// beside the gauges (for values another layer already maintains, like
// buffer-pool hit counts). Re-registering a name replaces the callback.
// The callback runs on the snapshotting goroutine and must do its own
// locking. No-op on a nil registry.
//
// Re-entrancy contract: Snapshot evaluates callbacks with NO registry
// lock held, so a callback may freely look up or read handles on the same
// registry (Counter, Gauge, Histogram, Trace — each takes the registry
// lock briefly itself) and may take engine locks such as the one inside
// pagedb.Stats. The one thing a callback must NOT do is call Snapshot or
// WriteJSON on a registry whose funcs (transitively) include itself —
// that recurses without bound. TestSnapshotGaugeFuncReentrancy pins the
// lock-free evaluation.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Trace returns the registry's event ring (nil, a no-op, on a nil
// registry).
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// Snapshot is a point-in-time JSON-stable read of a registry: exact
// counter and gauge values, histogram summaries, and the retained trace
// events oldest-first. Maps marshal with sorted keys, so the rendered
// JSON is deterministic for a given state.
type Snapshot struct {
	// Compact marks a snapshot passed through Compacted: zero-valued and
	// empty series were dropped, so "series absent" means "series zero",
	// not "series never existed". lsbench's reports are always compact, so
	// cmd/benchcheck requires a series to be non-empty, never to exist.
	Compact    bool                         `json:"compact,omitempty"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Events     []Event                      `json:"events,omitempty"`
}

// Compacted returns a reviewable copy of the snapshot: zero-valued
// counters and gauges, empty histograms, and the event ring are dropped
// (histogram bucket lists already omit empty buckets). Nothing a nonzero
// series reported is lost — compaction only removes entries whose value
// is exactly the zero the reader would infer from their absence. The copy
// is marked Compact so schema validators know absence means zero.
func (s Snapshot) Compacted() Snapshot {
	out := Snapshot{
		Compact:    true,
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		if v != 0 {
			out.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if v != 0 {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		if v.Count != 0 {
			out.Histograms[k] = v
		}
	}
	return out
}

// Snapshot reads every metric. Counters and gauges are single atomic
// loads; histograms load each bucket once; gauge funcs run on the calling
// goroutine. Empty (not nil maps) on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	// Copy the handle maps under the lock, then read the atomics outside it
	// so a gauge func that takes an engine lock cannot deadlock against a
	// concurrent handle lookup.
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.Unlock()

	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	s.Events = r.trace.Events()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return fmt.Errorf("obs: encoding snapshot: %w", err)
	}
	return nil
}
