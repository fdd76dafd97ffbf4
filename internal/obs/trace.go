package obs

import (
	"sync"
	"time"
)

// EventKind is the typed tag of a trace event. Events are rare control-path
// moments (state transitions, fsync rounds, capacity episodes), not per-
// operation records — the ring is mutex-guarded and bounded, so a burst
// overwrites the oldest entries rather than growing.
type EventKind uint8

// The event kinds the engines emit.
const (
	// EvCleanerState: a background cleaner state transition. Args: old state,
	// new state, numbered 0 idle, 1 selecting, 2 relocating, 3 releasing,
	// 4 stopped.
	EvCleanerState EventKind = iota
	// EvWatermark: the commit watermark advanced. Args: new watermark segment.
	EvWatermark
	// EvErrFull: the store refused a write with ErrFull. Args: free segments.
	EvErrFull
	// EvEmergencyFloor: admission blocked at the emergency floor. Args: free
	// segments, floor.
	EvEmergencyFloor
	// EvCommitRound: a group-commit fsync round completed. Args: cumulative
	// rounds, cumulative fsyncs, per-segment fsyncs in this round.
	EvCommitRound
	// EvCleanerKick: the cleaner was kicked by an admission below the
	// low-water mark. Args: free segments.
	EvCleanerKick
)

var eventKindNames = [...]string{
	"cleaner.state", "watermark", "errfull", "emergency.floor",
	"commit.round", "cleaner.kick",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one trace entry: a global sequence number, a wall-clock stamp,
// the kind, and up to three kind-specific integer arguments.
type Event struct {
	Seq   uint64   `json:"seq"`
	Nanos int64    `json:"unix_nanos"`
	Kind  string   `json:"kind"`
	Args  [3]int64 `json:"args"`
}

// DefaultTraceCap is the ring capacity a Registry allocates.
const DefaultTraceCap = 1024

// Trace is a fixed-capacity ring buffer of typed events. All methods are
// safe for concurrent use; all are no-ops on a nil trace.
type Trace struct {
	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever emitted; buf[(total-1) % cap] is newest
}

// NewTrace creates a ring holding the last capacity events.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{buf: make([]Event, 0, capacity)}
}

// Emit appends an event, evicting the oldest when the ring is full. Up to
// three args are kept; extras are dropped.
func (t *Trace) Emit(kind EventKind, args ...int64) {
	if t == nil {
		return
	}
	var e Event
	e.Nanos = time.Now().UnixNano()
	e.Kind = kind.String()
	copy(e.Args[:], args)
	t.mu.Lock()
	e.Seq = t.total
	t.total++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[e.Seq%uint64(cap(t.buf))] = e
	}
	t.mu.Unlock()
}

// Events returns the retained events oldest-first. Nil on a nil trace.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	start := t.total % uint64(cap(t.buf))
	for i := 0; i < len(t.buf); i++ {
		out = append(out, t.buf[(start+uint64(i))%uint64(cap(t.buf))])
	}
	return out
}

// Total returns how many events were ever emitted (including evicted ones).
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
