package main

import (
	"bufio"
	"os"
	"strconv"
	"sync"
	"time"
)

// A span is one timed call the benchmark made into a public function of the
// program (or the whole operation around such calls). Spans are recorded by
// the benchmark's own wrappers only; spans inside the program are a later
// issue. Times are nanoseconds since the tracer started.
type span struct {
	name       uint8 // index into spanNames
	parent     int32 // index of the causing span, -1 for an operation's root
	op         uint32
	start, end int64
}

// Span names. A root span is the layer that issued the operation; its
// children are the calls into the layer below.
const (
	spTPCCTxn uint8 = iota
	spTxnGet
	spTxnPut
	spTxnScan
	spTxnDelete
	spTxnCommit
	spCheckpoint
	spKVOp
	spTreeGet
	spTreeScan
	spStoreApply
	spOpen
)

var spanNames = [...]string{
	spTPCCTxn:    "tpcc.txn",
	spTxnGet:     "pagedb.txn_get",
	spTxnPut:     "pagedb.txn_put",
	spTxnScan:    "pagedb.txn_scan",
	spTxnDelete:  "pagedb.txn_delete",
	spTxnCommit:  "pagedb.txn_commit",
	spCheckpoint: "pagedb.checkpoint",
	spKVOp:       "client.kv_op",
	spTreeGet:    "pagedb.tree_get",
	spTreeScan:   "pagedb.tree_scan",
	spStoreApply: "store.apply",
	spOpen:       "open",
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run is built: the same wrappers, with
// every tracer call a nil check.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextOp uint32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// newOp returns a fresh operation id; every span of one operation carries it.
func (t *tracer) newOp() uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextOp++
	op := t.nextOp
	t.mu.Unlock()
	return op
}

// begin opens a span and returns its index, to be passed to end and, as
// parent, to the spans it causes.
func (t *tracer) begin(name uint8, op uint32, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: now})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// rollup is what the per-layer metrics read from a finished trace: for each
// span name its count, its durations, and its self time — the duration
// minus the part its children cover.
type rollup struct {
	count [len(spanNames)]int
	durs  [len(spanNames)][]int64
	total [len(spanNames)]int64
	self  [len(spanNames)]int64
}

// roll computes the roll-up. Children of one parent never overlap here (each
// client goroutine issues its calls one after another), so the covered part
// of a span is the sum of its children's durations.
func (t *tracer) roll() *rollup {
	r := &rollup{}
	if t == nil {
		return r
	}
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		r.count[s.name]++
		r.durs[s.name] = append(r.durs[s.name], d)
		r.total[s.name] += d
		r.self[s.name] += d - covered[i]
	}
	return r
}

// meanUS is the mean duration of the named span in microseconds.
func (r *rollup) meanUS(name uint8) float64 {
	return ratio(float64(r.total[name]), float64(r.count[name])) / 1e3
}

// writeJSON writes the spans as a JSON array, one object per line.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	w.WriteString("[\n")
	for i, s := range t.spans {
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[s.name]...)
		b = append(b, `","op":`...)
		b = strconv.AppendUint(b, uint64(s.op), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, '}')
		w.Write(b)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
