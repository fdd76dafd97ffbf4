package obs

import (
	"sync"
	"testing"
	"time"
)

// TestSnapshotGaugeFuncReentrancy pins the GaugeFunc contract: callbacks
// run with no registry lock held, so a callback that looks up handles on
// the SAME registry (which takes the registry mutex itself) must complete
// — a regression that evaluated funcs under the lock would deadlock here,
// which the watchdog turns into a failure instead of a hung test run.
func TestSnapshotGaugeFuncReentrancy(t *testing.T) {
	r := New()
	r.Counter("txns").Add(7)
	r.Gauge("free").Set(3)
	// Handle lookups AND reads back into the same registry, the pattern an
	// engine-stats GaugeFunc (e.g. one wrapping pagedb.Stats) produces.
	r.GaugeFunc("derived", func() int64 {
		return int64(r.Counter("txns").Value()) + r.Gauge("free").Value()
	})
	// A func that creates a NEW series mid-snapshot: the handle maps are
	// copied before evaluation, so this must neither deadlock nor corrupt
	// the in-flight snapshot.
	r.GaugeFunc("creator", func() int64 {
		r.Counter("created.inside.snapshot").Inc()
		return 1
	})

	done := make(chan Snapshot, 1)
	go func() { done <- r.Snapshot() }()
	select {
	case s := <-done:
		if s.Gauges["derived"] != 10 {
			t.Fatalf("derived gauge = %d, want 10", s.Gauges["derived"])
		}
		if s.Gauges["creator"] != 1 {
			t.Fatalf("creator gauge = %d, want 1", s.Gauges["creator"])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Snapshot deadlocked against a re-entrant GaugeFunc")
	}
	// The series created mid-snapshot is visible from the next one.
	if s := r.Snapshot(); s.Counters["created.inside.snapshot"] == 0 {
		t.Fatal("series created inside a GaugeFunc never appeared")
	}
}

// TestTraceRingConcurrentWriters drives the event ring through many
// wraparounds from 4 concurrent writers while a reader snapshots: no torn
// events (kind/args always coherent), unique seqs, and Events() stable
// (oldest-first, no gaps beyond eviction) once the writers stop. The
// -race run doubles as the memory-model assertion.
func TestTraceRingConcurrentWriters(t *testing.T) {
	tr := NewTrace(64) // small ring: per*4 emits wrap it dozens of times
	const writers, per = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// args encode writer and iteration so a torn event (args
				// from two different Emit calls) is detectable.
				tr.Emit(EvCommitRound, int64(w), int64(i), int64(w*per+i))
			}
		}(w)
	}
	stop := make(chan struct{})
	readerErr := make(chan string, 1)
	go func() {
		defer close(stop)
		for i := 0; i < 500; i++ {
			for _, e := range tr.Events() {
				w, it, tag := e.Args[0], e.Args[1], e.Args[2]
				if e.Kind != "commit.round" || w < 0 || w >= writers || it < 0 || it >= per || tag != w*per+it {
					select {
					case readerErr <- e.Kind:
					default:
					}
					return
				}
			}
		}
	}()
	wg.Wait()
	<-stop
	select {
	case k := <-readerErr:
		t.Fatalf("reader observed a torn/invalid event (kind %q)", k)
	default:
	}

	if got := tr.Total(); got != writers*per {
		t.Fatalf("total = %d, want %d", got, writers*per)
	}
	ev := tr.Events()
	if len(ev) != 64 {
		t.Fatalf("retained %d events, want ring cap 64", len(ev))
	}
	seen := make(map[uint64]bool, len(ev))
	for i, e := range ev {
		if i > 0 && e.Seq <= ev[i-1].Seq {
			t.Fatalf("events not seq-ordered at %d: %d after %d", i, e.Seq, ev[i-1].Seq)
		}
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		w, it, tag := e.Args[0], e.Args[1], e.Args[2]
		if w < 0 || w >= writers || it < 0 || it >= per || tag != w*per+it {
			t.Fatalf("torn event retained: %+v", e)
		}
	}
}
