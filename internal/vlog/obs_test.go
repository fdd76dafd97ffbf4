package vlog

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// TestObsSnapshotUnderConcurrentPuts hammers Puts from several goroutines
// while others continuously poll Stats() and the obs registry's Snapshot();
// under -race (the CI concurrency suite) this proves the metrics hot path
// and the snapshot path are safe against the engine's locking. It then
// checks the page store's write-latency histogram counted every Put and its
// victim-E histogram every cleaned segment.
func TestObsSnapshotUnderConcurrentPuts(t *testing.T) {
	s, err := New(backgroundOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		writers      = 4
		opsPerWriter = 2000
		keys         = 200
	)
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Stats()
				_ = s.Obs().Snapshot()
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 11))
			val := make([]byte, 64)
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("key-%03d", r.IntN(keys))
				if err := s.Put(key, val); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	// Let an in-flight cleaning cycle finish: its victims are already in the
	// victim-E histogram but count as cleaned only once released. Closing the
	// page store underneath stops its cleaner; the final counts are taken
	// before the KV's own Close, which zeroes Stats.
	if err := s.st.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	snap := s.Obs().Snapshot()
	if h := snap.Histograms["store.write.ns"]; h.Count != st.UserWrites {
		t.Errorf("store.write.ns counted %d puts, stats say %d", h.Count, st.UserWrites)
	}
	if h := snap.Histograms["store.victim_e.permille"]; h.Count != st.SegmentsCleaned {
		t.Errorf("store.victim_e.permille counted %d victims, stats say %d cleaned", h.Count, st.SegmentsCleaned)
	}
	if st.SegmentsCleaned == 0 {
		t.Error("workload never triggered cleaning; the hammer is miscalibrated")
	}
}
