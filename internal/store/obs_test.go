package store

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// TestObsSnapshotUnderConcurrentWrites hammers page writes from several
// goroutines while others continuously poll Stats() and the obs registry's
// Snapshot(); under -race (the CI concurrency suite) this proves the
// metrics hot path and the snapshot path are safe against the engine's
// locking. It then checks the registry actually observed the run: the
// write-latency histogram counted every user write and the victim-E
// histogram counted every cleaned segment.
func TestObsSnapshotUnderConcurrentWrites(t *testing.T) {
	s, err := Open(backgroundOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		writers      = 4
		opsPerWriter = 2000
		keys         = 300
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
			r := rand.New(rand.NewPCG(uint64(w), 7))
			buf := make([]byte, 128)
			for i := 0; i < opsPerWriter; i++ {
				if err := s.WritePage(uint32(r.IntN(keys)), buf); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	// Let an in-flight cleaning cycle finish: its victims are already in
	// the victim-E histogram but count as cleaned only once released.
	s.log.StopCleaner()

	st := s.Stats()
	snap := s.Obs().Snapshot()
	if h := snap.Histograms["store.write.ns"]; h.Count != st.UserWrites {
		t.Errorf("store.write.ns counted %d writes, stats say %d", h.Count, st.UserWrites)
	}
	if h := snap.Histograms["store.victim_e.permille"]; h.Count != st.SegmentsCleaned {
		t.Errorf("store.victim_e.permille counted %d victims, stats say %d cleaned", h.Count, st.SegmentsCleaned)
	}
	if st.SegmentsCleaned == 0 {
		t.Error("workload never triggered cleaning; the hammer is miscalibrated")
	}
}

// countingBackend counts what reaches segment storage: the bytes of every
// write, and how many of the writes were segment headers.
type countingBackend struct {
	backend
	bytes, headers int64
}

func (c *countingBackend) write(seg int, off int64, b []byte) error {
	c.bytes += int64(len(b))
	if off == 0 {
		c.headers++
	}
	return c.backend.write(seg, off, b)
}

// TestByteCountersMatchSegmentWrites: store.user.bytes and store.gc.bytes are
// the store's two lines of the write-byte budget, so over a seeded run of
// short and full pages, deletes, batches and cleaning they must add up to
// every byte written into segments, to within the segment headers.
func TestByteCountersMatchSegmentWrites(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), PageSize: 64, SegmentPages: 8, MaxSegments: 48, CleanBatch: 4, FreeLowWater: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cb := &countingBackend{backend: s.be}
	s.be = cb
	r := rand.New(rand.NewPCG(3, 9))
	for op := 0; op < 4000; op++ {
		id := uint32(r.IntN(300))
		switch r.IntN(8) {
		case 0:
			if s.Has(id) {
				err = s.DeletePage(id)
			}
		case 1:
			b := NewBatch()
			for n := 2 + r.IntN(5); n > 0; n-- {
				b.Write(uint32(r.IntN(300)), make([]byte, r.IntN(65)))
			}
			err = s.Apply(b)
		default:
			err = s.WritePage(id, make([]byte, r.IntN(65)))
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	user, gc := s.Obs().Counter("store.user.bytes").Value(), s.Obs().Counter("store.gc.bytes").Value()
	if gc == 0 || s.Stats().Tombstones == 0 {
		t.Fatalf("run relocated %d bytes and left %d tombstones; it should exercise both", gc, s.Stats().Tombstones)
	}
	if got, want := int64(user+gc), cb.bytes-cb.headers*segHeaderSize; got != want {
		t.Errorf("store.user.bytes %d + store.gc.bytes %d = %d, segments took %d bytes in records", user, gc, got, want)
	}
}
