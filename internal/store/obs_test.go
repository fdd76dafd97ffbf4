package store

import (
	"math/rand/v2"
	"os"
	"path/filepath"
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

// countingBackend counts what reaches segment storage and what is read back:
// the calls, their bytes, how many of the writes started a segment (they carry
// its header), and the reads per segment. failWrite, when set, is asked before
// every write and its error returned instead of writing.
type countingBackend struct {
	backend
	bytes, headers           int64
	writes, reads, readBytes int64
	readsOf                  map[int]int
	failWrite                func(seg int, off int64) error
}

func (c *countingBackend) write(seg int, off int64, b []byte) error {
	if c.failWrite != nil {
		if err := c.failWrite(seg, off); err != nil {
			return err
		}
	}
	c.writes++
	c.bytes += int64(len(b))
	if off == 0 {
		c.headers++
	}
	return c.backend.write(seg, off, b)
}

func (c *countingBackend) read(seg int, off int64, b []byte) error {
	c.reads++
	c.readBytes += int64(len(b))
	if c.readsOf != nil {
		c.readsOf[seg]++
	}
	return c.backend.read(seg, off, b)
}

// count wraps the store's backend in a countingBackend.
func count(s *Store) *countingBackend {
	cb := &countingBackend{backend: s.be}
	s.be = cb
	return cb
}

// TestByteCountersMatchSegmentWrites: store.user.bytes and store.gc.bytes are
// the store's two lines of the write-byte budget, so over a seeded run of
// short and full pages, deletes, batches, reads and cleaning they must add up
// to every byte written into segments, to within the segment headers; and the
// I/O-count legs of the budget — store.write.ios, store.read.ios,
// store.read.bytes — to the backend calls made and the bytes they asked for,
// recovery's one read per written segment included.
func TestByteCountersMatchSegmentWrites(t *testing.T) {
	opts := Options{Dir: t.TempDir(), PageSize: 64, SegmentPages: 8, MaxSegments: 48, CleanBatch: 4, FreeLowWater: 6}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cb := count(s)
	r := rand.New(rand.NewPCG(3, 9))
	buf := make([]byte, 64)
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
		case 2:
			if s.Has(id) {
				err = s.ReadPage(id, buf)
			}
		default:
			err = s.WritePage(id, make([]byte, r.IntN(65)))
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	counter := func(s *Store, name string) int64 { return int64(s.Obs().Counter(name).Value()) }
	user, gc := counter(s, "store.user.bytes"), counter(s, "store.gc.bytes")
	if gc == 0 || s.Stats().Tombstones == 0 {
		t.Fatalf("run relocated %d bytes and left %d tombstones; it should exercise both", gc, s.Stats().Tombstones)
	}
	if got, want := user+gc, cb.bytes-cb.headers*segHeaderSize; got != want {
		t.Errorf("store.user.bytes %d + store.gc.bytes %d = %d, segments took %d bytes in records", user, gc, got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{"store.write.ios": cb.writes, "store.read.ios": cb.reads, "store.read.bytes": cb.readBytes} {
		if got := counter(s, name); got != want || want == 0 {
			t.Errorf("%s = %d, the backend counted %d", name, got, want)
		}
	}

	// Recovery: one read per segment file that holds anything, of its size.
	var files, fileBytes int64
	names, _ := filepath.Glob(filepath.Join(opts.Dir, "*.seg"))
	for _, name := range names {
		if fi, err := os.Stat(name); err != nil {
			t.Fatal(err)
		} else if fi.Size() > 0 {
			files, fileBytes = files+1, fileBytes+fi.Size()
		}
	}
	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if ios, bytes := counter(s, "store.read.ios"), counter(s, "store.read.bytes"); ios != files || bytes != fileBytes {
		t.Errorf("recovery counted %d reads of %d bytes, the directory holds %d segment files of %d bytes", ios, bytes, files, fileBytes)
	}
}
