package store

import (
	"errors"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
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
	s.stopCleaner()

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
// its header), and the reads per segment. failWrite, failRead and failSync,
// when set, are asked before every write, read and fsync and their error
// returned instead. events is the order in which writes, fsyncs and resets
// reached each segment. mu guards the counts and the events, since a sync
// point's fsyncs run concurrently (and a crashBackend above reads through this
// one from them): a test reads them through counts, segReads and log.
type countingBackend struct {
	backend
	failWrite func(seg int, off int64) error
	failRead  func(seg int, off int64) error
	failSync  func(seg int) error
	mu        sync.Mutex
	n         ioCounts
	readsOf   map[int]int
	events    []ioEvent
}

// ioCounts is what a countingBackend has counted.
type ioCounts struct {
	bytes, headers           int64
	writes, reads, readBytes int64
}

// ioEvent is one step of a segment's history: 'w' a write, 'r' a reset, 's' an
// fsync begun, 'S' that fsync succeeded.
type ioEvent struct {
	op  byte
	seg int
}

func (c *countingBackend) note(op byte, seg int) {
	c.mu.Lock()
	c.events = append(c.events, ioEvent{op, seg})
	c.mu.Unlock()
}

// log returns the events so far.
func (c *countingBackend) log() []ioEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events[:len(c.events):len(c.events)]
}

// counts returns the counts so far.
func (c *countingBackend) counts() ioCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// segReads returns how many reads each segment has taken so far.
func (c *countingBackend) segReads() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.readsOf)
}

func (c *countingBackend) write(seg int, off int64, b []byte) error {
	if c.failWrite != nil {
		if err := c.failWrite(seg, off); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.n.writes++
	c.n.bytes += int64(len(b))
	if off == 0 {
		c.n.headers++
	}
	c.events = append(c.events, ioEvent{'w', seg})
	c.mu.Unlock()
	return c.backend.write(seg, off, b)
}

func (c *countingBackend) read(seg int, off int64, b []byte) error {
	if c.failRead != nil {
		if err := c.failRead(seg, off); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.n.reads++
	c.n.readBytes += int64(len(b))
	c.readsOf[seg]++
	c.mu.Unlock()
	return c.backend.read(seg, off, b)
}

func (c *countingBackend) reset(seg int) error {
	c.note('r', seg)
	return c.backend.reset(seg)
}

func (c *countingBackend) sync(seg int) error {
	c.note('s', seg)
	if c.failSync != nil {
		if err := c.failSync(seg); err != nil {
			return err
		}
	}
	// Not forwarded: within one process the page cache is the storage, and a
	// real fsync would only make the test as slow as the disk.
	c.note('S', seg)
	return nil
}

// syncReplay folds a countingBackend's events into, per segment, how far it
// is from durable: 'w' written (or reset) since its last fsync, 's' an fsync
// began after its last write, 'S' that fsync succeeded — the segment is
// covered. It fails the test when a covered segment is fsynced again, and
// when a segment is reset before every segment holding copies of its records
// (see relocated) has a successful fsync begun after the writes of the copies.
type syncReplay struct {
	seen  int
	state map[int]byte
	syncs int
	// Per segment, as event numbers (from 1): its last write or reset; that
	// number when its last fsync began; and when its last successful one did.
	wrote, began, covers map[int]int
	// owed maps a segment to the segments holding copies of its records, and
	// the number of the last write to each when the copies were in place;
	// resets counts the resets of such a segment that were checked.
	owed   map[int]map[int]int
	resets int
}

func (r *syncReplay) advance(t *testing.T, cb *countingBackend) {
	t.Helper()
	if r.state == nil {
		r.state, r.wrote, r.began, r.covers = make(map[int]byte), make(map[int]int), make(map[int]int), make(map[int]int)
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	for i, e := range cb.events[r.seen:] {
		switch e.op {
		case 'r':
			if r.owed[e.seg] != nil {
				r.resets++
			}
			for g, w := range r.owed[e.seg] {
				if r.covers[g] < w {
					t.Errorf("segment %d was reset before segment %d, holding copies of its records, had a successful fsync begun after writing them", e.seg, g)
				}
			}
			delete(r.owed, e.seg)
			fallthrough
		case 'w':
			r.state[e.seg], r.wrote[e.seg] = 'w', r.seen+i+1
		case 's':
			if r.syncs++; r.state[e.seg] == 'S' {
				t.Errorf("segment %d was fsynced twice with no write in between", e.seg)
			}
			r.state[e.seg], r.began[e.seg] = 's', r.wrote[e.seg]
		case 'S':
			if r.state[e.seg] == 's' {
				r.state[e.seg] = 'S'
			}
			r.covers[e.seg] = max(r.covers[e.seg], r.began[e.seg])
		}
	}
	r.seen = len(cb.events)
}

// locations snapshots which segment holds each page's current version.
func locations(s *Store) map[uint32]int32 {
	from := make(map[uint32]int32, len(s.table))
	for id, loc := range s.table {
		from[id] = loc.seg
	}
	return from
}

// relocated notes, once the replay has advanced past a cleaning cycle, where
// the pages it moved went: each segment in from (taken before the cycle) may
// be reset only once the segments now holding its pages are covered.
func (r *syncReplay) relocated(s *Store, from map[uint32]int32) {
	if r.owed == nil {
		r.owed = make(map[int]map[int]int)
	}
	for id, seg := range from {
		if loc, ok := s.table[id]; ok && loc.seg != seg {
			if r.owed[int(seg)] == nil {
				r.owed[int(seg)] = make(map[int]int)
			}
			r.owed[int(seg)][int(loc.seg)] = r.wrote[int(loc.seg)]
		}
	}
}

// TestCountingBackendTakesConcurrentReads: a crashBackend's fsync reads its
// segment through the countingBackend beneath it, and a sync point runs its
// fsyncs concurrently, so every count is kept under the backend's lock
// (decisive under -race).
func TestCountingBackendTakesConcurrentReads(t *testing.T) {
	const goroutines, syncs, segBytes = 4, 50, 64
	mem := newMemBackend(goroutines)
	for seg := range goroutines {
		if err := mem.write(seg, 0, make([]byte, segBytes)); err != nil {
			t.Fatal(err)
		}
	}
	cb := &countingBackend{backend: mem, readsOf: make(map[int]int)}
	crash := &crashBackend{backend: cb, synced: map[int][]byte{}, resetAfter: map[int]bool{}}
	var wg sync.WaitGroup
	for seg := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range syncs {
				if err := crash.sync(seg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	n := cb.counts()
	if n.reads != goroutines*syncs || n.readBytes != goroutines*syncs*segBytes || len(cb.log()) != 2*goroutines*syncs {
		t.Errorf("counted %d reads of %d bytes and %d events, want %d, %d and %d",
			n.reads, n.readBytes, len(cb.log()), goroutines*syncs, goroutines*syncs*segBytes, 2*goroutines*syncs)
	}
	for seg, reads := range cb.segReads() {
		if reads != syncs {
			t.Errorf("segment %d: %d reads, want %d", seg, reads, syncs)
		}
	}
}

// count wraps the store's backend in a countingBackend.
func count(s *Store) *countingBackend {
	cb := &countingBackend{backend: s.be, readsOf: make(map[int]int)}
	s.be = cb
	return cb
}

// TestSyncPointSeries: the two places a traced run waits on fsyncs — the
// relocate phase of a background cleaning cycle (the cleaner's relocate leg) and
// the store.commit.wait leg of a DurCommit Apply — are each exactly one sync
// point: one sample of store.syncpoint.ns and of store.syncpoint.segs, whatever
// number of concurrent store.fsync.ns samples it covers.
func TestSyncPointSeries(t *testing.T) {
	for _, dur := range []core.Durability{core.DurSeal, core.DurCommit} {
		t.Run(dur.String(), func(t *testing.T) {
			s, err := Open(Options{Dir: t.TempDir(), PageSize: 128, SegmentPages: 16, MaxSegments: 64, CleanBatch: 4, FreeLowWater: 8, Durability: dur})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			count(s)
			for op := uint32(0); op < 450; op++ { // every other page twice: half-live victims, the free pool still above low water
				id := op
				if op >= 300 {
					id = (op - 300) * 2
				}
				if err := s.WritePage(id, page(op, 128)); err != nil {
					t.Fatal(err)
				}
			}
			samples := func() (points, segs, fsyncs uint64) {
				h := s.Obs().Histogram
				return h("store.syncpoint.ns").Count(), h("store.syncpoint.segs").Count(), h("store.fsync.ns").Count()
			}
			checkInvariants(t, s) // settles the last seal: its fsync's samples are the syncer's, not the phase's
			p0, n0, f0 := samples()
			phases := newCleaner(s)
			victims := phases.selectVictims(4)
			if _, err := phases.relocate(); err != nil || len(victims) == 0 {
				t.Fatalf("relocate(%v): %v", victims, err)
			}
			phases.release(victims)
			if p, n, f := samples(); p != p0+1 || n != n0+1 || f == f0 {
				t.Errorf("the relocate phase recorded %d sync points (%d segment counts) and %d fsyncs, want one sync point", p-p0, n-n0, f-f0)
			}
			if dur != core.DurCommit {
				return
			}
			p0, n0, f0 = samples()
			span := obs.StartSpan(s.Obs(), "test.apply")
			err = s.ApplySpanned(NewBatch().Write(1, page(1, 128)).Write(2, page(2, 128)), span)
			span.End()
			if p, n, f := samples(); err != nil || p != p0+1 || n != n0+1 || f == f0 {
				t.Errorf("ApplySpanned: %v; its commit wait recorded %d sync points (%d segment counts) and %d fsyncs, want one sync point", err, p-p0, n-n0, f-f0)
			}
		})
	}
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
	n := cb.counts()
	if got, want := user+gc, n.bytes-n.headers*segHeaderSize; got != want {
		t.Errorf("store.user.bytes %d + store.gc.bytes %d = %d, segments took %d bytes in records", user, gc, got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n = cb.counts()
	for name, want := range map[string]int64{"store.write.ios": n.writes, "store.read.ios": n.reads, "store.read.bytes": n.readBytes} {
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

// TestErrFullIsCounted: store.errfull counts each write refused with ErrFull
// once, with one errfull trace event, in foreground and background mode: a
// store filled with distinct pages to its first refusal, then three more
// WritePages and a 40-page Apply.
func TestErrFullIsCounted(t *testing.T) {
	for _, bg := range []bool{false, true} {
		opts := testOpts("")
		opts.MaxSegments, opts.BackgroundClean = 16, bg
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		refused := 0
		refuse := func(err error) {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("background %v: write = %v, want ErrFull", bg, err)
			}
			refused++
		}
		id := uint32(0)
		for ; ; id++ {
			if err := s.WritePage(id, page(id, 128)); err != nil {
				refuse(err)
				break
			}
		}
		for i := 0; i < 3; i++ {
			refuse(s.WritePage(id+uint32(i), page(id+uint32(i), 128)))
		}
		b := NewBatch()
		for i := uint32(0); i < 40; i++ {
			b.Write(id+i, page(id+i, 128))
		}
		refuse(s.Apply(b))
		events := 0
		for _, e := range s.Obs().Trace().Events() {
			if e.Kind == obs.EvErrFull.String() {
				events++
			}
		}
		if got := s.Obs().Counter("store.errfull").Value(); got != uint64(refused) || events != refused {
			t.Errorf("background %v: %d writes refused with ErrFull; store.errfull = %d, errfull events = %d", bg, refused, got, events)
		}
		s.Close()
	}
}
