package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// crashBackend models a power cut under the backend it wraps. It keeps each
// segment's bytes as of its last successful sync — what the segment held when
// that fsync began — and notes a reset that came after it. image writes the
// cut: a segment reset since its last sync is an empty file (the truncate
// reached storage, the writes after it did not), any other holds what its last
// sync covered, and a segment never synced has no file.
type crashBackend struct {
	backend
	mu         sync.Mutex
	synced     map[int][]byte
	resetAfter map[int]bool
}

// cutPower installs a crashBackend under s. What the segments hold now is its
// baseline, as if just synced: install it on a fresh store, or after a Close
// or a reopen.
func cutPower(t *testing.T, s *Store) *crashBackend {
	t.Helper()
	c := &crashBackend{backend: s.be, synced: map[int][]byte{}, resetAfter: map[int]bool{}}
	for seg := 0; seg < s.opts.MaxSegments; seg++ {
		b, err := c.contents(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > 0 {
			c.synced[seg] = b
		}
	}
	s.be = c
	return c
}

func (c *crashBackend) contents(seg int) ([]byte, error) {
	n, err := c.backend.size(seg)
	if err != nil || n == 0 {
		return nil, err
	}
	b := make([]byte, n)
	return b, c.backend.read(seg, 0, b)
}

func (c *crashBackend) sync(seg int) error {
	b, err := c.contents(seg)
	if err != nil {
		return err
	}
	if err := c.backend.sync(seg); err != nil {
		return err
	}
	c.mu.Lock()
	c.synced[seg], c.resetAfter[seg] = b, false
	c.mu.Unlock()
	return nil
}

func (c *crashBackend) reset(seg int) error {
	c.mu.Lock()
	c.resetAfter[seg] = true
	c.mu.Unlock()
	return c.backend.reset(seg)
}

// image writes the power cut's segment files into dir.
func (c *crashBackend) image(t *testing.T, dir string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	write := func(seg int, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%06d.seg", seg)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for seg, b := range c.synced {
		if !c.resetAfter[seg] {
			write(seg, b)
		}
	}
	for seg, r := range c.resetAfter {
		if r {
			write(seg, nil)
		}
	}
}

// syncHook asks hook before each fsync it passes on, and returns its error
// instead if it has one: under a crashBackend, a hook that blocks holds the
// fsync before the cut can count it.
type syncHook struct {
	backend
	hook func(seg int) error
}

func (h syncHook) sync(seg int) error {
	if err := h.hook(seg); err != nil {
		return err
	}
	return h.backend.sync(seg)
}

// quickSeeds is the seed count of a sweep: STORE_QUICK_SEEDS if set, else def.
func quickSeeds(t *testing.T, def int) int {
	v := os.Getenv("STORE_QUICK_SEEDS")
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("STORE_QUICK_SEEDS=%q: want a positive seed count", v)
	}
	return n
}

// TestPowerCutKeepsEveryDurablePage: a power cut loses what no fsync covered
// and nothing else. A store of 384 pages is synced, then overwritten 384 to
// 2,688 times at random with a cleaning cycle every 97 writes, and the power is
// cut (crashBackend). Under DurSeal no page may be missing or older than its
// version at the Sync: a victim released while a user record superseding one
// of its records awaits its seal's fsync keeps its bytes until then. Under
// DurCommit no page may be behind its acknowledged version. The foreground
// cases run the pinned seeds, each of which lost a page under DurSeal before
// a released victim waited on the user records; STORE_QUICK_SEEDS=n also runs
// seeds 1..n, and the background-cleaner cases, which run only then. The
// seal-held case cuts while a seal's fsync is held (powerCutHeldRun).
func TestPowerCutKeepsEveryDurablePage(t *testing.T) {
	var sweep []uint64
	for seed := uint64(1); seed <= uint64(quickSeeds(t, 0)); seed++ {
		sweep = append(sweep, seed)
	}
	for _, c := range []struct {
		name       string
		dur        core.Durability
		background bool
	}{{"seal", core.DurSeal, false}, {"commit", core.DurCommit, false},
		{"seal-background", core.DurSeal, true}, {"commit-background", core.DurCommit, true}} {
		t.Run(c.name, func(t *testing.T) {
			var seeds []uint64
			if !c.background {
				seeds = []uint64{13, 51, 108, 112, 120}
			}
			for _, seed := range append(seeds, sweep...) {
				powerCutRun(t, seed, c.dur, c.background)
			}
		})
	}
	t.Run("seal-held", func(t *testing.T) {
		for _, seed := range append([]uint64{13, 51, 108, 112, 120}, sweep...) {
			powerCutHeldRun(t, seed)
		}
	})
}

// powerCutHeldRun cuts the power in a DurSeal run while a seal's fsync is
// held on the syncer, and again once the next seal has returned. No page may
// be missing or older than at the last Sync; the first image may lack the
// held segment's records and the open segment's, the second keeps the held
// segment's: each page's version there is a floor too.
func powerCutHeldRun(t *testing.T, seed uint64) {
	const pages, pageSize = 384, 256
	opts := Options{Dir: t.TempDir(), PageSize: pageSize, SegmentPages: 16, MaxSegments: 40, CleanBatch: 3, FreeLowWater: 5,
		Durability: core.DurSeal, Algorithm: core.Greedy()}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var holding atomic.Bool
	held, release := make(chan int32, 1), make(chan struct{})
	s.be = syncHook{s.be, func(seg int) error {
		if holding.Load() && int32(seg) == s.sealing { // a seal's fsync, not a sync point's
			holding.Store(false)
			held <- int32(seg)
			<-release
		}
		return nil
	}}
	cb := cutPower(t, s)
	r := rand.New(rand.NewPCG(seed, seed^0x51ed))
	version, buf := make([]uint32, pages), make([]byte, pageSize)
	verAt := map[uint64]uint32{} // the version each user record's seq wrote
	write := func(id uint32) {
		stamp(buf, id, version[id])
		if err := s.WritePage(id, buf); err != nil {
			t.Fatalf("seed %d: write page %d: %v", seed, id, err)
		}
		verAt[s.seq] = version[id] // nothing appends after a write's own record
	}
	churn := func(n int) {
		for op := range n {
			id := uint32(r.IntN(pages))
			version[id]++
			write(id)
			if op%97 == 96 {
				if _, err := s.CleanOnce(); err != nil {
					t.Fatalf("seed %d: clean: %v", seed, err)
				}
			}
		}
	}
	for id := range uint32(pages) {
		write(id)
	}
	churn(r.IntN(3 * pages))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	floor := slices.Clone(version)
	churn(r.IntN(3 * pages))
	checkInvariants(t, s) // settles: the fsync held is the next seal's
	holding.Store(true)
	for s.sealing < 0 { // write on until a seal hands its fsync over
		id := uint32(r.IntN(pages))
		version[id]++
		write(id)
	}
	h := <-held
	whileHeld := t.TempDir()
	cb.image(t, whileHeld)
	after := slices.Clone(floor)
	for i, seq := range s.recSeqs(t, h) {
		page := s.recs[h][i].page
		after[page] = max(after[page], verAt[seq])
	}
	close(release)
	for s.sealing == h || s.sealing < 0 { // write on until the next seal returns
		id := uint32(r.IntN(pages))
		version[id]++
		write(id)
	}
	nextSeal := t.TempDir()
	cb.image(t, nextSeal)
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []struct {
		name, dir string
		floor     []uint32
	}{{"while the seal fsync is held", whileHeld, floor}, {"after the next seal", nextSeal, after}} {
		opts.Dir = cut.dir
		c, err := Open(opts)
		if err != nil {
			t.Fatalf("seed %d: reopen after a power cut %s: %v", seed, cut.name, err)
		}
		for id := range uint32(pages) {
			err := c.ReadPage(id, buf)
			if err == nil {
				err = checkStamp(buf, id)
			}
			if got := binary.LittleEndian.Uint32(buf[4:]); err != nil || got < cut.floor[id] || got > version[id] {
				t.Errorf("seed %d: page %d after a power cut %s: version %d, %v; want %d to %d", seed, id, cut.name, got, err, cut.floor[id], version[id])
			}
		}
		checkInvariants(t, c)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func powerCutRun(t *testing.T, seed uint64, dur core.Durability, background bool) {
	const pages, pageSize = 384, 256
	opts := Options{Dir: t.TempDir(), PageSize: pageSize, SegmentPages: 16, MaxSegments: 40, CleanBatch: 3, FreeLowWater: 5,
		Durability: dur, Algorithm: core.Greedy(), BackgroundClean: background}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cb := cutPower(t, s)
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	version, buf := make([]uint32, pages), make([]byte, pageSize)
	write := func(id uint32) {
		stamp(buf, id, version[id])
		if err := s.WritePage(id, buf); err != nil {
			t.Fatalf("seed %d: write page %d: %v", seed, id, err)
		}
	}
	for id := range uint32(pages) {
		write(id)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for op := range pages + r.IntN(6*pages+1) {
		id := uint32(r.IntN(pages))
		version[id]++
		write(id)
		if op%97 == 96 {
			if _, err := s.CleanOnce(); err != nil {
				t.Fatalf("seed %d: clean: %v", seed, err)
			}
		}
	}
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	opts.Dir, opts.BackgroundClean = t.TempDir(), false
	cb.image(t, opts.Dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("seed %d: reopen after the power cut: %v", seed, err)
	}
	defer c.Close()
	for id := range uint32(pages) {
		err := c.ReadPage(id, buf)
		if err == nil {
			err = checkStamp(buf, id)
		}
		got := binary.LittleEndian.Uint32(buf[4:])
		switch {
		case err != nil:
			t.Errorf("seed %d: page %d (durable at version 0, written up to %d) after the power cut: %v", seed, id, version[id], err)
		case got > version[id] || dur == core.DurCommit && got != version[id]:
			t.Errorf("seed %d: page %d holds version %d after the power cut, acknowledged %d", seed, id, got, version[id])
		}
	}
	checkInvariants(t, c)
}

// TestDeletionsOutliveEveryReopen: a tombstone is relocated like any live
// record until its page is rewritten, so no deletion needs remembering outside
// the log. A fifth of a store's pages, each written several times, are deleted;
// no deleted page comes back, and the tombstone count holds, after a clean
// Close and reopen, after cleaning cycles that move the tombstones, after a
// kill and reopen, and after a power cut and reopen.
func TestDeletionsOutliveEveryReopen(t *testing.T) {
	const pages = 200
	opts := Options{Dir: t.TempDir(), PageSize: 64, SegmentPages: 8, MaxSegments: 48, CleanBatch: 4, FreeLowWater: 6, Durability: core.DurSeal}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(5, 51))
	buf := make([]byte, 64)
	deleted := func(id uint32) bool { return id%5 == 0 }
	churn := func(n int) {
		for range n {
			if id := uint32(r.IntN(pages)); !deleted(id) {
				if err := s.WritePage(id, page(id, 64)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for id := range uint32(pages) {
		if err := s.WritePage(id, page(id, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		for id := range uint32(pages) {
			if err := s.WritePage(id, page(id, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := uint32(0); id < pages; id += 5 {
		if err := s.DeletePage(id); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		for id := range uint32(pages) {
			if err := s.ReadPage(id, buf); deleted(id) != errors.Is(err, ErrNotFound) || !deleted(id) && err != nil {
				t.Fatalf("%s: page %d (deleted: %v) reads %v", when, id, deleted(id), err)
			}
		}
		if n := s.Stats().Tombstones; n != pages/5 {
			t.Fatalf("%s: %d tombstones, want %d", when, n, pages/5)
		}
		checkInvariants(t, s)
	}
	reopen := func() {
		t.Helper()
		if s, err = Open(opts); err != nil {
			t.Fatal(err)
		}
	}
	check("before Close")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopen()
	check("after Close and reopen")
	before := maps.Clone(s.tombstones)
	for range 60 {
		churn(40)
		if _, err := s.CleanOnce(); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for id, loc := range s.tombstones {
		if loc != before[id] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("cleaning moved no tombstone: the geometry is miscalibrated")
	}
	check("after cleaning")
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	reopen()
	check("after a kill")
	cb := cutPower(t, s)
	for range 20 {
		churn(40)
		if _, err := s.CleanOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}
	opts.Dir = t.TempDir()
	cb.image(t, opts.Dir)
	reopen()
	defer s.Close()
	check("after a power cut")
}
