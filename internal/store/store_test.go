package store

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func testOpts(dir string) Options {
	return Options{
		Dir:          dir,
		PageSize:     128,
		SegmentPages: 16,
		MaxSegments:  64,
		CleanBatch:   4,
		FreeLowWater: 8,
	}
}

// checkInvariants fails the test if the store's index, slots and segment
// accounting disagree; the crash tests call it on every recovered store.
func checkInvariants(t *testing.T, s *Store) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func page(id uint32, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(id + uint32(i))
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "memory"
		if dir != "" {
			name = "file"
		}
		t.Run(name, func(t *testing.T) {
			s, err := Open(testOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for id := uint32(0); id < 100; id++ {
				if err := s.WritePage(id, page(id, 128)); err != nil {
					t.Fatalf("WritePage(%d): %v", id, err)
				}
			}
			buf := make([]byte, 128)
			for id := uint32(0); id < 100; id++ {
				if err := s.ReadPage(id, buf); err != nil {
					t.Fatalf("ReadPage(%d): %v", id, err)
				}
				if !bytes.Equal(buf, page(id, 128)) {
					t.Fatalf("page %d content mismatch", id)
				}
			}
			if err := s.ReadPage(1000, buf); !errors.Is(err, ErrNotFound) {
				t.Errorf("missing page error = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestOverwriteAndCleaning(t *testing.T) {
	s, err := Open(testOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// 300 live pages in a 64*16=1024-slot store, overwritten many times:
	// cleaning must kick in and reclaim.
	const live = 300
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		id := uint32(r.IntN(live))
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.LivePages != live {
		t.Errorf("LivePages = %d, want %d", st.LivePages, live)
	}
	if st.SegmentsCleaned == 0 || st.GCWrites == 0 {
		t.Errorf("cleaning never ran: %+v", st)
	}
	if st.WriteAmp <= 0 {
		t.Errorf("WriteAmp = %v", st.WriteAmp)
	}
	buf := make([]byte, 128)
	for id := uint32(0); id < live; id++ {
		if err := s.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage(%d) after churn: %v", id, err)
		}
		if !bytes.Equal(buf, page(id, 128)) {
			t.Fatalf("page %d corrupted after cleaning", id)
		}
	}
}

func TestCapacityExhaustion(t *testing.T) {
	opts := testOpts("")
	opts.MaxSegments = 16
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var sawFull bool
	for id := uint32(0); id < 16*16+10; id++ {
		if err := s.WritePage(id, page(id, 128)); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Error("store never reported ErrFull with all-live data beyond capacity")
	}
}

// TestFullLogDrains: a foreground store filled with distinct full-length
// pages to ErrFull — no open segment has room for even a tombstone, and no
// cleaning cycle can free anything — still takes a single delete, a
// delete-only batch and then a write, because a deletion frees at least the
// tombstone it writes and so may draw on the cleaning reserve. In memory and
// on disk under DurSeal, where the drained store also reopens to the oracle.
func TestFullLogDrains(t *testing.T) {
	for _, geo := range []struct{ page, segPages int }{{64, 16}, {512, 64}, {4096, 32}} {
		for _, dir := range []string{"", t.TempDir()} {
			o := Options{Dir: dir, PageSize: geo.page, SegmentPages: geo.segPages, MaxSegments: 16,
				CleanBatch: 4, FreeLowWater: 8, Durability: core.DurSeal}
			s, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[uint32]bool{}
			id := uint32(0)
			for ; ; id++ {
				if err := s.WritePage(id, page(id, geo.page)); errors.Is(err, ErrFull) {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				oracle[id] = true
			}
			if err := s.DeletePage(0); err != nil {
				t.Fatalf("%d-byte pages, dir %q: single delete at capacity: %v", geo.page, dir, err)
			}
			b := NewBatch()
			for d := uint32(0); d < id/2; d++ {
				if delete(oracle, d); d > 0 {
					b.Delete(d)
				}
			}
			if err := s.Apply(b); err != nil {
				t.Fatalf("%d-byte pages, dir %q: delete batch at capacity: %v", geo.page, dir, err)
			}
			if err := s.WritePage(id, page(id, geo.page)); err != nil {
				t.Fatalf("%d-byte pages, dir %q: write after draining: %v", geo.page, dir, err)
			}
			oracle[id] = true
			checkInvariants(t, s)
			if dir != "" {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = Open(o); err != nil {
					t.Fatal(err)
				}
				checkInvariants(t, s)
			}
			buf := make([]byte, geo.page)
			for p := uint32(0); p <= id; p++ {
				err := s.ReadPage(p, buf)
				if live := oracle[p]; live && (err != nil || !bytes.Equal(buf, page(p, geo.page))) || !live && !errors.Is(err, ErrNotFound) {
					t.Fatalf("%d-byte pages, dir %q: page %d (live %v) reads %v", geo.page, dir, p, live, err)
				}
			}
			s.Close()
		}
	}
}

func TestDeleteAndTombstones(t *testing.T) {
	s, err := Open(testOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := uint32(0); id < 50; id++ {
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeletePage(7); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := s.ReadPage(7, buf); !errors.Is(err, ErrNotFound) {
		t.Errorf("read of deleted page = %v", err)
	}
	if err := s.DeletePage(7); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
	// Rewrite resurrects.
	if err := s.WritePage(7, page(70, 128)); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPage(7, buf); err != nil || !bytes.Equal(buf, page(70, 128)) {
		t.Errorf("resurrected page wrong: %v", err)
	}
	if s.Stats().Tombstones != 0 {
		t.Errorf("tombstones = %d after resurrection", s.Stats().Tombstones)
	}
}

func TestRecoveryAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(3, 4))
	want := map[uint32][]byte{}
	for i := 0; i < 5000; i++ {
		id := uint32(r.IntN(200))
		v := page(id+uint32(i), 128)
		if err := s.WritePage(id, v); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	s.DeletePage(3)
	delete(want, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	buf := make([]byte, 128)
	for id, v := range want {
		if err := s2.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage(%d) after recovery: %v", id, err)
		}
		if !bytes.Equal(buf, v) {
			t.Fatalf("page %d content lost in recovery", id)
		}
	}
	if err := s2.ReadPage(3, buf); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted page resurrected by recovery: %v", err)
	}
	if got := s2.Stats().LivePages; got != len(want) {
		t.Errorf("recovered %d live pages, want %d", got, len(want))
	}
}

func TestRecoveryWithoutCloseNoCheckpoint(t *testing.T) {
	// Simulated crash: never call Close, reopen from segment files alone.
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(5, 6))
	want := map[uint32][]byte{}
	for i := 0; i < 8000; i++ {
		id := uint32(r.IntN(250))
		v := page(id*3+uint32(i), 128)
		if err := s.WritePage(id, v); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	// Crash: drop handles without sealing or fsyncing.
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatalf("crash reopen: %v", err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	buf := make([]byte, 128)
	for id, v := range want {
		if err := s2.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage(%d) after crash: %v", id, err)
		}
		if !bytes.Equal(buf, v) {
			t.Fatalf("page %d holds stale version after crash recovery", id)
		}
	}
	// Recovered store keeps working, including cleaning.
	for i := 0; i < 8000; i++ {
		id := uint32(r.IntN(250))
		if err := s2.WritePage(id, page(id, 128)); err != nil {
			t.Fatalf("write after recovery: %v", err)
		}
	}
}

func TestTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0); id < 40; id++ {
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Corrupt the tail of the highest-numbered non-empty segment file by
	// flipping bytes in its last record.
	var victim string
	var maxSize int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		info, _ := e.Info()
		if info.Size() > maxSize {
			maxSize = info.Size()
			victim = filepath.Join(dir, e.Name())
		}
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) - 20; i < len(data); i++ {
		data[i] ^= 0xA5
	}
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	// At most the pages whose latest version sat in the torn record are
	// lost; everything else must read back intact.
	buf := make([]byte, 128)
	intact := 0
	for id := uint32(0); id < 40; id++ {
		if err := s2.ReadPage(id, buf); err == nil {
			if !bytes.Equal(buf, page(id, 128)) {
				t.Fatalf("page %d silently corrupted", id)
			}
			intact++
		}
	}
	if intact < 38 {
		t.Errorf("only %d/40 pages intact after single torn record", intact)
	}
}

func TestTombstoneSurvivesCleaningBeforeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Write page 5, delete it, then churn other pages so the tombstone's
	// segment (and the original record's segment) get cleaned.
	if err := s.WritePage(5, page(5, 128)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeletePage(5); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 12000; i++ {
		id := uint32(100 + r.IntN(200))
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without Close.
	s2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	buf := make([]byte, 128)
	if err := s2.ReadPage(5, buf); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted page 5 resurrected: %v (tombstone lost during cleaning)", err)
	}
}

func TestStatsAndFillFactor(t *testing.T) {
	s, err := Open(testOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := uint32(0); id < 512; id++ {
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.LivePages != 512 {
		t.Errorf("LivePages = %d", st.LivePages)
	}
	if st.CapacityPages != 64*16 {
		t.Errorf("CapacityPages = %d", st.CapacityPages)
	}
	if st.FillFactor < 0.49 || st.FillFactor > 0.51 {
		t.Errorf("FillFactor = %v, want ~0.5", st.FillFactor)
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []Options{
		{PageSize: 4},                                    // page too small
		{PageSize: 1 << 24, SegmentPages: 2},             // page length overflows the record header's field
		{SegmentPages: 1 << 20},                          // 4 GiB segments overflow the 32-bit record offsets
		{CleanBatch: 10, FreeLowWater: 10},               // no relocation headroom
		{Algorithm: core.MDCOpt()},                       // exact needs oracle
		{Algorithm: core.MultiLog()},                     // routed placement is simulator-only
		{Algorithm: core.MultiLogOpt()},                  // likewise
		{MaxSegments: 4, FreeLowWater: 8, CleanBatch: 2}, // capacity below reserve
	}
	for i, o := range cases {
		if _, err := Open(o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

// TestFreeEmergencyValidation: an emergency floor outside [1, FreeLowWater]
// is refused by name before a file is created.
func TestFreeEmergencyValidation(t *testing.T) {
	for _, floor := range []int{20, -3} {
		dir := t.TempDir()
		_, err := Open(Options{Dir: dir, BackgroundClean: true, FreeLowWater: 12, FreeEmergency: floor})
		if err == nil || !strings.Contains(err.Error(), "FreeEmergency") {
			t.Errorf("FreeEmergency %d: Open = %v, want a refusal naming FreeEmergency", floor, err)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("FreeEmergency %d: the refused Open left %d files", floor, len(files))
		}
	}
}

// TestRoutedAlgorithmsOnStore: Open refuses each routed algorithm with an
// error that names it and says routed placement is simulator-only.
func TestRoutedAlgorithmsOnStore(t *testing.T) {
	for _, alg := range []core.Algorithm{core.MultiLogOpt(), core.MultiLog()} {
		t.Run(alg.Name, func(t *testing.T) {
			_, err := Open(Options{Algorithm: alg})
			if err == nil || !strings.Contains(err.Error(), alg.Name) || !strings.Contains(err.Error(), "simulator-only") {
				t.Errorf("Open(%s) = %v, want a refusal naming it", alg.Name, err)
			}
		})
	}
}

func TestWriteValidation(t *testing.T) {
	s, err := Open(testOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WritePage(1, make([]byte, 129)); err == nil {
		t.Error("page over the page size accepted")
	}
	if err := s.WritePage(1, page(1, 128)); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPage(1, make([]byte, 64)); err == nil {
		t.Error("short read buffer accepted")
	}
}

func TestClosedStoreRejects(t *testing.T) {
	s, err := Open(testOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.WritePage(1, page(1, 128)); err == nil {
		t.Error("write after close accepted")
	}
	if err := s.ReadPage(1, make([]byte, 128)); err == nil {
		t.Error("read after close accepted")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestCleanOnce(t *testing.T) {
	s, err := Open(testOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2000; i++ {
		id := uint32(i % 100)
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
	}
	freeBefore := s.Stats().FreeSegments
	n, err := s.CleanOnce()
	if err != nil || n == 0 {
		t.Fatalf("CleanOnce = %d, %v", n, err)
	}
	if got := s.Stats().FreeSegments; got <= freeBefore-n {
		t.Errorf("free segments %d -> %d after cleaning %d", freeBefore, got, n)
	}
}

func TestPolicyComparisonOnStore(t *testing.T) {
	// The store exhibits the paper's headline property end to end: under a
	// skewed update pattern MDC cleans at higher emptiness than greedy.
	run := func(alg core.Algorithm) Stats {
		opts := testOpts("")
		opts.MaxSegments = 128
		opts.Algorithm = alg
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		r := rand.New(rand.NewPCG(11, 13))
		const livePages = 128 * 16 * 8 / 10 // fill factor 0.8
		for id := uint32(0); id < livePages; id++ {
			if err := s.WritePage(id, page(id, 128)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60000; i++ {
			var id uint32
			if r.Float64() < 0.9 {
				id = uint32(r.IntN(livePages / 10)) // hot 10%
			} else {
				id = uint32(livePages/10 + r.IntN(livePages*9/10))
			}
			if err := s.WritePage(id, page(id, 128)); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats()
	}
	mdc := run(core.MDC())
	greedy := run(core.Greedy())
	if !(mdc.WriteAmp < greedy.WriteAmp) {
		t.Errorf("MDC write amp %.3f not below greedy %.3f on skewed store workload",
			mdc.WriteAmp, greedy.WriteAmp)
	}
}

// TestOpenCreatesNoSegmentFiles: Open of an empty directory creates no
// segment file, and neither does a reopen; a segment's file is created when
// the segment is first opened, so after k segments have been opened the
// directory holds exactly k.
func TestOpenCreatesNoSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	files := func() int {
		names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if n := files(); n != 0 {
		t.Fatalf("Open of an empty directory created %d segment files", n)
	}
	for id := uint32(0); id < 100; id++ {
		if err := s.WritePage(id, page(id, 128)); err != nil {
			t.Fatal(err)
		}
		if n, k := files(), int(s.incarnation); n != k {
			t.Fatalf("%d segment files after %d segments were opened", n, k)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	k := files()
	if s, err = Open(testOpts(dir)); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := files(); n != k || k < 6 {
		t.Fatalf("%d segment files after a reopen, %d before", n, k)
	}
}
