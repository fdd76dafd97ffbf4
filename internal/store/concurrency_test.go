package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func backgroundOpts(dir string) Options {
	o := testOpts(dir)
	o.BackgroundClean = true
	return o
}

// stamp fills a page with repeated (id, version) words so a reader can
// detect torn or misdirected reads no matter which version it observes.
func stamp(buf []byte, id uint32, version uint32) {
	for off := 0; off+8 <= len(buf); off += 8 {
		binary.LittleEndian.PutUint32(buf[off:], id)
		binary.LittleEndian.PutUint32(buf[off+4:], version)
	}
}

// checkStamp verifies buf is one intact stamped version of page id.
func checkStamp(buf []byte, id uint32) error {
	wantID := binary.LittleEndian.Uint32(buf[0:])
	wantVer := binary.LittleEndian.Uint32(buf[4:])
	if wantID != id {
		return fmt.Errorf("page %d holds page %d's data", id, wantID)
	}
	for off := 8; off+8 <= len(buf); off += 8 {
		if binary.LittleEndian.Uint32(buf[off:]) != wantID ||
			binary.LittleEndian.Uint32(buf[off+4:]) != wantVer {
			return fmt.Errorf("page %d torn: (%d,%d) then (%d,%d) at %d",
				id, wantID, wantVer,
				binary.LittleEndian.Uint32(buf[off:]), binary.LittleEndian.Uint32(buf[off+4:]), off)
		}
	}
	return nil
}

// TestConcurrentSyncPoints overlaps every kind of sync point on one durable
// store: writers whose seals fsync under the lock (DurSeal) or whose commits
// share group rounds (DurCommit), the background cleaner's lock-free sync
// point, and a goroutine calling Sync throughout. Each writer owns its pages,
// so the oracle is exact; at quiesce one more Sync leaves the ledger empty,
// and a crash image reopens to every page's last acknowledged version. Run
// under -race this is the locking proof of the ledger's claim and retire.
func TestConcurrentSyncPoints(t *testing.T) {
	for _, dur := range []core.Durability{core.DurSeal, core.DurCommit} {
		t.Run(dur.String(), func(t *testing.T) {
			opts := backgroundOpts(t.TempDir())
			opts.Durability = dur
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			const writers, perWriter, opsPerWriter = 3, 100, 500
			version := make([]uint32, writers*perWriter)
			var wwg, swg sync.WaitGroup
			done := make(chan struct{})
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func() {
					defer wwg.Done()
					r := rand.New(rand.NewPCG(uint64(w), 24))
					buf := make([]byte, 128)
					for i := 0; i < opsPerWriter; i++ {
						id := uint32(w*perWriter + r.IntN(perWriter/(1+3*r.IntN(2))))
						stamp(buf, id, version[id]+1)
						if err := s.WritePage(id, buf); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
						version[id]++
					}
				}()
			}
			swg.Add(1)
			go func() {
				defer swg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if err := s.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
				}
			}()
			wwg.Wait()
			close(done)
			swg.Wait()
			s.stopCleaner()
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Cleaner.Cycles == 0 || len(s.unsynced) != 0 {
				t.Errorf("%d cleaner cycles; after a last Sync the ledger still holds %v", st.Cleaner.Cycles, s.unsynced)
			}
			checkInvariants(t, s)
			if err := s.crash(); err != nil {
				t.Fatal(err)
			}
			s, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			buf := make([]byte, 128)
			for id, v := range version {
				if v == 0 {
					continue // never written
				}
				if err := s.ReadPage(uint32(id), buf); err != nil {
					t.Fatalf("page %d: %v", id, err)
				}
				if err := checkStampAtLeast(buf, uint32(id), v); err != nil {
					t.Fatal(err)
				}
			}
			checkInvariants(t, s)
		})
	}
}

// TestConcurrentBackgroundCleaning races parallel writers and readers
// against the background cleaner and verifies no page is ever lost, torn,
// or misdirected. Run under -race this also proves the locking scheme.
func TestConcurrentBackgroundCleaning(t *testing.T) {
	s, err := Open(backgroundOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const keys = 300 // of 1024 slots: plenty of churn garbage
	buf := make([]byte, 128)
	for id := uint32(0); id < keys; id++ {
		stamp(buf, id, 0)
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}

	const writers, readers, opsPerWriter = 4, 3, 4000
	errCh := make(chan error, writers+readers)
	var wwg, rwg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 99))
			buf := make([]byte, 128)
			for i := 1; i <= opsPerWriter; i++ {
				var id uint32
				if r.Float64() < 0.9 {
					id = uint32(r.IntN(keys / 10)) // hot 10%
				} else {
					id = uint32(keys/10 + r.IntN(keys*9/10))
				}
				stamp(buf, id, uint32(i))
				if err := s.WritePage(id, buf); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 7))
			buf := make([]byte, 128)
			for {
				select {
				case <-done:
					return
				default:
				}
				id := uint32(r.IntN(keys))
				if err := s.ReadPage(id, buf); err != nil {
					errCh <- err
					return
				}
				if err := checkStamp(buf, id); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}

	wwg.Wait()
	close(done) // writers finished: let readers exit
	rwg.Wait()

	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	st := s.Stats()
	if !st.Background {
		t.Error("Stats.Background = false with BackgroundClean on")
	}
	if st.Cleaner.Cycles == 0 || st.Cleaner.SegmentsReclaimed == 0 {
		t.Errorf("background cleaner never ran: %+v", st.Cleaner)
	}
	if st.LivePages != keys {
		t.Errorf("LivePages = %d, want %d", st.LivePages, keys)
	}
	for id := uint32(0); id < keys; id++ {
		if err := s.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage(%d) after churn: %v", id, err)
		}
		if err := checkStamp(buf, id); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, s) // valid mid-cycle too: it holds the engine lock
}

// TestConcurrentDeletesWithBackgroundCleaner mixes deletes and rewrites so
// tombstone relocation races the cleaner too.
func TestConcurrentDeletesWithBackgroundCleaner(t *testing.T) {
	s, err := Open(backgroundOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const stable, churn = 100, 100 // churn ids get deleted and resurrected
	buf := make([]byte, 128)
	for id := uint32(0); id < stable+churn; id++ {
		stamp(buf, id, 0)
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 3))
			buf := make([]byte, 128)
			for i := 1; i <= 3000; i++ {
				id := uint32(stable + r.IntN(churn))
				if r.Float64() < 0.3 {
					if err := s.DeletePage(id); err != nil && !errors.Is(err, ErrNotFound) {
						errCh <- err
						return
					}
				} else {
					stamp(buf, id, uint32(i))
					if err := s.WritePage(id, buf); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // steady writer on the stable range
		defer wg.Done()
		r := rand.New(rand.NewPCG(5, 6))
		buf := make([]byte, 128)
		for i := 1; i <= 6000; i++ {
			id := uint32(r.IntN(stable))
			stamp(buf, id, uint32(i))
			if err := s.WritePage(id, buf); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// The stable range must be fully intact.
	for id := uint32(0); id < stable; id++ {
		if err := s.ReadPage(id, buf); err != nil {
			t.Fatalf("stable page %d: %v", id, err)
		}
		if err := checkStamp(buf, id); err != nil {
			t.Fatal(err)
		}
	}
	// Churn ids are either present and intact or cleanly absent.
	for id := uint32(stable); id < stable+churn; id++ {
		err := s.ReadPage(id, buf)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			t.Fatalf("churn page %d: %v", id, err)
		}
		if err := checkStamp(buf, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackgroundCleanerRecoversPool checks the watermark loop: after a
// write burst stops, the cleaner alone must lift the free pool back to the
// high watermark.
func TestBackgroundCleanerRecoversPool(t *testing.T) {
	opts := backgroundOpts("")
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 128)
	r := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 10000; i++ {
		id := uint32(r.IntN(300))
		stamp(buf, id, uint32(i))
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().FreeSegments < opts.FreeLowWater {
		if time.Now().After(deadline) {
			t.Fatalf("free pool stuck at %d (< low water %d) after writes stopped",
				s.Stats().FreeSegments, opts.FreeLowWater)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBackgroundCapacityExhaustion: when live data genuinely exceeds
// capacity, background mode must surface ErrFull rather than hang writers.
func TestBackgroundCapacityExhaustion(t *testing.T) {
	opts := backgroundOpts("")
	opts.MaxSegments = 16
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 128)
	var sawFull bool
	for id := uint32(0); id < 16*16+10; id++ {
		stamp(buf, id, 1)
		if err := s.WritePage(id, buf); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Error("background store never reported ErrFull with all-live data beyond capacity")
	}
}

// TestCrashMidCleanLeavesIntactCopies drives the cleaner state machine to
// the most dangerous crash point — victims relocated but NOT yet released —
// and proves recovery still sees every live page: the relocated copies and
// the victim originals are both on disk, and recovery picks the highest
// sequence number.
func TestCrashMidCleanLeavesIntactCopies(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(21, 22))
	want := map[uint32]uint32{}
	buf := make([]byte, 128)
	for i := 1; i <= 6000; i++ {
		id := uint32(r.IntN(200))
		stamp(buf, id, uint32(i))
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		want[id] = uint32(i)
	}

	ct := newCleaner(s)
	victims := ct.selectVictims(4)
	if len(victims) == 0 {
		t.Fatal("no victims selectable after churn")
	}
	if _, err := ct.relocate(); err != nil {
		t.Fatalf("relocate: %v", err)
	}
	// Crash BEFORE release: the victims were never reused, so both copies
	// of every relocated page are on disk.
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatalf("reopen mid-clean: %v", err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	for id, ver := range want {
		if err := s2.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage(%d) after mid-clean crash: %v", id, err)
		}
		if got := binary.LittleEndian.Uint32(buf[4:]); got != ver {
			t.Fatalf("page %d recovered version %d, want %d", id, got, ver)
		}
		if err := checkStamp(buf, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashAfterReleaseBeforeReuse crashes right after victims return to
// the free pool: their files still hold stale records, which recovery must
// ignore in favor of the relocated (higher-sequence) copies.
func TestCrashAfterReleaseBeforeReuse(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(31, 32))
	want := map[uint32]uint32{}
	buf := make([]byte, 128)
	for i := 1; i <= 6000; i++ {
		id := uint32(r.IntN(200))
		stamp(buf, id, uint32(i))
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		want[id] = uint32(i)
	}
	ct := newCleaner(s)
	victims := ct.selectVictims(4)
	if len(victims) == 0 {
		t.Fatal("no victims selectable")
	}
	if _, err := ct.relocate(); err != nil {
		t.Fatal(err)
	}
	ct.release(victims)
	if err := s.crash(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatalf("reopen post-release: %v", err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	for id, ver := range want {
		if err := s2.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage(%d) after post-release crash: %v", id, err)
		}
		if got := binary.LittleEndian.Uint32(buf[4:]); got != ver {
			t.Fatalf("page %d recovered version %d, want %d", id, got, ver)
		}
	}
}

// TestBackgroundRecoveryRoundTrip closes a background-cleaned store and
// recovers it, in both modes.
func TestBackgroundRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(backgroundOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(41, 42))
	want := map[uint32]uint32{}
	buf := make([]byte, 128)
	for i := 1; i <= 8000; i++ {
		id := uint32(r.IntN(250))
		stamp(buf, id, uint32(i))
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		want[id] = uint32(i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Recover with foreground cleaning: modes must be interchangeable.
	s2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s2)
	defer s2.Close()
	for id, ver := range want {
		if err := s2.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage(%d): %v", id, err)
		}
		if got := binary.LittleEndian.Uint32(buf[4:]); got != ver {
			t.Fatalf("page %d version %d, want %d", id, got, ver)
		}
	}
}
