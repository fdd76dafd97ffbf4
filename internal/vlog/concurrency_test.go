package vlog

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func backgroundOpts() Options {
	return Options{
		SegmentBytes:    4096,
		MaxSegments:     64,
		CleanBatch:      4,
		FreeLowWater:    8,
		BackgroundClean: true,
	}
}

// stampVal builds a self-verifying value: the key hash and version repeated
// so a torn or misdirected read is detectable regardless of which version
// a racing reader observes.
func stampVal(key string, version uint32, n int) []byte {
	h := keyHash(key)
	v := make([]byte, n)
	for off := 0; off+8 <= n; off += 8 {
		binary.LittleEndian.PutUint32(v[off:], h)
		binary.LittleEndian.PutUint32(v[off+4:], version)
	}
	return v
}

func keyHash(key string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

func checkVal(key string, v []byte) error {
	if len(v) < 8 {
		return fmt.Errorf("key %q: value too short (%d)", key, len(v))
	}
	h, ver := binary.LittleEndian.Uint32(v[0:]), binary.LittleEndian.Uint32(v[4:])
	if h != keyHash(key) {
		return fmt.Errorf("key %q holds another key's value", key)
	}
	for off := 8; off+8 <= len(v); off += 8 {
		if binary.LittleEndian.Uint32(v[off:]) != h || binary.LittleEndian.Uint32(v[off+4:]) != ver {
			return fmt.Errorf("key %q: torn value at offset %d", key, off)
		}
	}
	return nil
}

// TestConcurrentBackgroundCleaningVlog races writers, readers and the
// invariant checker against the background cleaner. Run under -race this
// also proves the locking scheme.
func TestConcurrentBackgroundCleaningVlog(t *testing.T) {
	s, err := New(backgroundOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const keys = 400
	key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	for i := 0; i < keys; i++ {
		if err := s.Put(key(i), stampVal(key(i), 0, 64)); err != nil {
			t.Fatal(err)
		}
	}

	const writers, readers, opsPerWriter = 4, 3, 4000
	errCh := make(chan error, writers+readers+1)
	var wwg, rwg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 17))
			for i := 1; i <= opsPerWriter; i++ {
				var k string
				if r.Float64() < 0.9 {
					k = key(r.IntN(keys / 10)) // hot 10%
				} else {
					k = key(keys/10 + r.IntN(keys*9/10))
				}
				size := 32 + r.IntN(96) // variable-size records
				if err := s.Put(k, stampVal(k, uint32(i), size)); err != nil {
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
			r := rand.New(rand.NewPCG(uint64(g), 23))
			for {
				select {
				case <-done:
					return
				default:
				}
				k := key(r.IntN(keys))
				v, ok := s.Get(k)
				if !ok {
					errCh <- fmt.Errorf("key %q lost", k)
					return
				}
				if err := checkVal(k, v); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	// A checker goroutine validates the full engine invariants mid-churn.
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.CheckInvariants(); err != nil {
				errCh <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wwg.Wait()
	close(done)
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
	if st.Keys != keys {
		t.Errorf("Keys = %d, want %d", st.Keys, keys)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		v, ok := s.Get(key(i))
		if !ok {
			t.Fatalf("key %q lost after churn", key(i))
		}
		if err := checkVal(key(i), v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentDeletesVlog mixes deletes with puts so index removal races
// the cleaner's re-check-and-install path.
func TestConcurrentDeletesVlog(t *testing.T) {
	s, err := New(backgroundOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := func(i int) string { return fmt.Sprintf("churn-%03d", i) }
	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 31))
			for i := 1; i <= 4000; i++ {
				k := key(r.IntN(150))
				if r.Float64() < 0.25 {
					s.Delete(k)
				} else if err := s.Put(k, stampVal(k, uint32(i), 32+r.IntN(64))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every surviving key must decode to an intact value.
	for i := 0; i < 150; i++ {
		if v, ok := s.Get(key(i)); ok {
			if err := checkVal(key(i), v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestVlogBackgroundPoolRecovers checks the watermark loop end to end.
func TestVlogBackgroundPoolRecovers(t *testing.T) {
	opts := backgroundOpts()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("k%03d", r.IntN(300))
		if err := s.Put(k, stampVal(k, uint32(i), 64)); err != nil {
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
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
