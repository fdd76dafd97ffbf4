package pagedb

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// mkval builds a tear-detectable value: the key (little-endian) followed by
// a run of one version byte. A reader observing a value whose key bytes
// mismatch or whose version run is not uniform has seen a torn write.
func mkval(k uint64, version byte) []byte {
	v := make([]byte, 24)
	binary.LittleEndian.PutUint64(v, k)
	for i := 8; i < len(v); i++ {
		v[i] = version
	}
	return v
}

func checkVal(k uint64, v []byte) error {
	if len(v) != 24 {
		return fmt.Errorf("key %d: value length %d", k, len(v))
	}
	if got := binary.LittleEndian.Uint64(v); got != k {
		return fmt.Errorf("key %d: value stamped for key %d", k, got)
	}
	for i := 9; i < len(v); i++ {
		if v[i] != v[8] {
			return fmt.Errorf("key %d: torn value %x", k, v)
		}
	}
	return nil
}

// TestConcurrentReadersWithCommittingWriter runs Get/GetInto/Scan readers
// against a writer that overwrites every key and commits, under the
// RWMutex read path: values must never be torn, and when the writer stops
// the tree must be structurally intact with zero leaked pins. Run with
// -race to check the sharded pool / node cache synchronization.
func TestConcurrentReadersWithCommittingWriter(t *testing.T) {
	opts := memOpts()
	opts.CachePages = 64 // small enough that readers evict constantly
	opts.CacheShards = 4
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("hammer")
	if err != nil {
		t.Fatal(err)
	}
	// Enough pages, well over the pool's 64, that readers fault and evict
	// constantly.
	const nkeys = 1600
	for k := uint64(0); k < nkeys; k++ {
		if err := tr.Put(k, mkval(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var fmu sync.Mutex
	var firstErr error // first reader error
	fail := func(err error) {
		fmu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		fmu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed))
			var buf []byte
			for {
				select {
				case <-done:
					return
				default:
				}
				k := rng.Uint64N(nkeys)
				var v []byte
				var ok bool
				var err error
				if seed%2 == 0 {
					buf, ok, err = tr.GetInto(k, buf)
					v = buf
				} else {
					v, ok, err = tr.Get(k)
				}
				if err != nil {
					fail(fmt.Errorf("Get(%d): %w", k, err))
					return
				}
				if !ok {
					fail(fmt.Errorf("Get(%d): key missing", k))
					return
				}
				if err := checkVal(k, v); err != nil {
					fail(err)
					return
				}
			}
		}(uint64(g + 1))
	}
	wg.Add(1)
	go func() { // range reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			prev := ^uint64(0)
			err := tr.Scan(0, nkeys-1, func(k uint64, v []byte) bool {
				if prev != ^uint64(0) && k <= prev {
					fail(fmt.Errorf("scan out of order: %d after %d", k, prev))
					return false
				}
				prev = k
				if err := checkVal(k, v); err != nil {
					fail(err)
					return false
				}
				return true
			})
			if err != nil {
				fail(fmt.Errorf("Scan: %w", err))
				return
			}
		}
	}()

	for version := byte(1); version <= 8; version++ {
		for k := uint64(0); k < nkeys; k++ {
			if err := tr.Put(k, mkval(k, version)); err != nil {
				t.Fatalf("Put(%d, v%d): %v", k, version, err)
			}
		}
		if err := db.Commit(); err != nil {
			t.Fatalf("Commit v%d: %v", version, err)
		}
	}
	close(done)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after hammer: %v", err)
	}
	if got := db.pool.Pinned(); got != 0 {
		t.Fatalf("pool holds %d pins after all operations returned", got)
	}
	if db.Stats().Faults == 0 {
		t.Fatal("hammer never faulted: cache too large to exercise eviction")
	}
}
