package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
)

func testOpts() Options {
	return Options{SegmentBytes: 1 << 12, MaxSegments: 64, CleanBatch: 4, FreeLowWater: 6}
}

func val(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed + i)
	}
	return b
}

func TestPutGetDelete(t *testing.T) {
	s, err := New(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("alpha", val(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("beta", val(2, 200)); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("alpha")
	if !ok || !bytes.Equal(v, val(1, 100)) {
		t.Fatalf("Get(alpha) = %v, %v", len(v), ok)
	}
	// Replace.
	if err := s.Put("alpha", val(9, 50)); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get("alpha")
	if !bytes.Equal(v, val(9, 50)) {
		t.Fatal("replace did not take effect")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Delete("alpha")
	if _, ok := s.Get("alpha"); ok {
		t.Fatal("deleted key still present")
	}
	s.Delete("never-existed") // no-op
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s, _ := New(testOpts())
	s.Put("k", val(3, 32))
	v, _ := s.Get("k")
	v[0] ^= 0xFF
	v2, _ := s.Get("k")
	if v2[0] == v[0] {
		t.Error("Get exposed internal storage")
	}
}

func TestCleaningUnderChurn(t *testing.T) {
	s, err := New(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(5, 5))
	// ~120 KB live in a 256 KB store, heavily overwritten with variable
	// sizes: cleaning must run and nothing may be lost.
	sizes := map[string]int{}
	for i := 0; i < 30000; i++ {
		k := fmt.Sprintf("key-%04d", r.IntN(800))
		n := 32 + r.IntN(256)
		if err := s.Put(k, val(len(k)+n, n)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		sizes[k] = n
	}
	st := s.Stats()
	if st.SegmentsCleaned == 0 || st.GCWrites == 0 {
		t.Fatalf("cleaning never ran: %+v", st)
	}
	for k, n := range sizes {
		v, ok := s.Get(k)
		if !ok || len(v) != n || !bytes.Equal(v, val(len(k)+n, n)) {
			t.Fatalf("key %s lost or corrupted after cleaning", k)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.WriteAmp <= 0 {
		t.Errorf("WriteAmp = %v", st.WriteAmp)
	}
}

func TestCapacity(t *testing.T) {
	opts := testOpts()
	opts.MaxSegments = 10
	opts.FreeLowWater = 3
	opts.CleanBatch = 2
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sawFull bool
	for i := 0; i < 10000; i++ {
		if err := s.Put(fmt.Sprintf("k%06d", i), val(i, 128)); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Error("volatile store accepted more live data than its capacity")
	}
}

func TestTooLarge(t *testing.T) {
	s, _ := New(testOpts())
	if err := s.Put("big", make([]byte, 1<<12)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized record error = %v", err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Options{SegmentBytes: 8}); err == nil {
		t.Error("tiny segments accepted")
	}
	if _, err := New(Options{CleanBatch: 8, FreeLowWater: 8}); err == nil {
		t.Error("no relocation headroom accepted")
	}
	if _, err := New(Options{Algorithm: core.MDCOpt()}); err == nil {
		t.Error("exact algorithm accepted")
	}
	for _, alg := range []core.Algorithm{core.MultiLog(), core.MultiLogOpt()} {
		if _, err := New(Options{Algorithm: alg}); err == nil {
			t.Errorf("routed algorithm %s accepted", alg.Name)
		}
	}
}

// TestClosedStoreReads pins the Close contract: every operation observes
// the closed state, reads included — the write paths always failed after
// Close, but Get/Len/Stats used to keep serving stale data.
func TestClosedStoreReads(t *testing.T) {
	s, err := New(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", val(1, 32)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put("k", val(2, 32)); err == nil {
		t.Error("Put after Close accepted")
	}
	if _, ok := s.Get("k"); ok {
		t.Error("Get after Close returned data")
	}
	if n := s.Len(); n != 0 {
		t.Errorf("Len after Close = %d, want 0", n)
	}
	if st := s.Stats(); st.Keys != 0 || st.UserWrites != 0 {
		t.Errorf("Stats after Close not a zero snapshot: %+v", st)
	}
	s.Delete("k") // must be a no-op, not a panic
	s.Close()     // idempotent
}

// TestRoutedAlgorithmsOnVlog: New refuses each routed algorithm with an
// error that names it and says routed placement is simulator-only.
func TestRoutedAlgorithmsOnVlog(t *testing.T) {
	for _, alg := range []core.Algorithm{core.MultiLogOpt(), core.MultiLog()} {
		t.Run(alg.Name, func(t *testing.T) {
			_, err := New(Options{Algorithm: alg})
			if err == nil || !strings.Contains(err.Error(), alg.Name) || !strings.Contains(err.Error(), "simulator-only") {
				t.Errorf("New(%s) = %v, want a refusal naming it", alg.Name, err)
			}
		})
	}
}

func TestEmptyValueAndEmptyKey(t *testing.T) {
	s, _ := New(testOpts())
	if err := s.Put("", val(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", nil); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("k")
	if !ok || len(v) != 0 {
		t.Errorf("empty value round trip: %v, %v", v, ok)
	}
	if _, ok := s.Get(""); !ok {
		t.Error("empty key lost")
	}
}

func TestSkewBenefitsMDC(t *testing.T) {
	// The variable-size declining-cost priority beats greedy under skewed
	// value updates, mirroring the paper on the value-log substrate.
	run := func(alg core.Algorithm) Stats {
		opts := Options{SegmentBytes: 1 << 12, MaxSegments: 128, CleanBatch: 4, FreeLowWater: 6, Algorithm: alg}
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewPCG(2, 8))
		const keys = 2600 // ~80% fill at 128B average records
		for k := 0; k < keys; k++ {
			if err := s.Put(fmt.Sprintf("k%05d", k), val(k, 64+k%128)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 120000; i++ {
			var k int
			if r.Float64() < 0.9 {
				k = r.IntN(keys / 10)
			} else {
				k = keys/10 + r.IntN(keys*9/10)
			}
			if err := s.Put(fmt.Sprintf("k%05d", k), val(k+i, 64+k%128)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	mdc := run(core.MDC())
	greedy := run(core.Greedy())
	if !(mdc.WriteAmp < greedy.WriteAmp) {
		t.Errorf("MDC byte write-amp %.3f not below greedy %.3f", mdc.WriteAmp, greedy.WriteAmp)
	}
}

func TestStats(t *testing.T) {
	s, _ := New(testOpts())
	s.Put("a", val(1, 100))
	st := s.Stats()
	if st.Keys != 1 || st.LiveBytes == 0 || st.CapacityBytes != 64<<12 {
		t.Errorf("stats wrong: %+v", st)
	}
}
