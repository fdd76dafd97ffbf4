package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestVlogBatchBasic(t *testing.T) {
	s, err := New(Options{SegmentBytes: 256, MaxSegments: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b := NewBatch().
		Put("a", []byte("v1")).
		Put("b", []byte("v1")).
		Put("a", []byte("v2")). // in-batch overwrite: last wins
		Put("c", []byte("v1")).
		Delete("c"). // delete of an in-batch put
		Delete("nonexistent")
	if err := s.Commit(b); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if v, ok := s.Get("a"); !ok || !bytes.Equal(v, []byte("v2")) {
		t.Errorf("a = %q/%v, want v2", v, ok)
	}
	if v, ok := s.Get("b"); !ok || !bytes.Equal(v, []byte("v1")) {
		t.Errorf("b = %q/%v", v, ok)
	}
	if _, ok := s.Get("c"); ok {
		t.Error("c visible after in-batch delete")
	}
	if st := s.Stats(); st.Commits != 1 {
		t.Errorf("Commits = %d, want 1", st.Commits)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Values are copied at Put time.
	val := []byte("original")
	b2 := NewBatch().Put("copy", val)
	copy(val, "XXXXXXXX")
	if err := s.Commit(b2); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("copy"); !bytes.Equal(v, []byte("original")) {
		t.Errorf("copy = %q, batch leaked the caller's buffer", v)
	}

	// Empty and nil batches are no-ops.
	if err := s.Commit(NewBatch()); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := s.Commit(nil); err != nil {
		t.Errorf("nil batch: %v", err)
	}
}

func TestVlogBatchAtomicFailures(t *testing.T) {
	s, err := New(Options{SegmentBytes: 256, MaxSegments: 8, CleanBatch: 2, FreeLowWater: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// An oversized record fails the whole batch before anything applies.
	b := NewBatch().Put("ok", []byte("fine")).Put("huge", make([]byte, 4096))
	if err := s.Commit(b); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized record: err = %v, want ErrTooLarge", err)
	}
	if _, ok := s.Get("ok"); ok {
		t.Error("\"ok\" visible after failed batch")
	}

	// Fill to capacity with distinct keys, then prove a too-big batch is
	// all-or-nothing: overwrites it contains stay invisible too.
	val := make([]byte, 100)
	var filled int
	for {
		if err := s.Put(fmt.Sprintf("key-%06d", filled), val); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("fill: %v", err)
			}
			break
		}
		filled++
	}
	if filled < 4 {
		t.Fatalf("store full after only %d keys", filled)
	}
	before := s.Stats()
	big := NewBatch().Put("key-000000", bytes.Repeat([]byte{9}, 100))
	for i := 0; i < 64; i++ {
		big.Put(fmt.Sprintf("new-%06d", i), val)
	}
	if err := s.Commit(big); !errors.Is(err, ErrFull) {
		t.Fatalf("oversized batch: err = %v, want ErrFull", err)
	}
	if v, ok := s.Get("key-000000"); !ok || !bytes.Equal(v, val) {
		t.Error("overwrite from failed batch leaked")
	}
	for i := 0; i < 64; i++ {
		if _, ok := s.Get(fmt.Sprintf("new-%06d", i)); ok {
			t.Fatalf("new-%06d visible after failed batch", i)
		}
	}
	after := s.Stats()
	if after.UserWrites != before.UserWrites || after.Keys != before.Keys {
		t.Errorf("failed batch moved counters: before %+v after %+v", before, after)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Deletes need no space, so a delete-only batch succeeds even at
	// capacity — and frees room for a subsequent batched put.
	del := NewBatch()
	for i := 0; i < filled/2; i++ {
		del.Delete(fmt.Sprintf("key-%06d", i))
	}
	if err := s.Commit(del); err != nil {
		t.Fatalf("delete batch at capacity: %v", err)
	}
	if err := s.Commit(NewBatch().Put("after", val)); err != nil {
		t.Fatalf("put after space freed: %v", err)
	}
}

func TestVlogBatchConcurrentCommitters(t *testing.T) {
	s, err := New(Options{
		SegmentBytes:    1 << 12,
		MaxSegments:     64,
		BackgroundClean: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers = 4
	const rounds = 50
	const perBatch = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := NewBatch()
			for i := 0; i < rounds; i++ {
				b.Reset()
				for k := 0; k < perBatch; k++ {
					b.Put(fmt.Sprintf("w%d-k%02d", w, k), []byte(fmt.Sprintf("round-%03d", i)))
				}
				if err := s.Commit(b); err != nil {
					t.Errorf("writer %d round %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		for k := 0; k < perBatch; k++ {
			key := fmt.Sprintf("w%d-k%02d", w, k)
			v, ok := s.Get(key)
			if !ok || !bytes.Equal(v, []byte(fmt.Sprintf("round-%03d", rounds-1))) {
				t.Errorf("%s = %q/%v, want last round", key, v, ok)
			}
		}
	}
	if st := s.Stats(); st.Commits != writers*rounds {
		t.Errorf("Commits = %d, want %d", st.Commits, writers*rounds)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVlogClosedMutatorsError(t *testing.T) {
	s, err := New(Options{SegmentBytes: 256, MaxSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("absent"); err != nil {
		t.Errorf("Delete of absent key on live store: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// Use-after-Close is observable on every mutator, not a silent no-op.
	if err := s.Delete("k"); err == nil {
		t.Error("Delete on closed store returned nil")
	}
	if err := s.Put("k", []byte("v2")); err == nil {
		t.Error("Put on closed store returned nil")
	}
	if err := s.Commit(NewBatch().Put("k", []byte("v3"))); err == nil {
		t.Error("Commit on closed store returned nil")
	}
}

func TestVlogStreamOccupancyStats(t *testing.T) {
	s, err := New(Options{SegmentBytes: 1 << 12, MaxSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 64)
	for k := 0; k < 2000; k++ {
		if err := s.Put(fmt.Sprintf("cold-%06d", k), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("hot-%02d", i%8)
		if i%5 == 0 {
			k = fmt.Sprintf("cold-%06d", i/5) // cold keys churn too, so cleaning relocates
		}
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.Streams) != 2 {
		t.Fatalf("Streams has %d entries, want 2 (user and GC)", len(st.Streams))
	}
	totalLive := 0
	var totalBytes int64
	for i, ss := range st.Streams {
		totalLive += ss.Live
		totalBytes += ss.LiveBytes
		if ss.Segments == 0 {
			t.Errorf("stream %d holds no segment after a workload that cleans", i)
		}
		if ss.OpenFill < 0 || ss.OpenFill > 1 {
			t.Errorf("stream %d OpenFill = %v", i, ss.OpenFill)
		}
	}
	if totalLive != st.Keys {
		t.Errorf("sum of per-stream Live = %d, want %d keys", totalLive, st.Keys)
	}
	if totalBytes != int64(st.LiveBytes) {
		t.Errorf("sum of per-stream LiveBytes = %d, want %d", totalBytes, st.LiveBytes)
	}
}
