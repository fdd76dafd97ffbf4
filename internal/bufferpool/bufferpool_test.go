package bufferpool

import "testing"

// The CLOCK-behaviour cases below run against the trace model (New); the
// sharded pool's are in fused_test.go and sharded_test.go.

func TestAllocateUniqueAndReuse(t *testing.T) {
	p := New(16)
	a, b := p.Allocate(), p.Allocate()
	if a != 1 || b != 2 {
		t.Fatalf("first ids = %d, %d, want 1, 2 (0 is the nil link)", a, b)
	}
	p.FreePage(a)
	if c := p.Allocate(); c != a {
		t.Errorf("freed id %d not reused (got %d)", a, c)
	}
	if p.Next() != 3 {
		t.Errorf("Next = %d, want 3", p.Next())
	}
}

func TestHitsAndMisses(t *testing.T) {
	p := New(4)
	id := p.Allocate()
	p.Touch(id)
	if s := p.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("stats after resident touch: %+v", s)
	}
	p.Touch(999) // never-seen page faults in
	if s := p.Stats(); s.Misses != 1 {
		t.Fatalf("stats after cold touch: %+v", s)
	}
}

func TestDirtyEvictionProducesTrace(t *testing.T) {
	p := New(2)
	a := p.Allocate() // dirty
	b := p.Allocate() // dirty
	_ = b
	p.Allocate() // evicts one of a,b (both dirty) -> trace
	if got := len(p.Writes()); got != 1 {
		t.Fatalf("trace length %d, want 1", got)
	}
	if w := p.Writes()[0]; w != a {
		// CLOCK with all-ref frames sweeps from the hand; a is the first
		// admitted and first swept after ref clearing.
		t.Logf("evicted %d (either of the first two is acceptable)", w)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	p := New(2)
	p.Touch(100)
	p.Touch(101)
	p.Touch(102) // evicts a clean page: no trace
	if len(p.Writes()) != 0 {
		t.Fatalf("clean eviction wrote trace: %v", p.Writes())
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", p.Stats().Evictions)
	}
}

func TestClockSecondChance(t *testing.T) {
	p := New(3)
	p.Touch(1)
	p.Touch(2)
	p.Touch(3)
	// All frames referenced: the sweep clears every bit and falls back to
	// FIFO, evicting page 1.
	p.Touch(4)
	hits := p.Stats().Hits
	// Now 4 is referenced, 2 and 3 are not. Referencing 2 must save it
	// from the next eviction (second chance), which takes 3 instead.
	p.Touch(2)
	if p.Stats().Hits != hits+1 {
		t.Fatalf("touch of resident page 2 missed: %+v", p.Stats())
	}
	p.Touch(5) // sweep: 2 ref cleared, 3 unreferenced -> evicted
	p.Touch(2)
	if p.Stats().Hits != hits+2 {
		t.Fatalf("page 2 evicted despite reference bit: %+v", p.Stats())
	}
	p.Touch(3)
	if p.Stats().Misses == 5 {
		t.Fatalf("page 3 survived; expected it evicted: %+v", p.Stats())
	}
	if len(p.frames) != 3 {
		t.Fatalf("resident = %d, want 3", len(p.frames))
	}
}

func TestFlushDirty(t *testing.T) {
	p := New(8)
	a := p.Allocate()
	b := p.Allocate()
	p.Touch(77) // clean resident
	if n := p.FlushDirty(); n != 2 {
		t.Fatalf("FlushDirty wrote %d pages, want 2", n)
	}
	// Frame order: a was admitted before b; the clean page is not written.
	if w := p.Writes(); len(w) != 2 || w[0] != a || w[1] != b {
		t.Fatalf("flush trace %v, want [%d %d]", w, a, b)
	}
	// Second flush is a no-op: pages are now clean.
	if n := p.FlushDirty(); n != 0 {
		t.Fatalf("second flush wrote %d", n)
	}
	// Dirtying again re-queues the page.
	p.Dirty(a)
	if n := p.FlushDirty(); n != 1 {
		t.Fatalf("flush after re-dirty wrote %d", n)
	}
}

func TestFreedPageNeverWritten(t *testing.T) {
	p := New(2)
	a := p.Allocate()
	p.FreePage(a) // dirty but freed: must not be flushed or evicted-written
	if n := p.FlushDirty(); n != 0 {
		t.Fatalf("flushed %d pages after free", n)
	}
	p.Touch(50)
	p.Touch(51)
	p.Touch(52)
	for _, w := range p.Writes() {
		if w == a {
			t.Fatalf("freed page %d appeared in trace", a)
		}
	}
	// The dead frame was taken when the hand reached it, without an eviction:
	// 50 filled the ring, 51 took the dead frame, only 52 evicted.
	if st := p.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (a freed frame is reused, not evicted)", st.Evictions)
	}
}

func TestHitRatio(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Error("empty stats hit ratio != 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRatio() != 0.75 {
		t.Errorf("hit ratio = %v", s.HitRatio())
	}
}

// TestSeedRestoresAllocator covers IDs: seeded free ids come back
// last-freed-first, then fresh ids in sequence from the seeded start, and the
// state round-trips through FreeList and NewIDs.
func TestSeedRestoresAllocator(t *testing.T) {
	ids := NewIDs(100, []uint32{7, 9})
	for _, want := range []uint32{9, 7, 100, 101} {
		if got := ids.Allocate(); got != want {
			t.Errorf("allocation = %d, want %d", got, want)
		}
	}
	ids.Free(9)
	ids.Free(100)
	if fl := ids.FreeList(); len(fl) != 2 || fl[0] != 9 || fl[1] != 100 {
		t.Errorf("FreeList = %v, want [9 100]", fl)
	}
	again := NewIDs(ids.Next(), ids.FreeList())
	for i := 0; i < 4; i++ {
		if a, b := ids.Allocate(), again.Allocate(); a != b {
			t.Errorf("allocation %d after the round trip = %d, want %d", i, b, a)
		}
	}
	if ids.Next() != 104 || again.Next() != 104 {
		t.Errorf("Next = %d and %d, want 104", ids.Next(), again.Next())
	}
}

func TestCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for capacity 0")
		}
	}()
	New(0)
}

// install gives page id a frame holding its own id as the decoded object,
// unpinned: how these tests bring a page into the sharded pool.
func install(p *Pool, id uint32) {
	p.Install(id, false, func(Handle) any { return id })
}

// resident reports whether page id occupies a frame.
func resident(p *Pool, id uint32) bool {
	s := p.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.frames[id] != nil
}
