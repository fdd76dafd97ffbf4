package bufferpool

import (
	"sync"
	"testing"
)

// TestFetchPinnedHitAndMiss covers the fused hot path's contract: a miss
// returns nil and takes NO pin; a hit returns the installed object pinned.
func TestFetchPinnedHitAndMiss(t *testing.T) {
	p := NewSharded(4, 1)
	if obj, h := p.FetchPinned(7); obj != nil || h.f != nil {
		t.Fatalf("FetchPinned on empty pool = (%v, %+v), want nil miss", obj, h)
	}
	if got := p.Pinned(); got != 0 {
		t.Fatalf("a miss took %d pins, want 0", got)
	}
	want := "node-7"
	var bound Handle
	obj, h := p.InstallPinned(7, func(h Handle) any {
		bound = h
		return want
	})
	if obj != want {
		t.Fatalf("InstallPinned = %v, want %q", obj, want)
	}
	if bound != h {
		t.Fatalf("bind saw handle %+v, caller got %+v", bound, h)
	}
	if got := p.Pinned(); got != 1 {
		t.Fatalf("Pinned() = %d after InstallPinned, want 1", got)
	}
	obj2, h2 := p.FetchPinned(7)
	if obj2 != want {
		t.Fatalf("FetchPinned after install = %v, want %q", obj2, want)
	}
	p.Release(h)
	p.Release(h2)
	if got := p.Pinned(); got != 0 {
		t.Fatalf("Pinned() = %d after balanced releases, want 0", got)
	}
	if st := p.Stats(); st.FusedHits != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want one miss (the install) and one fused hit", st)
	}
}

// TestInstallCountsNeither: publishing a freshly allocated page is not a
// lookup, so Install moves neither Hits nor Misses and the ratio stays
// faults (InstallPinned) over lookups (FetchPinned).
func TestInstallCountsNeither(t *testing.T) {
	p := NewSharded(4, 1)
	for id := uint32(1); id <= 8; id++ { // twice the capacity: evictions too
		install(p, id)
	}
	if st := p.Stats(); st.Hits != 0 || st.Misses != 0 || st.Evictions != 4 {
		t.Fatalf("stats after 8 allocations %+v, want no hit, no miss, 4 evictions", st)
	}
	_, h := p.FetchPinned(8)
	p.Release(h)
	_, h = p.InstallPinned(1, func(Handle) any { return uint32(1) })
	p.Release(h)
	if st := p.Stats(); st.Hits != 1 || st.FusedHits != 1 || st.Misses != 1 {
		t.Fatalf("stats after one lookup hit and one fault %+v", st)
	}
}

// TestInstallAdoptsFirstWinner pins down first-install-wins: when the page
// already holds a decoded object, a second install does NOT run bind and
// returns the resident object.
func TestInstallAdoptsFirstWinner(t *testing.T) {
	p := NewSharded(4, 1)
	first, _ := p.InstallPinned(3, func(Handle) any { return "first" })
	second, h := p.InstallPinned(3, func(Handle) any {
		t.Error("bind ran despite a resident object")
		return "second"
	})
	if first != "first" || second != "first" {
		t.Fatalf("installs = (%v, %v), want both %q", first, second, "first")
	}
	if got := p.Pinned(); got != 1 {
		t.Fatalf("Pinned() = %d (two nested pins on one frame), want 1 frame", got)
	}
	p.Release(h)
	if obj, h2 := p.FetchPinned(3); obj != "first" {
		t.Fatalf("FetchPinned = %v, want adopted winner", obj)
	} else {
		p.Release(h2)
	}
}

// TestReleaseAfterFreeIsNoOp is the stale-handle contract: a handle held
// across FreePage (and the frame's reuse by another page) must release
// NOTHING — the generation stamp no longer matches, so the new page's pin
// survives.
func TestReleaseAfterFreeIsNoOp(t *testing.T) {
	p := NewSharded(1, 1) // one frame: page 2 must recycle page 1's frame
	_, stale := p.InstallPinned(1, func(Handle) any { return "one" })
	p.FreePage(1) // discards the pin, bumps the generation
	if got := p.Pinned(); got != 0 {
		t.Fatalf("Pinned() = %d after FreePage, want 0", got)
	}
	if stale.Current() {
		t.Fatal("a freed page's handle is still current")
	}
	_, h2 := p.InstallPinned(2, func(Handle) any { return "two" })
	p.Release(stale) // stale: must not unpin page 2's frame
	if got := p.Pinned(); got != 1 {
		t.Fatalf("stale Release stole the new page's pin: Pinned() = %d, want 1", got)
	}
	p.Release(h2)
	if got := p.Pinned(); got != 0 {
		t.Fatalf("Pinned() = %d after real release, want 0", got)
	}
	// Double-release of an already-balanced handle floors at zero pins.
	p.Release(h2)
	if got := p.Pinned(); got != 0 {
		t.Fatalf("double Release drove pins negative: Pinned() = %d, want 0", got)
	}
}

// TestEvictionUnpublishesObject: evicting a fused frame must clear the
// decoded slot, hand the object to the eviction callback, turn the next
// FetchPinned into a miss, and make the evicted incarnation's handle stale.
func TestEvictionUnpublishesObject(t *testing.T) {
	p := NewSharded(2, 1)
	type ev struct {
		id  uint32
		obj any
	}
	var calls []ev
	p.SetEvict(func(id uint32, obj any) { calls = append(calls, ev{id, obj}) })
	_, h1 := p.InstallPinned(1, func(Handle) any { return "one" })
	p.Release(h1)
	_, h2 := p.InstallPinned(2, func(Handle) any { return "two" })
	p.Release(h2)
	if !h1.Current() || !h2.Current() {
		t.Fatal("a resident page's handle is not current")
	}
	install(p, 3) // evicts page 1 or 2
	if len(calls) != 1 {
		t.Fatalf("eviction calls = %+v, want one", calls)
	}
	if gone := map[uint32]Handle{1: h1, 2: h2}[calls[0].id]; gone.Current() {
		t.Errorf("evicted page %d's handle is still current", calls[0].id)
	}
	evictedObj := "one"
	if calls[0].id == 2 {
		evictedObj = "two"
	}
	if calls[0].obj != evictedObj {
		t.Errorf("callback got obj %v for page %d, want %v", calls[0].obj, calls[0].id, evictedObj)
	}
	if obj, _ := p.FetchPinned(calls[0].id); obj != nil {
		t.Errorf("evicted page still served fused object %v", obj)
	}
}

// TestFusedPinBlocksEviction: a frame pinned through FetchPinned must
// survive a capacity storm; the pool grows rather than reclaims it.
func TestFusedPinBlocksEviction(t *testing.T) {
	p := NewSharded(2, 1)
	obj, h := p.InstallPinned(1, func(Handle) any { return "keep" })
	for id := uint32(10); id < 30; id++ {
		install(p, id)
	}
	got, h2 := p.FetchPinned(1)
	if got != obj {
		t.Fatalf("pinned page evicted: FetchPinned = %v, want %v", got, obj)
	}
	p.Release(h2)
	p.Release(h)
	if got := p.Pinned(); got != 0 {
		t.Fatalf("Pinned() = %d after releases, want 0", got)
	}
}

// TestFusedConcurrentHammer races fused readers (FetchPinned/Release)
// against an installer/evictor over a tiny pool, then checks the pool's
// books balance: no pin leaked, no frame serving a foreign page. Run with
// -race to catch slot/handle ordering bugs.
func TestFusedConcurrentHammer(t *testing.T) {
	const (
		pages   = 64
		readers = 4
		rounds  = 2000
	)
	p := NewSharded(16, 4) // 4 frames per shard: constant eviction
	p.SetEvict(func(id uint32, obj any) {
		// The callback must not call back into the pool; checking the
		// handed-over object is enough to catch a slot mix-up.
		if obj.(uint32) != id {
			t.Errorf("eviction of page %d handed over object %v", id, obj)
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := (seed*2654435769 + uint32(i)) % pages
				obj, h := p.FetchPinned(id)
				if obj == nil {
					obj, h = p.InstallPinned(id, func(Handle) any { return id })
				}
				if obj.(uint32) != id {
					t.Errorf("page %d served object %v", id, obj)
				}
				p.Release(h)
			}
		}(uint32(g + 1))
	}
	wg.Wait()
	if got := p.Pinned(); got != 0 {
		t.Fatalf("Pinned() = %d after balanced hammer, want 0", got)
	}
	for i, s := range p.shards {
		s.mu.Lock()
		for id, f := range s.frames {
			if !f.live || f.id != id {
				t.Errorf("shard %d: frames[%d] = %+v", i, id, f)
			}
			if f.obj != nil && f.obj.(uint32) != id {
				t.Errorf("shard %d: frame %d holds object %v", i, id, f.obj)
			}
		}
		s.mu.Unlock()
	}
}
