package bufferpool

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// idInShard returns a page id >= 1 that hashes to the given shard.
func idInShard(t *testing.T, p *Pool, shard int) uint32 {
	t.Helper()
	for id := uint32(1); id < 1<<20; id++ {
		if p.ShardOf(id) == shard {
			return id
		}
	}
	t.Fatalf("no page id maps to shard %d", shard)
	return 0
}

func TestNewShardedRounding(t *testing.T) {
	cases := []struct {
		capacity, shards, want int
	}{
		{16, 1, 1},
		{16, 3, 4}, // rounded up to a power of two
		{16, 16, 16},
		{4, 64, 4}, // capped: every shard needs at least one frame
		{1, 8, 1},
		{100, 0, 1},
	}
	for _, c := range cases {
		if got := NewSharded(c.capacity, c.shards).Shards(); got != c.want {
			t.Errorf("NewSharded(%d, %d).Shards() = %d, want %d", c.capacity, c.shards, got, c.want)
		}
	}
}

func TestShardOfIsStableAndInRange(t *testing.T) {
	p := NewSharded(64, 8)
	for id := uint32(0); id < 1000; id++ {
		s := p.ShardOf(id)
		if s < 0 || s >= p.Shards() {
			t.Fatalf("ShardOf(%d) = %d out of range [0,%d)", id, s, p.Shards())
		}
		if again := p.ShardOf(id); again != s {
			t.Fatalf("ShardOf(%d) unstable: %d then %d", id, s, again)
		}
	}
}

func TestPinPreventsEviction(t *testing.T) {
	p := NewSharded(3, 1) // single shard: evictions are deterministic
	install(p, 1)
	_, h := p.InstallPinned(2, func(Handle) any { return "two" })
	install(p, 3)
	// Fault enough new pages through the full pool to evict every unpinned
	// frame several times over.
	for id := uint32(10); id < 30; id++ {
		install(p, id)
	}
	if !resident(p, 2) {
		t.Fatal("pinned page 2 was evicted")
	}
	if p.Pinned() != 1 {
		t.Fatalf("Pinned() = %d, want 1", p.Pinned())
	}
	p.Release(h)
	if p.Pinned() != 0 {
		t.Fatalf("Pinned() after Release = %d, want 0", p.Pinned())
	}
	// Unpinned, page 2 is a victim candidate again.
	for id := uint32(30); id < 50; id++ {
		install(p, id)
	}
	if resident(p, 2) {
		t.Fatal("page 2 survived 20 evictions with no pin")
	}
}

func TestPinsNest(t *testing.T) {
	p := NewSharded(2, 1)
	_, h1 := p.InstallPinned(1, func(Handle) any { return "one" })
	_, h2 := p.FetchPinned(1)
	p.Release(h1)
	for id := uint32(10); id < 20; id++ {
		install(p, id)
	}
	if !resident(p, 1) {
		t.Fatal("page 1 evicted while one of two pins was still held")
	}
	p.Release(h2)
	p.Release(h2) // extra release of a zero-pin frame is a no-op
	if p.Pinned() != 0 {
		t.Fatalf("Pinned() = %d, want 0", p.Pinned())
	}
}

func TestAllPinnedGrowsRing(t *testing.T) {
	p := NewSharded(2, 1)
	_, h1 := p.InstallPinned(1, func(Handle) any { return "one" })
	_, h2 := p.InstallPinned(2, func(Handle) any { return "two" })
	install(p, 3) // no victim available: the shard must grow, not fail
	if !resident(p, 1) || !resident(p, 2) || !resident(p, 3) {
		t.Fatalf("residency after forced growth: 1=%v 2=%v 3=%v",
			resident(p, 1), resident(p, 2), resident(p, 3))
	}
	st := p.Stats()
	if st.Grows == 0 {
		t.Fatalf("Stats().Grows = 0 after growing past capacity: %+v", st)
	}
	if st.Evictions != 0 {
		t.Fatalf("Stats().Evictions = %d, want 0 (nothing was evictable)", st.Evictions)
	}
	p.Release(h1)
	p.Release(h2)
}

// hit looks page id up n times through the fused path, releasing each pin:
// n uses of a resident page.
func hit(t *testing.T, p *Pool, id uint32, n int) {
	t.Helper()
	for range n {
		obj, h := p.FetchPinned(id)
		if obj == nil {
			t.Fatalf("page %d not resident", id)
		}
		p.Release(h)
	}
}

// The 2-bit clock: a page hit three times outlasts three turns of the hand,
// so the nine never-hit pages that fault in behind it are evicted first.
func TestHitPageOutlastsNeverHitPages(t *testing.T) {
	p := NewSharded(4, 1)
	for id := uint32(1); id <= 4; id++ {
		install(p, id)
	}
	hit(t, p, 1, 3)
	for id := uint32(5); id <= 13; id++ {
		install(p, id)
	}
	for id := uint32(1); id <= 13; id++ {
		if want := id == 1 || id >= 11; resident(p, id) != want {
			t.Errorf("page %d resident = %v, want %v", id, !want, want)
		}
	}
	install(p, 14) // the count is spent: page 1 goes now
	if resident(p, 1) {
		t.Fatal("page 1 outlived a fourth turn of the hand on three hits")
	}
}

// A page faulted in and never hit again is the victim even when the hand
// reaches a page hit once first; CLOCK's bit would take the hit page.
func TestFreshFaultIsFirstVictim(t *testing.T) {
	p := NewSharded(2, 1)
	install(p, 1)
	hit(t, p, 1, 1)
	_, h := p.InstallPinned(2, func(Handle) any { return uint32(2) })
	p.Release(h)
	install(p, 3)
	if !resident(p, 1) || resident(p, 2) {
		t.Fatalf("after the next fault: page 1 resident = %v, page 2 resident = %v; want the fresh page 2 evicted",
			resident(p, 1), resident(p, 2))
	}
}

// A shard whose frames are all saturated but unpinned still has a victim:
// the hand counts every frame down to 0 within three turns, inside the
// growth limit, so the ring does not grow.
func TestHotRingEvictsWithoutGrowing(t *testing.T) {
	p := NewSharded(4, 1)
	for id := uint32(1); id <= 4; id++ {
		install(p, id)
		hit(t, p, id, 3)
	}
	install(p, 5)
	st := p.Stats()
	if st.Evictions != 1 || st.Grows != 0 || p.Resident() != 4 {
		t.Fatalf("after one insert into a hot, unpinned shard: evictions %d grows %d residents %d, want 1, 0, 4",
			st.Evictions, st.Grows, p.Resident())
	}
}

func TestShardStatsPerShard(t *testing.T) {
	p := NewSharded(16, 4)
	id := idInShard(t, p, 3)
	_, h := p.InstallPinned(id, func(Handle) any { return id })
	if ss := p.ShardStat(3); ss.Residents != 1 || ss.Pinned != 1 || ss.Misses != 1 {
		t.Fatalf("shard 3 stats = %+v", ss)
	}
	for i := 0; i < 3; i++ {
		if ss := p.ShardStat(i); ss.Residents != 0 {
			t.Fatalf("shard %d unexpectedly resident: %+v", i, ss)
		}
	}
	p.Release(h)
	if ss := p.ShardStat(3); ss.Residents != 1 || ss.Pinned != 0 {
		t.Fatalf("shard 3 stats after the release = %+v", ss)
	}
}

// TestConcurrentAccess hammers a sharded pool from many goroutines (run
// with -race): lookups, faults, allocations and frees beside a scraper taking
// every snapshot the metrics layer takes, with balanced pins, must leave zero
// pins and a consistent frame table.
func TestConcurrentAccess(t *testing.T) {
	p := NewSharded(64, 8)
	const goroutines = 8
	const opsPer = 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				id := uint32(1 + rng.Intn(256))
				switch rng.Intn(8) {
				case 0:
					install(p, id)
				case 1:
					p.FreePage(id)
				case 2:
					_ = p.Stats()
					for i := range len(p.shards) {
						_ = p.ShardStat(i)
					}
					_, _ = p.Resident(), p.Pinned()
				default:
					obj, h := p.FetchPinned(id)
					if obj == nil {
						obj, h = p.InstallPinned(id, func(Handle) any { return id })
					}
					if obj.(uint32) != id {
						t.Errorf("page %d served object %v", id, obj)
					}
					p.Release(h)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if got := p.Pinned(); got != 0 {
		t.Fatalf("Pinned() = %d after balanced pins", got)
	}
	st := p.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatalf("no accesses recorded: %+v", st)
	}
	if p.Resident() > 64+int(st.Grows) {
		t.Fatalf("Resident() = %d exceeds capacity %d + grows %d", p.Resident(), 64, st.Grows)
	}
	// Every frame table entry points at a live frame holding its id.
	for i, s := range p.shards {
		s.mu.Lock()
		for id, f := range s.frames {
			if !f.live || f.id != id {
				t.Errorf("shard %d: frames[%d] = %+v", i, id, f)
			}
		}
		s.mu.Unlock()
	}
}

// TestSnapshotsDoNotStopReaders: every snapshot method takes the shards'
// locks on the shared side, so a metrics scrape completes while readers hold
// them — and therefore never makes a FetchPinned wait.
func TestSnapshotsDoNotStopReaders(t *testing.T) {
	p := NewSharded(16, 4)
	for id := uint32(1); id <= 16; id++ {
		install(p, id)
	}
	for _, s := range p.shards {
		s.mu.RLock() // a reader inside FetchPinned on every shard
	}
	done := make(chan Stats)
	go func() {
		_ = p.Resident()
		_ = p.Pinned()
		for i := range len(p.shards) {
			_ = p.ShardStat(i)
		}
		done <- p.Stats()
	}()
	select {
	case st := <-done:
		if st.Shards != 4 || st.Capacity != 16 {
			t.Errorf("snapshot %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Error("a snapshot waited for the shards' exclusive side while readers held the shared side")
	}
	for _, s := range p.shards {
		s.mu.RUnlock()
	}
}
