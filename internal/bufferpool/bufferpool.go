// Package bufferpool holds the three things that stand between a B+-tree
// and its storage: a page-id allocator, the buffer-cache model that turns a
// tree workload into the paper's page-write trace, and the concurrent node
// cache of the durable engine.
//
// # Allocator
//
// IDs hands out page ids: fresh ones in sequence, freed ones again
// last-freed-first. It is unsynchronised; internal/pagedb owns one under its
// exclusive guard and persists it in the metadata page, and the Model embeds
// one.
//
// # Trace model
//
// New returns a Model: a single-threaded CLOCK (second chance) over
// residency, reference and dirty bits. Page contents stay with the owner
// (internal/btree's in-memory Tree); the model appends a page id to its write
// trace whenever a dirty page is evicted or flushed, which is the I/O trace
// of the paper's §6.3 evaluation ("I/O traces collected from running the
// TPC-C benchmark on a B+-tree-based storage engine. The buffer cache size
// was set at 4 GB").
//
// # Fused cache
//
// NewSharded returns a Pool: N independent 2-bit clock shards (a use count
// 0–3 where the Model has CLOCK's bit), each with its own lock, hand and
// frame ring, keyed by a page-id hash, every frame carrying its owner's
// decoded object (pagedb stores the decoded *btree.Node).
// FetchPinned is the lookup: ONE shared-lock acquisition returns the object
// already pinned. InstallPinned is the miss side: it claims a frame under
// the exclusive lock and binds the object before publication, so racing
// readers see the fully bound object or fall to the slow path, never a
// half-installed one. A pinned frame is never an eviction victim, so an
// engine can hold a page's contents stable without a pool-wide lock; if
// every frame of a shard is pinned the shard grows past its nominal capacity
// rather than fail, and Stats reports the overshoot. Eviction clears the
// object and bumps the frame's generation, so a Release against a recycled
// frame (identified by its Handle) is a no-op and can never unpin an
// unrelated page, and hands the object to the eviction callback (SetEvict).
// The Pool is only a cache: whether a page holds changes storage lacks is
// its owner's business (pagedb keeps one dirty-page table).
package bufferpool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a sharded 2-bit clock (use count 0–3) cache of decoded objects.
//
// Every method is safe for concurrent use EXCEPT SetEvict, which must be
// called before concurrent use.
type Pool struct {
	capacity int
	shards   []*shard
	shift    uint32 // hash bits discarded; shardOf = hash >> shift

	evict func(id uint32, obj any)
}

// shard is one 2-bit clock region. The mutex is an RWMutex so the HIT path —
// by far the hottest — takes only the shared side: a resident page's use
// count and pins are atomics, so concurrent readers hitting the same shard
// update them without serializing. Structural changes (insert, evict, free,
// the sweep) take the exclusive side, which also freezes every hit-path
// reader out; pin counts still change lock-free (Release), so the sweep
// loads them atomically.
type shard struct {
	mu     sync.RWMutex
	cap    int // nominal frame budget; the ring may grow past it (pins)
	frames map[uint32]*frame
	ring   []*frame
	hand   int

	hits      uint64 // adopting installs (total hits = hits + fusedHits)
	misses    uint64
	fusedHits uint64 // atomic: FetchPinned hits (kept separate so the fused path bumps ONE counter)
	evictions uint64
	grows     uint64
}

// frame is one buffer slot. Frames are heap objects referenced by pointer
// from both the ring and the frame table, so a Handle stays valid across
// ring growth. Field discipline:
//
//   - id, live, obj: written only under the shard's exclusive lock; obj is
//     additionally read under the shared lock (FetchPinned), which the
//     exclusive writers exclude.
//   - uses: atomic; hits raise it under either lock side, the sweep lowers it.
//   - vp: the packed generation|pins word, fully atomic. Pins change under
//     either lock side (FetchPinned, InstallPinned) AND lock-free (Release);
//     the generation half changes only under the exclusive lock, always
//     zeroing the pin half in the same store.
type frame struct {
	id   uint32
	uses int32 // atomic use count, 0–maxUses
	live bool
	// vp packs the frame's generation stamp (high 32 bits) and pin count
	// (low 32 bits) into ONE atomic word. Packing is what makes Release a
	// single lock-free CAS: the compare covers the generation and the pin
	// count together, so a release racing an eviction/free/recycle (which
	// bumps the generation and zeroes the pins in one store, under the
	// exclusive lock) either lands before the store — and is harmlessly
	// overwritten — or fails its CAS, rereads, sees a foreign generation
	// and degrades to a no-op. A pin count >0 exempts the frame from
	// eviction.
	vp  uint64
	obj any // decoded-object slot (fused node cache)
}

const maxUses = 3 // a frame's use count saturates here

// vpGen and vpPins unpack a frame's vp word.
func vpGen(vp uint64) uint32  { return uint32(vp >> 32) }
func vpPins(vp uint64) uint32 { return uint32(vp) }

// vpMake builds a vp word from a generation and a pin count.
func vpMake(gen, pins uint32) uint64 { return uint64(gen)<<32 | uint64(pins) }

// Handle identifies one residency incarnation of a frame: the frame plus
// the generation stamp current when the handle was issued. Release(h) only
// acts while the stamp still matches, so a handle held across a Free or
// eviction of its page (legal — the B+-tree releases merge victims after
// freeing them) degrades to a no-op instead of unpinning whatever page
// reuses the frame. The zero Handle is valid and releases nothing.
type Handle struct {
	f   *frame
	gen uint32
}

// Current reports whether h's incarnation still holds its frame: the page
// has been neither evicted nor freed since h was issued.
func (h Handle) Current() bool {
	return h.f != nil && vpGen(atomic.LoadUint64(&h.f.vp)) == h.gen
}

// DefaultShards returns the shard count sized for this process: the
// smallest power of two >= GOMAXPROCS, between 1 and 64.
func DefaultShards() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}

// NewSharded returns a pool of `shards` independent clock regions sharing
// the capacity. The shard count is rounded up to a power of two and capped
// so that every shard holds at least one frame.
func NewSharded(capacity, shards int) *Pool {
	if capacity < 1 {
		panic(fmt.Sprintf("bufferpool: capacity %d < 1", capacity))
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards && n < 256 {
		n <<= 1
	}
	for n > capacity {
		n >>= 1
	}
	p := &Pool{
		capacity: capacity,
		shards:   make([]*shard, n),
		shift:    32,
	}
	for 1<<(32-p.shift) < n {
		p.shift--
	}
	per := (capacity + n - 1) / n
	for i := range p.shards {
		p.shards[i] = &shard{
			cap:    per,
			frames: make(map[uint32]*frame, per),
		}
	}
	return p
}

// Shards returns the number of clock regions.
func (p *Pool) Shards() int { return len(p.shards) }

// Capacity returns the number of frames the shards share.
func (p *Pool) Capacity() int { return p.capacity }

// ShardOf returns the shard index page id maps to (stable for the life of
// the pool).
func (p *Pool) ShardOf(id uint32) int { return int(p.shardIdx(id)) }

// shardIdx hashes a page id to its shard: a Fibonacci multiplicative hash
// keeps sequentially allocated ids spread evenly.
func (p *Pool) shardIdx(id uint32) uint32 {
	if p.shift == 32 {
		return 0 // single shard; id*c>>32 is a shift-width violation
	}
	return (id * 2654435769) >> p.shift
}

func (p *Pool) shard(id uint32) *shard { return p.shards[p.shardIdx(id)] }

// SetEvict installs the eviction callback: the pool calls it with a victim's
// page id and decoded object once the object is unpublished (the slot
// cleared, the generation bumped), so no fused reader can reach it through
// the pool again. It runs inside Install and InstallPinned with the evicting
// shard's mutex held: it must not call back into the pool, but may take the
// owner's own (finer) locks. Install it before any concurrent use.
func (p *Pool) SetEvict(fn func(id uint32, obj any)) { p.evict = fn }

// FreePage drops page id's frame and its decoded object, with no eviction
// callback. Pins on the frame are discarded — a Free is an explicit
// ownership statement — and the generation bump turns any still-outstanding
// Release handle into a no-op.
func (p *Pool) FreePage(id uint32) {
	s := p.shard(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		// One store retires the incarnation: next generation, zero pins.
		atomic.StoreUint64(&f.vp, vpMake(vpGen(atomic.LoadUint64(&f.vp))+1, 0))
		f.live = false
		f.obj = nil
		delete(s.frames, id)
	}
	s.mu.Unlock()
}

// FetchPinned is the hot path: ONE shard read-lock acquisition that looks
// the page up, counts a use, pins its frame and returns the
// installed object — or nil (taking no pin) if the page is not resident. On
// a hit the returned Handle releases the pin (Release); callers keep it
// with the object.
func (p *Pool) FetchPinned(id uint32) (any, Handle) {
	s := p.shard(id)
	s.mu.RLock()
	f, ok := s.frames[id]
	if !ok || f.obj == nil {
		s.mu.RUnlock()
		return nil, Handle{}
	}
	if u := atomic.LoadInt32(&f.uses); u < maxUses {
		// Check-before-store: a hot page's count is almost always
		// saturated, and a read leaves the cache line shared where an
		// unconditional store would bounce it between reading cores.
		atomic.StoreInt32(&f.uses, u+1)
	}
	// pins++; the generation half cannot move under the shared lock, so a
	// plain add is safe and the returned word carries the current stamp.
	vp := atomic.AddUint64(&f.vp, 1)
	atomic.AddUint64(&s.fusedHits, 1)
	obj, h := f.obj, Handle{f: f, gen: vpGen(vp)}
	s.mu.RUnlock()
	return obj, h
}

// Touch counts a use of h's frame, as a FetchPinned hit of its page would,
// but takes no lock, looks nothing up, takes no pin and counts no hit: the
// access of a caller that fetched the page before. A stale handle counts
// nothing; a frame evicted between the check and the count gains a use, which
// only ages its next page a little later.
func (p *Pool) Touch(h Handle) {
	if !h.Current() {
		return
	}
	if u := atomic.LoadInt32(&h.f.uses); u < maxUses {
		atomic.StoreInt32(&h.f.uses, u+1)
	}
}

// Release drops one pin taken by FetchPinned or InstallPinned. A handle
// whose frame has since been freed, evicted or recycled (generation
// mismatch) releases nothing — the pin it balanced was already discarded
// with the frame. The zero Handle is a no-op. Safe for concurrent use.
//
// Release is LOCK-FREE: one CAS on the frame's packed generation|pins
// word. The compare spans both halves, so it can never decrement across
// an incarnation change (see frame.vp).
func (p *Pool) Release(h Handle) {
	if h.f == nil {
		return
	}
	for {
		vp := atomic.LoadUint64(&h.f.vp)
		if vpGen(vp) != h.gen || vpPins(vp) == 0 {
			return
		}
		if atomic.CompareAndSwapUint64(&h.f.vp, vp, vp-1) {
			return
		}
	}
}

// InstallPinned publishes obj as page id's decoded object and returns it
// pinned: the slow path behind a FetchPinned miss, counted as a miss. The
// page is given a frame (evicting if full); bind runs under the shard's
// exclusive lock with the frame's Handle, stores the object's
// back-reference BEFORE any reader can observe the object, and returns the
// object to install. If a racing installer won, bind is not called and the
// resident object is adopted (pinned, and counted as a hit) instead — the
// first install wins. The returned Handle matches the one bind received (or
// the winner's, when adopting).
func (p *Pool) InstallPinned(id uint32, bind func(Handle) any) (any, Handle) {
	s := p.shard(id)
	s.mu.Lock()
	obj, h := s.install(p, id, true, bind)
	s.mu.Unlock()
	return obj, h
}

// Install publishes the object of a newly ALLOCATED page: no pin (the
// B+-tree core Fetches a fresh id right away, and that fetch takes it) and
// no hit or miss — nobody looked the page up, so the counters keep meaning
// faults over lookups. The same first-install-wins adoption applies. The
// bool is ignored.
func (p *Pool) Install(id uint32, _ bool, bind func(Handle) any) any {
	s := p.shard(id)
	s.mu.Lock()
	obj, _ := s.install(p, id, false, bind)
	s.mu.Unlock()
	return obj
}

// install is the shared body of Install (fault false) and InstallPinned
// (fault true: counted and pinned). Caller holds s.mu exclusively.
func (s *shard) install(p *Pool, id uint32, fault bool, bind func(Handle) any) (any, Handle) {
	f, ok := s.frames[id]
	if !ok {
		f = s.insert(p, id)
	}
	if fault && ok {
		s.hits++ // lost the race to another fault's install: a use
		atomic.StoreInt32(&f.uses, min(atomic.LoadInt32(&f.uses)+1, maxUses))
	} else if fault {
		s.misses++
	}
	h := Handle{f: f, gen: vpGen(atomic.LoadUint64(&f.vp))}
	if f.obj == nil {
		f.obj = bind(h)
	}
	if fault {
		atomic.AddUint64(&f.vp, 1)
	}
	return f.obj, h
}

// insert places a page into the shard, unpinned and at use count 0, evicting
// a victim when the shard is at capacity, and returns its frame. Caller holds
// s.mu exclusively; pins are still loaded atomically (Release decrements them
// without any lock).
func (s *shard) insert(p *Pool, id uint32) *frame {
	if len(s.ring) < s.cap {
		f := &frame{id: id, live: true}
		s.ring = append(s.ring, f)
		s.frames[id] = f
		return f
	}
	// 2-bit clock sweep: take the first unpinned frame at use count 0,
	// counting down the unpinned ones passed, so a page hit k times outlasts
	// k turns; skip pinned frames; dead frames (freed pages) are taken at
	// once. If maxUses+1 turns find no victim (everything pinned), grow the
	// ring — the pool must not fail and must not reclaim a pinned frame.
	for steps, limit := 0, (maxUses+1)*len(s.ring); ; {
		f := s.ring[s.hand]
		if !f.live {
			break
		}
		if vpPins(atomic.LoadUint64(&f.vp)) == 0 {
			u := atomic.LoadInt32(&f.uses)
			if u == 0 {
				break
			}
			atomic.StoreInt32(&f.uses, u-1)
		}
		s.hand = (s.hand + 1) % len(s.ring)
		if steps++; steps >= limit {
			s.grows++
			s.ring = append(s.ring, &frame{})
			s.hand = len(s.ring) - 1
			break
		}
	}
	victim := s.ring[s.hand]
	if victim.live {
		// The frame changes identity: advance the generation (zeroing the
		// pins in the same store) FIRST so concurrent lock-free Releases of
		// the outgoing page turn into no-ops, then unpublish the decoded
		// object before handing it to the callback.
		atomic.StoreUint64(&victim.vp, vpMake(vpGen(atomic.LoadUint64(&victim.vp))+1, 0))
		obj := victim.obj
		victim.obj = nil
		s.evictions++
		if p.evict != nil {
			p.evict(victim.id, obj)
		}
		delete(s.frames, victim.id)
	}
	// A dead frame (freed page, or a grown slot) already lost its object,
	// pins and generation when the page was freed.
	victim.id = id
	atomic.StoreInt32(&victim.uses, 0)
	victim.live = true
	s.frames[id] = victim
	s.hand = (s.hand + 1) % len(s.ring)
	return victim
}

// Pinned returns the number of frames currently holding at least one pin
// (an engine-level invariant check: between operations it must be zero).
func (p *Pool) Pinned() int {
	n := 0
	for i := range p.shards {
		n += p.ShardStat(i).Pinned
	}
	return n
}

// Stats summarizes a Pool's activity across all shards, or a Model's (one
// shard; the fused and grow counters stay zero).
type Stats struct {
	Capacity     int
	Shards       int
	Hits, Misses uint64
	// FusedHits counts the hits served by FetchPinned (a subset of Hits).
	FusedHits uint64
	Evictions uint64
	// DirtyEvictions and Flushes are the Model's: the page writes of its
	// trace. A Pool does not know which pages are dirty; pagedb fills
	// DirtyEvictions in its own Stats from its dirty-page table.
	DirtyEvictions uint64
	Flushes        uint64
	// Grows counts frames added past a shard's nominal capacity because
	// every resident frame was pinned when a victim was needed.
	Grows uint64
}

// ShardStats is one shard's point-in-time state (per-shard observability).
type ShardStats struct {
	Residents int
	Pinned    int
	Hits      uint64
	Misses    uint64
	FusedHits uint64
	Evictions uint64
}

// Stats returns a snapshot of the pool counters, aggregated over shards.
// Like every snapshot method it takes each shard's lock on the SHARED side,
// so a metrics scrape never stops a FetchPinned: the counters are written
// under the exclusive side, except fusedHits, which shared holders bump
// atomically and a snapshot loads atomically.
func (p *Pool) Stats() Stats {
	st := Stats{Capacity: p.capacity, Shards: len(p.shards)}
	for _, s := range p.shards {
		s.mu.RLock()
		fused := atomic.LoadUint64(&s.fusedHits)
		st.Hits += s.hits + fused
		st.Misses += s.misses
		st.FusedHits += fused
		st.Evictions += s.evictions
		st.Grows += s.grows
		s.mu.RUnlock()
	}
	return st
}

// ShardStat returns one shard's snapshot without touching the others (for
// per-shard gauges, where scanning every shard per metric would be
// quadratic).
func (p *Pool) ShardStat(i int) ShardStats {
	s := p.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	fused := atomic.LoadUint64(&s.fusedHits)
	ss := ShardStats{
		Residents: len(s.frames),
		Hits:      s.hits + fused,
		Misses:    s.misses,
		FusedHits: fused,
		Evictions: s.evictions,
	}
	for _, f := range s.ring {
		if f.live && vpPins(atomic.LoadUint64(&f.vp)) > 0 {
			ss.Pinned++
		}
	}
	return ss
}

// HitRatio returns hits/(hits+misses), or 0 before any access.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
