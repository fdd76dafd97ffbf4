// Package sim implements the log-structured store simulator of the paper's
// evaluation (§6.1.1). Like the paper's simulator it records page identities,
// not page contents: cleaning cost and write amplification depend only on
// which page frames hold current versions.
//
// The engine owns physical segments, the logical-page mapping table, a user
// write buffer that sorts (separates) writes by update frequency, and the
// cleaning loop; victim selection and write routing are delegated to a
// core.Algorithm so that every policy of the paper runs on identical
// mechanics.
package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/workload"
)

// Config sizes the simulated store. The zero value is unusable; call
// (*Config).withDefaults via New, which applies the paper's defaults
// (4 KB pages, 512-page/2 MB segments, cleaning triggered below 32 free
// segments, 64 segments cleaned per cycle, 16-segment sort buffer).
type Config struct {
	// PageSize is the page size in bytes (paper: 4096).
	PageSize int64
	// SegmentPages is S, pages per segment (paper: 512, i.e. 2 MB segments).
	SegmentPages int
	// NumSegments is the physical segment count. The paper simulates a
	// 100 GB store (51200 segments); its footnote 2 notes the absolute size
	// does not affect write amplification, so smaller defaults are fine.
	NumSegments int
	// FillFactor is F, the fraction of physical pages visible to the user.
	FillFactor float64
	// FreeLowWater triggers cleaning when the free-segment count falls
	// below it (paper: 32).
	FreeLowWater int
	// CleanBatch is the number of segments cleaned per cycle (paper: 64)
	// unless the algorithm overrides it (multi-log cleans 1).
	CleanBatch int
	// WriteBufferSegs is the user write buffer size in segments (Figure 4;
	// 16 is the paper's near-optimal point). 0 disables buffering: writes
	// stream straight to segments with neither sorting nor absorption.
	WriteBufferSegs int
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.SegmentPages == 0 {
		c.SegmentPages = 512
	}
	if c.NumSegments == 0 {
		c.NumSegments = 2048
	}
	if c.FreeLowWater == 0 {
		c.FreeLowWater = 32
	}
	if c.CleanBatch == 0 {
		c.CleanBatch = 64
	}
	if c.WriteBufferSegs < 0 {
		c.WriteBufferSegs = 0
	}
	return c
}

// UserPages returns P, the number of user-visible pages implied by the
// configuration: FillFactor times the physical page count.
func (c Config) UserPages() int {
	return int(c.FillFactor * float64(c.NumSegments) * float64(c.SegmentPages))
}

const bufTag = uint64(1) << 63

// bufEnt is a page version pending in the write buffer or being relocated by
// the cleaner, with the frequency keys used for separation and the update
// interval observed at write time (multi-log's estimator).
type bufEnt struct {
	page uint32
	up2  float64
	rate float64
	est  uint64
}

type openSeg struct {
	id     int32
	fill   int
	up2Sum float64
}

// Sim is a simulated log-structured store instance.
type Sim struct {
	cfg Config
	alg core.Algorithm
	gen workload.Generator

	exact bool // exact-rate oracle active

	meta  []core.SegmentMeta
	slots []uint32 // seg*S+slot -> page id; valid iff pageLoc back-points

	// pageLoc maps a page id to its current location: 0 = never written,
	// bufTag|idx = write buffer entry, otherwise (seg*S+slot)+1.
	pageLoc   []uint64
	lastWrite []uint64  // previous user-update tick per page (0 = none)
	ivlEst    []uint32  // last observed update interval per page (0 = none)
	rates     []float64 // exact per-page update rates (nil without oracle)

	free []int32
	open []openSeg // indexed by stream id

	buf       []bufEnt
	bufCap    int
	bufMinUp2 float64

	unow    uint64
	sealSeq uint64
	inGC    bool
	seen    core.StreamSet // streams ever appended to (router reserve)

	scratchVictims []int32
	scratchPages   []bufEnt

	// counters, reset by ResetCounters
	userPhys, gcPhys  uint64
	logical, absorbed uint64
	cleaned, cycles   uint64
	sumEAtClean       float64
	zeroGainStreak    int
}

// New builds a simulator for the given configuration, algorithm and
// workload. It validates that the configuration leaves enough slack segments
// for the cleaning reserve and the algorithm's append streams.
func New(cfg Config, alg core.Algorithm, gen workload.Generator) (*Sim, error) {
	cfg = cfg.withDefaults()
	if cfg.FillFactor <= 0 || cfg.FillFactor >= 1 {
		return nil, fmt.Errorf("sim: fill factor %v outside (0,1)", cfg.FillFactor)
	}
	p := gen.Universe()
	capPages := cfg.NumSegments * cfg.SegmentPages
	want := cfg.UserPages()
	if p > want {
		return nil, fmt.Errorf("sim: workload universe %d pages exceeds fill-factor budget %d (F=%.2f of %d physical)",
			p, want, cfg.FillFactor, capPages)
	}
	streams := 2
	if alg.Router != nil {
		// Exactly one open segment per declared stream: a router that is
		// off by one must fail the explicit appendPage check ("router must
		// clamp its bands"), not quietly fill a phantom slack stream.
		streams = int(alg.Router.Streams())
	}
	slackSegs := cfg.NumSegments - (p+cfg.SegmentPages-1)/cfg.SegmentPages
	if slackSegs < cfg.FreeLowWater+streams+2 {
		return nil, fmt.Errorf("sim: only %d slack segments; need > FreeLowWater(%d) + streams(%d) + 2",
			slackSegs, cfg.FreeLowWater, streams)
	}
	s := &Sim{
		cfg:       cfg,
		alg:       alg,
		gen:       gen,
		meta:      make([]core.SegmentMeta, cfg.NumSegments),
		slots:     make([]uint32, cfg.NumSegments*cfg.SegmentPages),
		pageLoc:   make([]uint64, p),
		lastWrite: make([]uint64, p),
		ivlEst:    make([]uint32, p),
		free:      make([]int32, 0, cfg.NumSegments),
		// The open-segment table is sized up front and never grows:
		// appendPage holds a pointer into it across nested cleaning, so a
		// reallocation there would write through a stale array.
		open:      make([]openSeg, streams),
		bufCap:    cfg.WriteBufferSegs * cfg.SegmentPages,
		bufMinUp2: math.Inf(1),
	}
	for i := range s.open {
		s.open[i].id = -1
	}
	for i := range s.meta {
		s.meta[i].Capacity = int64(cfg.SegmentPages) * cfg.PageSize
		s.meta[i].Free = s.meta[i].Capacity
	}
	for i := cfg.NumSegments - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	if alg.Exact {
		if gen.Rate(0) < 0 {
			return nil, fmt.Errorf("sim: algorithm %s needs an exact-rate oracle but workload %s has none",
				alg.Name, gen.Name())
		}
		s.exact = true
		s.rates = make([]float64, p)
		for i := range s.rates {
			s.rates[i] = gen.Rate(uint32(i))
		}
	}
	// The user write buffer exists to SORT user writes by update frequency
	// (§5.3, Figure 4); algorithms that do not separate user writes stream
	// them straight to segments. This matches the paper's controls: §6.2.1
	// calls victim selection "the only difference between greedy and
	// MDC-no-sep-user-GC", which only holds if neither buffers.
	if !alg.SortUser {
		s.bufCap = 0
	}
	if s.bufCap > 0 {
		s.buf = make([]bufEnt, 0, s.bufCap)
	}
	return s, nil
}

// Now returns the current update-count clock.
func (s *Sim) Now() uint64 { return s.unow }

// Write applies one user update to page p: it invalidates the prior version,
// computes the carried up2 per §5.2.2, and stages the new version in the
// write buffer (or appends it directly when unbuffered).
func (s *Sim) Write(p uint32) {
	s.unow++
	s.logical++

	prevLast := s.lastWrite[p]
	s.lastWrite[p] = s.unow

	var carried float64
	switch loc := s.pageLoc[p]; {
	case loc == 0:
		// First write: adopt the oldest ("coldish") up2 of the batch being
		// processed (§5.2.2), zero when there is no history at all.
		if s.bufMinUp2 != math.Inf(1) {
			carried = s.bufMinUp2
		}
	case loc&bufTag != 0:
		// Still in the write buffer: absorb the re-write in place.
		e := &s.buf[loc&^bufTag]
		e.up2 = core.NextUp2(e.up2, s.unow)
		s.noteInterval(p, s.unow-prevLast)
		e.est = uint64(s.ivlEst[p])
		s.absorbed++
		if e.up2 < s.bufMinUp2 {
			s.bufMinUp2 = e.up2
		}
		return
	default:
		g := loc - 1
		seg := int32(g / uint64(s.cfg.SegmentPages))
		m := &s.meta[seg]
		carried = core.NextUp2(m.Up2, s.unow)
		m.Up2 = carried
		m.Live--
		m.Free += s.cfg.PageSize
		if s.exact {
			m.RateSum -= s.rates[p]
		}
		// Clear the mapping immediately: on the unbuffered path the append
		// below can trigger cleaning, and a stale back-pointer would make
		// the cleaner relocate the version we just invalidated.
		s.pageLoc[p] = 0
	}

	var rate float64 = -1
	if s.exact {
		rate = s.rates[p]
	}
	if prevLast != 0 {
		est := s.unow - prevLast
		if est == 0 {
			est = 1
		}
		s.noteInterval(p, est)
	}
	smoothed := uint64(s.ivlEst[p])
	if s.bufCap > 0 {
		s.buf = append(s.buf, bufEnt{page: p, up2: carried, rate: rate, est: smoothed})
		s.pageLoc[p] = bufTag | uint64(len(s.buf)-1)
		if carried < s.bufMinUp2 {
			s.bufMinUp2 = carried
		}
		if len(s.buf) >= s.bufCap {
			s.flush()
		}
		return
	}
	s.appendPage(s.routeUser(smoothed, rate), p, carried, rate)
	s.userPhys++
}

// flush sorts (when the algorithm separates user writes) and drains the
// write buffer into segments.
func (s *Sim) flush() {
	if s.alg.SortUser {
		sortByFrequency(s.buf, s.exact)
	}
	for _, e := range s.buf {
		// Absorption keeps at most one live entry per page, so every entry
		// here is the page's current version.
		s.appendPage(s.routeUser(e.est, e.rate), e.page, e.up2, e.rate)
		s.userPhys++
	}
	s.buf = s.buf[:0]
	s.bufMinUp2 = math.Inf(1)
}

// sortByFrequency orders a batch coldest-first: by exact rate ascending when
// the oracle is active, else by carried up2 ascending (§5.3). Page id breaks
// ties deterministically.
func sortByFrequency(b []bufEnt, exact bool) {
	if exact {
		slices.SortFunc(b, func(x, y bufEnt) int {
			switch {
			case x.rate < y.rate:
				return -1
			case x.rate > y.rate:
				return 1
			default:
				return int(x.page) - int(y.page)
			}
		})
		return
	}
	slices.SortFunc(b, func(x, y bufEnt) int {
		switch {
		case x.up2 < y.up2:
			return -1
		case x.up2 > y.up2:
			return 1
		default:
			return int(x.page) - int(y.page)
		}
	})
}

// routeUser picks the append stream for a user write: the algorithm's router
// when present (multi-log), else stream 0. est is the page's update interval
// observed when the write entered the system.
func (s *Sim) routeUser(est uint64, rate float64) int32 {
	if s.alg.Router == nil {
		return 0
	}
	return s.alg.Router.Route(est, rate)
}

// noteInterval records a page's observed update interval (the multi-log
// frequency estimate) as the running midpoint of successive observations —
// a single exponential interval sample has coefficient of variation 1, far
// too noisy to band pages by. Relocations must NOT touch the estimate: a
// cleaning move says nothing about how often the page is updated, and
// estimating from "time since last write" at relocation would let cleaning
// churn pollute the hot logs with its own young victims.
func (s *Sim) noteInterval(p uint32, est uint64) {
	s.ivlEst[p] = core.SmoothInterval(s.ivlEst[p], est)
}

// routeGC picks the append stream for a relocated page: the router when
// present (fed the page's last known update interval), else the dedicated
// GC stream 1.
func (s *Sim) routeGC(p uint32, rate float64) int32 {
	if s.alg.Router == nil {
		return 1
	}
	return s.alg.Router.Route(uint64(s.ivlEst[p]), rate)
}

// appendPage writes one page version into the open segment of a stream,
// allocating and sealing segments as needed.
//
// Ordering is delicate: cleaning must run BEFORE the open-table entry is
// read, because the cleaner's own relocations may install (and partially
// fill) an open segment for this very stream; taking the pointer first and
// allocating afterwards would orphan that segment in the open state.
func (s *Sim) appendPage(stream int32, p uint32, carried float64, rate float64) {
	if int(stream) >= len(s.open) {
		panic(fmt.Sprintf("sim: stream %d outside pre-sized open table (%d); router must clamp its bands", stream, len(s.open)))
	}
	s.seen.Note(stream)
	if s.open[stream].id < 0 && !s.inGC && len(s.free) < s.lowWater() {
		s.runGC(stream)
	}
	o := &s.open[stream]
	if o.id < 0 {
		o.id = s.popFree(stream)
		o.fill = 0
		o.up2Sum = 0
	}
	m := &s.meta[o.id]
	g := uint64(o.id)*uint64(s.cfg.SegmentPages) + uint64(o.fill)
	s.slots[g] = p
	s.pageLoc[p] = g + 1
	o.fill++
	o.up2Sum += carried
	m.Live++
	m.Free -= s.cfg.PageSize
	if s.exact && rate >= 0 {
		m.RateSum += rate
	}
	if o.fill == s.cfg.SegmentPages {
		m.Up2 = o.up2Sum / float64(s.cfg.SegmentPages)
		m.State = core.SegSealed
		s.sealSeq++
		m.SealSeq = s.sealSeq
		m.SealTime = s.unow
		o.id = -1
	}
}

// popFree takes a segment from the free pool and opens it for a stream. It
// never triggers cleaning itself (appendPage does that first); the cleaner's
// free-before-consume ordering guarantees the pool cannot drain mid-cycle.
func (s *Sim) popFree(stream int32) int32 {
	if len(s.free) == 0 {
		panic(fmt.Sprintf("sim: out of segments (alg=%s, stream=%d): cleaning cannot reclaim space", s.alg.Name, stream))
	}
	id := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	m := &s.meta[id]
	*m = core.SegmentMeta{
		Capacity: int64(s.cfg.SegmentPages) * s.cfg.PageSize,
		Free:     int64(s.cfg.SegmentPages) * s.cfg.PageSize,
		Stream:   stream,
		State:    core.SegOpen,
	}
	return id
}

// lowWater returns the effective free-pool threshold. Routed algorithms
// (multi-log) can open one segment per frequency band while relocating a
// single victim, so the reserve must additionally cover one segment per
// stream the workload actually uses; otherwise cleaning itself can drain
// the pool. Counting only observed streams keeps the reserve honest: under
// a uniform workload with exact rates multi-log uses one log and behaves
// like age-based cleaning, which an all-bands reserve would distort at
// small store sizes. The count is monotone, so the threshold never flaps.
func (s *Sim) lowWater() int {
	lw := s.cfg.FreeLowWater
	if s.alg.Router != nil {
		lw += s.seen.Count()
	}
	return lw
}

// batch returns the number of segments one cleaning cycle processes.
func (s *Sim) batch() int {
	if s.alg.CleanPerCycle > 0 {
		return s.alg.CleanPerCycle
	}
	return s.cfg.CleanBatch
}

// runGC cleans segments until the free pool is back above the low-water
// mark. Each cycle asks the policy for a victim batch, gathers the victims'
// live pages (carrying the source segments' up2 per §5.2.2), frees the
// victims, separates the relocation batch by frequency when the algorithm
// asks for it, and rewrites the pages.
func (s *Sim) runGC(trigger int32) {
	s.inGC = true
	defer func() { s.inGC = false }()

	for len(s.free) < s.lowWater() {
		view := core.View{Now: s.unow, Segs: s.meta, TriggerStream: trigger}
		victims := s.alg.Policy.Victims(view, s.batch(), s.scratchVictims[:0])
		s.scratchVictims = victims[:0]
		if len(victims) == 0 {
			panic(fmt.Sprintf("sim: policy %s returned no victims with %d free segments", s.alg.Name, len(s.free)))
		}
		s.cycles++

		pages := s.scratchPages[:0]
		for _, v := range victims {
			m := &s.meta[v]
			if m.State != core.SegSealed {
				panic(fmt.Sprintf("sim: policy %s selected non-sealed segment %d", s.alg.Name, v))
			}
			s.sumEAtClean += m.Emptiness()
			s.cleaned++
			base := uint64(v) * uint64(s.cfg.SegmentPages)
			for i := 0; i < s.cfg.SegmentPages; i++ {
				g := base + uint64(i)
				p := s.slots[g]
				if s.pageLoc[p] == g+1 {
					r := -1.0
					if s.exact {
						r = s.rates[p]
					}
					pages = append(pages, bufEnt{page: p, up2: m.Up2, rate: r})
				}
			}
			m.State = core.SegFree
			m.Live = 0
			m.Free = m.Capacity
			m.RateSum = 0
			s.free = append(s.free, v)
		}

		if s.alg.SortGC {
			sortByFrequency(pages, s.exact)
		}
		for _, e := range pages {
			s.appendPage(s.routeGC(e.page, e.rate), e.page, e.up2, e.rate)
			s.gcPhys++
		}
		s.scratchPages = pages[:0]

		// Progress guard: a cycle reclaims space iff its victims had empty
		// page frames. Cleaning a completely full segment is legal (the age
		// policy legitimately rotates past frozen segments) but an unbroken
		// run of them is a livelock worth failing loudly on.
		if reclaimed := len(victims)*s.cfg.SegmentPages - len(pages); reclaimed <= 0 {
			s.zeroGainStreak++
			if s.zeroGainStreak > 2*s.cfg.NumSegments {
				panic(fmt.Sprintf("sim: cleaning livelock under %s: only full segments cleaned in %d consecutive cycles", s.alg.Name, s.zeroGainStreak))
			}
		} else {
			s.zeroGainStreak = 0
		}
	}
}

// ResetCounters zeroes the measurement counters (end of warmup).
func (s *Sim) ResetCounters() {
	s.userPhys, s.gcPhys, s.logical, s.absorbed = 0, 0, 0, 0
	s.cleaned, s.cycles, s.sumEAtClean = 0, 0, 0
}

// View exposes the current segment metadata as a policy view (benchmarks
// and diagnostics).
func (s *Sim) View() core.View {
	return core.View{Now: s.unow, Segs: s.meta}
}
