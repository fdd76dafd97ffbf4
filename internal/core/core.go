// Package core implements segment cleaning (garbage collection) policies for
// log structured stores, including the paper's contribution — MDC, the
// Minimum Declining Cost policy — and every baseline it is evaluated against:
// age-based, greedy, cost-benefit (Rosenblum/Ousterhout LFS) and multi-log
// (Stoica/Ailamaki).
//
// A cleaning policy orders sealed segments for cleaning. The engine that owns
// the segments (the simulator in internal/sim, or the page store in
// internal/store, on disk or in memory — the value log internal/vlog is a key
// index over the latter) maintains one SegmentMeta per segment and asks the
// policy to select victims whenever free space runs low. Policies are pure
// functions of that metadata, so the exact same policy code runs under both
// substrates.
//
// Terminology follows the paper: a segment holds B bytes of which A are free
// (emptiness E = A/B), contains C live pages, and carries up2, the estimated
// penultimate update time measured on the update-count clock (one tick per
// user update, never wall-clock).
package core

import "fmt"

// SegState is the lifecycle state of a segment.
type SegState uint8

const (
	// SegFree means the segment holds no live data and can be reused.
	SegFree SegState = iota
	// SegOpen means the segment is being filled and cannot be cleaned yet.
	SegOpen
	// SegSealed means the segment is full and eligible for cleaning.
	SegSealed
	// SegCleaning means a cleaner has selected the segment as a victim and
	// is relocating its live data. The segment's records are immutable in
	// this state (it cannot be reopened or reused), which is what lets a
	// background cleaner read them without holding engine locks; policies
	// never select it again because only SegSealed segments are victims.
	SegCleaning
)

func (s SegState) String() string {
	switch s {
	case SegFree:
		return "free"
	case SegOpen:
		return "open"
	case SegSealed:
		return "sealed"
	case SegCleaning:
		return "cleaning"
	default:
		return fmt.Sprintf("SegState(%d)", uint8(s))
	}
}

// SegmentMeta is the per-segment bookkeeping a policy may inspect. It is the
// information inventory of paper §5.1.1: available space A, live count C and
// the penultimate update time up2, plus fields needed by the baselines
// (seal sequence for age, stream for multi-log, exact rate sum for the *-opt
// variants).
type SegmentMeta struct {
	// Capacity is B, the byte capacity of the segment.
	Capacity int64
	// Free is A, the bytes occupied by obsolete (empty) page frames.
	Free int64
	// Live is C, the number of current (live) pages in the segment.
	Live int32
	// Stream identifies the append stream (log) the segment was written by.
	// Engines without routing use stream 0 for user data and 1 for GC output.
	Stream int32
	// State is the lifecycle state; only SegSealed segments are victims.
	State SegState
	// SealSeq is a monotonically increasing sequence number assigned when the
	// segment is sealed. Age-based cleaning orders by it.
	SealSeq uint64
	// SealTime is the update-clock value when the segment was sealed.
	// Cost-benefit uses now-SealTime as the segment's data age.
	SealTime uint64
	// Up2 is the penultimate-update estimate of paper §5.2: initialized at
	// seal time to the average carried up2 of the member pages and advanced
	// to (Up2+now)/2 each time a member page is invalidated.
	Up2 float64
	// RateSum is the sum of the exact per-page update rates of the live
	// pages, when the workload oracle provides them (the *-opt variants).
	// Engines that do not track exact rates leave it zero.
	RateSum float64
}

// Emptiness returns E = A/B, the empty fraction of the segment.
func (m *SegmentMeta) Emptiness() float64 {
	if m.Capacity <= 0 {
		return 0
	}
	return float64(m.Free) / float64(m.Capacity)
}

// View is the engine state a policy sees when selecting victims.
type View struct {
	// Now is the current update-clock value (unow).
	Now uint64
	// Segs holds the metadata of every physical segment, indexed by id.
	Segs []SegmentMeta
	// TriggerStream is the stream whose append caused free space to run low.
	// Multi-log uses it to restrict selection to the local neighborhood;
	// other policies ignore it.
	TriggerStream int32
}

// Policy selects cleaning victims among sealed segments.
type Policy interface {
	// Name returns the canonical policy name used in the paper's figures.
	Name() string
	// Victims appends up to max sealed segment ids to dst, most urgent
	// first, and returns the extended slice. Implementations must only
	// return segments whose State is SegSealed.
	Victims(v View, max int, dst []int32) []int32
}

// Router assigns page writes to append streams. Policies that separate data
// into multiple logs (multi-log and multi-log-opt) implement it; for the
// others the simulator uses its default two streams (user and GC). With a
// router, user AND relocation writes share one stream space: every append is
// routed through Route, so hot and cold GC output lands in different
// segments (§5.3) instead of one monolithic GC stream. Routed placement is
// simulator-only: the live engines refuse an algorithm with a router.
type Router interface {
	// Route returns the stream for a page write. estInterval is the
	// observed update interval now-lastWrite (0 when the page has no
	// history); exactRate is the oracle update rate or a negative value
	// when unknown. Implementations choose which signal to use.
	//
	// Route must be a pure function of its arguments, so that asking it
	// again for the same write gives the same answer.
	Route(estInterval uint64, exactRate float64) int32
	// Streams returns the size of the stream space: Route only returns ids
	// in [0, Streams). The simulator sizes its open-segment table from it;
	// it must not exceed 64, the width of a StreamSet.
	Streams() int32
}

// StreamSet tracks which append streams the simulator has written to, as a
// monotone bitmask (stream ids are below 64). The simulator sizes its
// free-pool reserve from Count, so monotonicity matters: the reserve never
// flaps.
type StreamSet struct {
	mask  uint64
	count int
}

// Note records that stream received a write.
func (s *StreamSet) Note(stream int32) {
	if bit := uint64(1) << uint(stream); s.mask&bit == 0 {
		s.mask |= bit
		s.count++
	}
}

// Count returns the number of distinct streams noted so far.
func (s *StreamSet) Count() int { return s.count }

// Algorithm bundles a Policy with the write-path behavior the paper's
// evaluation attaches to it (§6.1.3): whether user and GC writes are
// separated by update frequency (sorted before packing into segments),
// whether exact per-page update rates are used instead of estimates, how many
// segments one cleaning cycle processes, and an optional Router.
type Algorithm struct {
	// Name is the label used in the paper's figures (e.g. "MDC", "greedy").
	Name string
	// Policy selects victims.
	Policy Policy
	// Router is non-nil only for multi-log style placement.
	Router Router
	// SortUser separates user writes by update frequency (paper §5.3): the
	// simulator sorts its write buffer, the live store each Apply batch.
	SortUser bool
	// SortGC separates GC relocation writes by update frequency.
	SortGC bool
	// Exact uses the workload's exact page update rates for sorting and for
	// the per-segment frequency term (the "-opt" variants of §6.1.3).
	Exact bool
	// CleanPerCycle is the number of segments cleaned per cleaning cycle;
	// 0 means the engine default (64 per §6.1.1). Multi-log uses 1 to match
	// the evaluation of the original paper.
	CleanPerCycle int
}

func (a Algorithm) String() string { return a.Name }

// Figure5Set returns the seven algorithms compared in Figures 5 and 6, in
// the paper's legend order.
func Figure5Set() []Algorithm {
	return []Algorithm{
		Age(), Greedy(), CostBenefit(),
		MultiLog(), MultiLogOpt(),
		MDC(), MDCOpt(),
	}
}

// Figure3Set returns the algorithms of the §6.2.1 breakdown analysis, in the
// paper's legend order (the analytic "opt" line is produced separately by
// internal/analysis).
func Figure3Set() []Algorithm {
	return []Algorithm{
		Greedy(), MDCNoSepUserGC(), MDCNoSepUser(), MDC(), MDCOpt(),
	}
}
