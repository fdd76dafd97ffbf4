package core

// TempRouter routes writes into a small number of temperature streams by the
// binary magnitude of the estimated update interval: stream 0 holds the
// hottest pages (smallest intervals), stream Bands-1 the coldest, and the 28
// binary orders of magnitude multi-log distinguishes (DefaultMaxBands) are
// compressed linearly onto the available bands. Pages with no update history
// start in the coldest stream — the same "pages mostly contain cold data"
// presumption §5.2.2 applies to first writes — and migrate hotter as updates
// reveal their intervals.
//
// This is the §5.3 frequency separation realized as routed placement instead
// of sort-buffer packing: user and GC output land in per-temperature open
// segments, where the simulator sorts them before packing (SortUser/SortGC).
// Like every router it runs in the simulator only: the live engines refuse
// routed algorithms.
type TempRouter struct {
	// Bands is the number of temperature streams (>= 2).
	Bands int32
}

// Streams returns the number of temperature streams.
func (r TempRouter) Streams() int32 { return r.Bands }

// Route maps an estimated update interval onto a temperature stream. The
// exact rate is preferred when the oracle provides it (rate > 0).
func (r TempRouter) Route(estInterval uint64, exactRate float64) int32 {
	if r.Bands <= 1 {
		return 0
	}
	if exactRate > 0 {
		iv := uint64(1 / exactRate)
		if iv == 0 {
			iv = 1
		}
		estInterval = iv
	}
	if estInterval == 0 {
		return r.Bands - 1 // no history: presumed cold
	}
	band := int32(bits64Log2(estInterval)) * r.Bands / DefaultMaxBands
	if band >= r.Bands {
		band = r.Bands - 1
	}
	return band
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

// DefaultTempBands is the stream count of MDCRouted: enough bands to keep
// hot churn out of cold segments without demanding a large open-segment
// reserve from small stores.
const DefaultTempBands = 4

// MDCRouted returns MDC victim selection with temperature-routed placement
// ("MDC-routed"): instead of the sort-buffer separation of §5.3 (SortUser/
// SortGC), every append — user and GC relocation alike — is routed to one of
// DefaultTempBands streams by its estimated update interval. It is the
// routed counterpart the multi-log baseline is compared against.
func MDCRouted() Algorithm {
	return Algorithm{
		Name:   "MDC-routed",
		Policy: mdcPolicy{},
		Router: TempRouter{Bands: DefaultTempBands},
	}
}
