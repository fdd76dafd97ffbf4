package core

// mdcPolicy is the paper's contribution: Minimum Declining Cost cleaning.
// It cleans first the segments whose per-page cleaning cost is declining the
// slowest (paper §4.1 Maximality Lemma: postpone the objects with the largest
// cost declines, process the ones with the smallest declines now).
type mdcPolicy struct {
	exact bool
}

// MDCOptions configures an MDC algorithm instance.
type MDCOptions struct {
	// Exact uses exact page update rates from the workload oracle instead of
	// the 2/(unow-up2) estimator, both for victim priority and for sorting
	// writes (the MDC-opt variant of §6.1.3).
	Exact bool
	// SortUser separates user writes by update frequency (§5.3). Disabled by
	// the MDC-no-sep-user ablation of §6.2.1. The live store appends each
	// Apply's records coldest first, by the seq of each page's current version.
	SortUser bool
	// SortGC separates GC relocation writes by update frequency. Disabled
	// (together with SortUser) by the MDC-no-sep-user-GC ablation.
	SortGC bool
}

// NewMDC returns an MDC algorithm with explicit options.
func NewMDC(name string, o MDCOptions) Algorithm {
	return Algorithm{
		Name:     name,
		Policy:   mdcPolicy{exact: o.Exact},
		SortUser: o.SortUser,
		SortGC:   o.SortGC,
		Exact:    o.Exact,
	}
}

// MDC returns the full MDC algorithm ("MDC" in the figures): estimated
// update frequencies, user and GC writes both separated by frequency.
func MDC() Algorithm {
	return NewMDC("MDC", MDCOptions{SortUser: true, SortGC: true})
}

// MDCOpt returns MDC with exact page update frequencies ("MDC-opt").
func MDCOpt() Algorithm {
	return NewMDC("MDC-opt", MDCOptions{Exact: true, SortUser: true, SortGC: true})
}

// MDCNoSepUser returns the §6.2.1 ablation that does not separate user
// writes by update frequency ("MDC-no-sep-user").
func MDCNoSepUser() Algorithm {
	return NewMDC("MDC-no-sep-user", MDCOptions{SortGC: true})
}

// MDCNoSepUserGC returns the §6.2.1 ablation that separates neither user nor
// GC writes ("MDC-no-sep-user-GC"). Its only difference from greedy is the
// victim selection criterion.
func MDCNoSepUserGC() Algorithm {
	return NewMDC("MDC-no-sep-user-GC", MDCOptions{})
}

func (p mdcPolicy) Name() string {
	if p.exact {
		return "MDC-opt"
	}
	return "MDC"
}

func (p mdcPolicy) Victims(v View, max int, dst []int32) []int32 {
	score := DecliningCost
	if p.exact {
		score = DecliningCostExact
	}
	return scoredSelect(v, max, dst,
		func(m *SegmentMeta) float64 { return score(m, v.Now) },
		ascending)
}
