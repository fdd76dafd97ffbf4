package core

import (
	"fmt"
	"sort"
)

// factories maps canonical algorithm names to constructors. Each call builds
// a fresh Algorithm so engines never share policy state.
var factories = map[string]func() Algorithm{
	"age":                  Age,
	"greedy":               Greedy,
	"cost-benefit":         CostBenefit,
	"cost-benefit-literal": CostBenefitLiteral,
	"multi-log":            MultiLog,
	"multi-log-opt":        MultiLogOpt,
	"MDC":                  MDC,
	"MDC-opt":              MDCOpt,
	"MDC-routed":           MDCRouted,
	"MDC-no-sep-user":      MDCNoSepUser,
	"MDC-no-sep-user-GC":   MDCNoSepUserGC,
}

// ByName returns the algorithm with the given canonical name.
func ByName(name string) (Algorithm, error) {
	f, ok := factories[name]
	if !ok {
		return Algorithm{}, fmt.Errorf("core: unknown cleaning algorithm %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Names returns the canonical algorithm names in sorted order.
func Names() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

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
