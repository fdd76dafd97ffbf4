package experiments

import (
	"sync/atomic"

	"repro/internal/obs"
)

// liveReg is the most recently opened engine registry. The experiment
// drivers build a fresh registry per run, so the -serve introspection
// server reads through this pointer instead of holding any one registry.
var liveReg atomic.Pointer[obs.Registry]

// publishLive makes r the process's live registry, the one LiveRegistry
// (and therefore a running -serve server) reports. Each live-engine run
// publishes its registry right after opening the engine.
func publishLive(r *obs.Registry) {
	if r != nil {
		liveReg.Store(r)
	}
}

// LiveRegistry returns the most recently published engine registry — nil
// before the first live-engine run opens one. It is the Source lsbench
// hands to httpx.Serve: scrapes follow the current run automatically.
func LiveRegistry() *obs.Registry { return liveReg.Load() }
