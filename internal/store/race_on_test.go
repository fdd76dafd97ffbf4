//go:build race

package store

// raceEnabled reports that the race detector is on (its shadow allocations
// make heap-byte budgets meaningless).
const raceEnabled = true
