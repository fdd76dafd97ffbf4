//go:build race

package wal

// raceEnabled reports that the race detector is on (its shadow allocations
// make allocation counts meaningless).
const raceEnabled = true
