//go:build !race

package pagedb

const raceEnabled = false
