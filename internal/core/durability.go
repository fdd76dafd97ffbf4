package core

import "fmt"

// Durability is the write-durability policy of a live engine. The paper's
// premise is that a log structured store amortizes "a single write I/O for a
// number of diverse" updates; the durability policy decides when those
// amortized I/Os are forced to storage, and therefore what a caller may
// assume when a write returns.
//
// The levels, strongest last:
//
//   - DurNone: records are appended but never explicitly fsynced; data is
//     only as durable as the operating system makes it. This is the fastest
//     mode and the zero value (the historical Sync=false default).
//   - DurSeal: a user's records are fsynced when their segment is sealed,
//     behind the writer (durable before its next seal, sync point, Sync or
//     Close completes); a segment of relocated copies once, by the cleaning
//     cycle that seals it. Until then their victims, and any victim released
//     while user records await their fsync, are released but not reset. A
//     kill keeps every acknowledged write and batch; a power cut can lose the
//     open segment and the sealed one whose fsync runs, and nothing a sync
//     point made durable. This is the historical Sync=true behavior.
//   - DurCommit: every successful write or batch commit returns only after
//     its records are durable. Concurrent committers coalesce onto a single
//     group fsync — one goroutine fsyncs the unsynced segments, together,
//     waiters piggyback on its round (GroupCommit, the WAL's loop too) — so
//     the per-commit fsync cost is shared.
//     Batches committed at this level are additionally crash-atomic: a
//     torn batch (some records persisted, the commit not acknowledged)
//     is discarded wholesale by recovery, never surfaced partially.
type Durability int

const (
	// DurNone never fsyncs; the zero value and historical default.
	DurNone Durability = iota
	// DurSeal fsyncs segment seals (the old Sync=true).
	DurSeal
	// DurCommit group-fsyncs on every commit; batches are crash-atomic.
	DurCommit
)

func (d Durability) String() string {
	switch d {
	case DurNone:
		return "none"
	case DurSeal:
		return "seal"
	case DurCommit:
		return "commit"
	default:
		return fmt.Sprintf("Durability(%d)", int(d))
	}
}

// Valid reports whether d is one of the defined levels.
func (d Durability) Valid() bool { return d >= DurNone && d <= DurCommit }

// StreamStats is the occupancy snapshot of one append stream, reported by
// the live engines through Stats().Streams (user = 0, GC = 1): where the live
// data is, and how full each stream's open segment is.
type StreamStats struct {
	// Live is the number of live records (pages or KV records) currently
	// located in segments assigned to this stream.
	Live int
	// LiveBytes is the byte volume of those live records.
	LiveBytes int64
	// Segments counts the stream's non-free segments (open, sealed, or
	// mid-clean).
	Segments int
	// OpenSegments counts the stream's open segments (0 or 1).
	OpenSegments int
	// OpenFill is the fill fraction of the stream's open segment, 0 when
	// the stream has none.
	OpenFill float64
}
