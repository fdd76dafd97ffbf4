// Package vlog is an in-memory log-structured key-value store with
// variable-size records — log-structured memory in the style of RAMCloud
// (which the paper cites as a system whose cleaning MDC would improve) and
// of the value logs used by key-value separated LSM designs (WiscKey,
// HashKV).
//
// Values of arbitrary sizes are appended to fixed-size segments; an
// in-memory index maps keys to their current location; overwritten and
// deleted records become garbage that the cleaning policies of
// internal/core reclaim. Because records vary in size, victim priority uses
// the variable-size declining-cost form of paper §4.4 — the (B-A)/C average
// live record size is exactly the 1/C factor in core.DecliningCost. The
// segment bookkeeping, routing and cleaning cycle are internal/seglog, the
// core shared with the page store; this package keeps the slabs, the key
// index and the record codec.
//
// Cleaning runs foreground (inside Put, the default) or background with
// Options.BackgroundClean: the shared engine of internal/cleaner relocates
// victims — marked core.SegCleaning, which freezes their bytes — in small
// chunks between user operations, and paces writers only below the
// emergency floor.
package vlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cleaner"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/seglog"
)

// ErrFull means cleaning cannot reclaim enough space for the write.
var ErrFull = errors.New("vlog: capacity exhausted")

// ErrTooLarge means a record exceeds the segment capacity.
var ErrTooLarge = errors.New("vlog: record larger than a segment")

// errClosed is returned by operations on a closed store.
var errClosed = errors.New("vlog: closed")

// Options configures a Store.
type Options struct {
	// SegmentBytes is the segment capacity (default 1 MiB).
	SegmentBytes int
	// MaxSegments bounds total memory (default 64).
	MaxSegments int
	// Algorithm is the cleaning policy (default core.MDC()). Routed
	// algorithms (core.MultiLog, core.MDCRouted) spread user and GC appends
	// across Router.Streams() per-temperature streams, driven by a per-key
	// last-write clock; exact-rate variants are rejected, as in the page
	// store.
	Algorithm core.Algorithm
	// FreeLowWater triggers cleaning below this many free segments
	// (default CleanBatch+2).
	FreeLowWater int
	// CleanBatch is the victim count per cycle (default 4).
	CleanBatch int
	// Durability is accepted for API symmetry with the page store and
	// documents the contract a volatile engine can honor: the store lives
	// in memory, so every level behaves identically — a returned Put or
	// Commit is "durable" in the sense that it is visible to every later
	// Get until Close. Batch atomicity (all-or-nothing Commit) holds at
	// every level.
	Durability core.Durability

	// BackgroundClean moves cleaning off the write path into a background
	// goroutine driven by the free-pool watermarks (see internal/cleaner).
	BackgroundClean bool
	// FreeHighWater is where the background cleaner stops (default
	// FreeLowWater+CleanBatch, clamped). Ignored in foreground mode.
	FreeHighWater int
	// FreeEmergency is the admission-control floor (default
	// min(CleanBatch+1, FreeLowWater)). Ignored in foreground mode.
	FreeEmergency int
	// Obs receives the store's metrics (vlog.* series), the cleaner's, and
	// trace events. Nil creates a private always-on registry; see
	// internal/obs.
	Obs *obs.Registry
}

// relocChunk is how many records background relocation installs per lock
// hold, bounding writer stalls behind the cleaner (the store is in-memory;
// the cost is the memcpy, so the lock is dropped between chunks rather than
// during I/O).
const relocChunk = 64

// withDefaults fills the defaults and validates; the checks every segment
// log shares live in seglog.Config.Validate.
func (o Options) withDefaults() (Options, seglog.Config, error) {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.MaxSegments == 0 {
		o.MaxSegments = 64
	}
	if o.CleanBatch == 0 {
		o.CleanBatch = 4
	}
	if o.FreeLowWater == 0 {
		o.FreeLowWater = o.CleanBatch + 2
	}
	cfg := seglog.Config{
		Name: "vlog", ErrFull: ErrFull, ErrClosed: errClosed, RelocChunk: relocChunk,
		MaxSegments: o.MaxSegments, SegmentBytes: int64(o.SegmentBytes),
		Algorithm: o.Algorithm, FreeLowWater: o.FreeLowWater, CleanBatch: o.CleanBatch, Durability: o.Durability,
		Background: o.BackgroundClean, FreeHighWater: o.FreeHighWater, FreeEmergency: o.FreeEmergency,
		Obs: o.Obs,
	}
	if o.SegmentBytes < 64 {
		return o, cfg, fmt.Errorf("vlog: invalid geometry %+v", o)
	}
	err := cfg.Validate()
	o.Algorithm, o.Obs = cfg.Algorithm, cfg.Obs
	return o, cfg, err
}

// record layout: keyLen u16 | valLen u32 | key | value
const recHeader = 6

type loc struct {
	seg int32
	off int32
}

// Store is an in-memory log-structured KV store. Safe for concurrent use:
// Gets share an RLock, Puts/Deletes and cleaning installs take the write
// lock, and the background cleaner works in small chunks so user
// operations interleave with it.
//
// Close contract: after Close, EVERY operation observes the closed state —
// mutators (Put, Delete, Commit) fail with an error, Get reports the key
// as absent, Len reports 0, and Stats returns a zero snapshot. Reads do
// not return stale data from a store whose backing memory is conceptually
// released.
type Store struct {
	mu   sync.RWMutex
	opts Options

	// log is the segment-log core: segment metadata, free pool, streams and
	// routing clock, the cleaning cycle, batch planning and admission. The
	// store is its Engine (see clean.go) and keeps the slabs and the index.
	log   *seglog.Log[string, recCand]
	segs  [][]byte
	index map[string]loc

	userWrites           uint64
	userBytes, liveBytes uint64
	commits              uint64 // successful multi-record Commits

	// obs handles, resolved once at New (see internal/obs).
	hPut    *obs.Histogram // vlog.put.ns: Put, admission through append
	hGet    *obs.Histogram // vlog.get.ns
	hCommit *obs.Histogram // vlog.commit.ns: batch Commits
}

// New creates a store.
func New(opts Options) (*Store, error) {
	opts, cfg, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{
		opts:    opts,
		segs:    make([][]byte, opts.MaxSegments),
		index:   make(map[string]loc),
		hPut:    opts.Obs.Histogram("vlog.put.ns"),
		hGet:    opts.Obs.Histogram("vlog.get.ns"),
		hCommit: opts.Obs.Histogram("vlog.commit.ns"),
	}
	s.log = seglog.New[string, recCand](cfg, &s.mu, s)
	if err := s.log.StartCleaner(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close stops the background cleaner (if any). The store itself is
// volatile, so there is nothing to persist; further operations observe the
// closed state (see the Store close contract). Close is idempotent and
// always returns nil — the error return exists so callers can treat every
// engine mutator uniformly.
func (s *Store) Close() error {
	s.log.StopCleaner()
	s.mu.Lock()
	s.log.Closed = true
	s.mu.Unlock()
	return nil
}

func recSize(key string, valLen int) int { return recHeader + len(key) + valLen }

// Get returns a copy of the value stored under key. On a closed store every
// key reads as absent (see the Store close contract).
func (s *Store) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	defer func() { s.hGet.Record(uint64(time.Since(t0))) }()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.log.Closed {
		return nil, false
	}
	l, ok := s.index[key]
	if !ok {
		return nil, false
	}
	_, val := s.decode(l)
	out := make([]byte, len(val))
	copy(out, val)
	return out, true
}

// decode parses the record at l.
func (s *Store) decode(l loc) (key string, val []byte) {
	b := s.segs[l.seg][l.off:]
	kl := int(binary.LittleEndian.Uint16(b[0:2]))
	vl := int(binary.LittleEndian.Uint32(b[2:6]))
	return string(b[recHeader : recHeader+kl]), b[recHeader+kl : recHeader+kl+vl]
}

// Put stores value under key, replacing any existing value. The put
// histogram covers the whole user-observed latency: admission
// (seglog.Log.Write), the append, and retries.
func (s *Store) Put(key string, value []byte) error {
	size := recSize(key, len(value))
	if size > s.opts.SegmentBytes {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, size, s.opts.SegmentBytes)
	}
	t0 := time.Now()
	err := s.log.Write(1, nil, func() error { return s.putLocked(key, value, size) })
	s.hPut.Record(uint64(time.Since(t0)))
	return err
}

// putLocked reserves log space, then invalidates the old version and writes
// the record. Space is secured first so a failed Put (ErrFull) never loses
// the key's current value.
func (s *Store) putLocked(key string, value []byte, size int) error {
	stream, tick := s.log.Route(key)
	if err := s.log.Room(stream, int64(size)); err != nil {
		return err
	}
	s.log.Unow++
	s.userPut(stream, tick, key, value, size)
	return nil
}

// userPut appends one user record into stream, where room is already
// secured and the update clock ticked: install the routing tick, invalidate
// the old version, write the new one.
func (s *Store) userPut(stream int32, tick seglog.Tick, key string, value []byte, size int) {
	s.log.Advance(stream, key, tick, false)
	carried := s.invalidate(key)
	s.writeRecord(stream, key, value, carried)
	s.userWrites++
	s.userBytes += uint64(size)
	s.liveBytes += uint64(size)
}

// Delete removes key. Deleting an absent key is a no-op: the store is
// volatile, so no tombstone is needed. Deleting on a closed store returns
// an error, so misuse after Close is observable instead of silently doing
// nothing.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.Closed {
		return errClosed
	}
	s.deleteLocked(key)
	return nil
}

func (s *Store) deleteLocked(key string) {
	s.log.Unow++
	s.invalidate(key)
	s.log.Forget(key)
}

// invalidate releases key's current record and returns the carried up2.
func (s *Store) invalidate(key string) float64 {
	l, ok := s.index[key]
	if !ok {
		return 0
	}
	k, v := s.decode(l)
	size := int64(recSize(k, len(v)))
	s.liveBytes -= uint64(size)
	delete(s.index, key)
	return s.log.Invalidate(l.seg, size)
}

// writeRecord appends a record at the tail of stream's open segment, which
// must have room (see seglog.Log.Room).
func (s *Store) writeRecord(stream int32, key string, value []byte, carried float64) {
	seg, off := s.log.Tail(stream)
	b := s.segs[seg][off:]
	binary.LittleEndian.PutUint16(b[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint32(b[2:6], uint32(len(value)))
	copy(b[recHeader:], key)
	copy(b[recHeader+len(key):], value)
	s.index[key] = loc{seg: seg, off: int32(off)}
	s.log.Appended(stream, int64(recSize(key, len(value))), carried)
}

// Len returns the number of live keys, 0 on a closed store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.log.Closed {
		return 0
	}
	return len(s.index)
}

// Stats describes occupancy and cleaning efficiency.
type Stats struct {
	Keys            int
	LiveBytes       uint64
	CapacityBytes   uint64
	UserWrites      uint64
	GCWrites        uint64
	UserBytes       uint64
	GCBytes         uint64
	SegmentsCleaned uint64
	WriteAmp        float64 // GC bytes per user byte
	MeanEAtClean    float64
	FreeSegments    int
	// Streams is the per-stream occupancy of routed placement: one entry
	// per configured append stream (2 for the classic user+GC layout) with
	// its live records/bytes, segment counts, and open-segment fill. Use
	// core.WrittenStreams for the historical "streams ever written" count.
	Streams []core.StreamStats
	// Durability echoes the configured policy (always honored trivially:
	// the store is volatile).
	Durability string
	// Commits counts successful multi-record batch Commits.
	Commits uint64
	// Background reports whether cleaning runs in a background goroutine;
	// Cleaner is its lifecycle snapshot (zero-valued in foreground mode).
	Background bool
	Cleaner    cleaner.Stats
}

// Obs returns the store's metrics registry (always non-nil): the vlog.*
// and cleaner.* series plus the trace events, snapshottable at any time
// with Registry.Snapshot.
func (s *Store) Obs() *obs.Registry { return s.opts.Obs }

// Stats returns a snapshot of the store counters, zero on a closed store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	if s.log.Closed {
		s.mu.RUnlock()
		return Stats{}
	}
	ls := s.log.Stats()
	st := Stats{
		Keys:            len(s.index),
		LiveBytes:       s.liveBytes,
		CapacityBytes:   uint64(s.opts.MaxSegments) * uint64(s.opts.SegmentBytes),
		UserWrites:      s.userWrites,
		GCWrites:        ls.GCWrites,
		UserBytes:       s.userBytes,
		GCBytes:         ls.GCBytes,
		SegmentsCleaned: ls.SegmentsCleaned,
		MeanEAtClean:    ls.MeanEAtClean,
		FreeSegments:    ls.FreeSegments,
		Streams:         ls.Streams,
		Durability:      s.opts.Durability.String(),
		Commits:         s.commits,
	}
	if s.userBytes > 0 {
		st.WriteAmp = float64(ls.GCBytes) / float64(s.userBytes)
	}
	s.mu.RUnlock()
	st.Background, st.Cleaner = s.log.CleanerStats()
	return st
}

// CheckInvariants validates internal consistency (tests): every indexed
// record decodes to its key, liveBytes aggregates correctly, and the
// core's per-segment accounting matches the index (seglog.Log.Check).
func (s *Store) CheckInvariants() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	liveCount := make([]int32, s.opts.MaxSegments)
	liveBytes := make([]int64, s.opts.MaxSegments)
	var total uint64
	for key, l := range s.index {
		k, v := s.decode(l)
		if k != key {
			return fmt.Errorf("vlog: index key %q decodes to %q", key, k)
		}
		liveCount[l.seg]++
		liveBytes[l.seg] += int64(recSize(k, len(v)))
		total += uint64(recSize(k, len(v)))
	}
	if total != s.liveBytes {
		return fmt.Errorf("vlog: liveBytes %d, index says %d", s.liveBytes, total)
	}
	return s.log.Check(liveCount, liveBytes)
}
