// Package store is a durable log-structured page store — the kind of system
// the paper's cleaning analysis targets. Pages are never updated in place:
// every write appends a checksummed record — the page at the length it was
// written, anything up to PageSize — to an open segment, a mapping table
// tracks each page's current location, and reclaiming the space of
// overwritten versions is delegated to the cleaning policies of
// internal/core (MDC by default), exactly the machinery evaluated by the
// simulator. It is the one record engine: files (or memory), CRC record
// framing, the page table, the segment log (segment metadata, free pool,
// streams, write admission), the cleaning cycle, recovery, group commit and
// the durability points. The in-memory value log (internal/vlog) is a
// string-key index over a memory-backed Store.
//
// Placement has two append streams: user data fills one, GC relocations the
// other. Routed placement (multi-log and multi-log-opt) is simulator-only:
// Open refuses an algorithm with a router.
//
// Cleaning runs in one of two modes. In foreground mode (the default) a
// write that finds the free pool below the low-water mark blocks behind
// cleaning cycles until the pool recovers. With Options.BackgroundClean a
// goroutine of the store (cleaner.go) runs the same cycle, driven by low/high
// watermarks, while readers and writers keep going, and user writes block only
// when free space falls below an emergency floor. The mapping table is guarded by an RWMutex; victim segments are marked
// core.SegCleaning, which freezes their records so the cleaner can read
// them from storage without holding the lock.
//
// I/O is by segment run, not by record: the appends of one lock hold (an Apply,
// an install chunk of the cleaner) are staged and reach the backend as one
// write per run of consecutive appends to a segment, before the lock is
// released or that segment fsynced; a cleaning cycle reads a victim one window
// (ioUnit) at a time and relocates records straight out of it.
//
// Durability model: the segment files are the store's whole durable state.
// Records are appended with CRC-32C; Options.Durability picks the fsync
// policy. One ledger lists the segments holding appends no fsync has covered;
// a durability point fsyncs part of it together, and an entry is retired only
// by a successful fsync begun after the segment's last append. DurNone never
// syncs. DurSeal fsyncs a user's records at their segment's seal, on the
// syncer goroutine while the stream fills its next segment; every step that
// decides on the ledger or a wait first settles that fsync. Every other point
// is one sync point. DurCommit makes every write and Apply return only after
// the whole ledger is flushed, committers coalescing onto one group round, and
// makes multi-record batches crash-atomic (recovery discards a torn batch
// wholesale via the commit markers in the record headers). A cycle's sync
// point covers every sealed segment holding a relocated copy before any victim
// is released. A released victim waits on the segments still owing an fsync
// to an open GC tail's copies of its records, or to user records that may
// have superseded its dead ones; while it waits it is backing, so a crash or a
// power cut leaves an intact durable copy of every page a sync point made
// durable. It is truncated (discardFree) once no segment it waits on owes an
// fsync and a header on storage stamps past its newest record, so a free
// segment holds no bytes. Open creates no file and refuses a directory holding
// a CHECKPOINT file (an older format's deletion set); Close fsyncs the
// directory, which makes new files' names durable. A failed fsync, or a write
// error that cuts a batch in two, poisons the store: writes, syncs and cycles
// fail from then on, reads go on. Store.Sync is the explicit flush for the
// weaker levels. Every write is an atomic batch (NewBatch/Apply; WritePage and
// DeletePage apply a batch of one): one admission check, one lock hold, space
// reserved for the whole batch before any old version is invalidated, so
// ErrFull leaves nothing partially applied. A tombstone is relocated like any
// live record until its page is rewritten, so no deletion needs remembering
// outside the log. Recovery scans all segments, keeps the highest-sequence
// record per page and stops a segment at the first torn or corrupt record.
// Every recovered segment's up2 cleaning estimate restarts at the seq of its
// newest record, relearned as its pages are invalidated: it affects only
// cleaning efficiency, never correctness.
package store

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ErrNotFound is returned when reading a page that does not exist.
var ErrNotFound = errors.New("store: page not found")

// ErrFull is returned when a write cannot proceed because cleaning cannot
// reclaim enough space (the store is at capacity).
var ErrFull = errors.New("store: capacity exhausted")

// ErrTooLarge is returned for a page longer than the store's PageSize.
var ErrTooLarge = errors.New("store: page larger than the page size")

// errClosed is returned by operations on a closed store.
var errClosed = errors.New("store: closed")

// Options configures a Store.
type Options struct {
	// Dir holds the segment files; "" keeps everything in memory (tests,
	// caches).
	Dir string
	// PageSize is the maximum page size in bytes (default 4096): a write
	// may be any length up to it, and the record stores exactly that many.
	PageSize int
	// SegmentPages sets the segment capacity in bytes: room for this many
	// full-size page records (default 256). Shorter pages pack more densely.
	SegmentPages int
	// MaxSegments bounds the physical capacity (default 128).
	MaxSegments int
	// Algorithm is the cleaning policy bundle (default core.MDC()). Routed
	// algorithms (core.MultiLog, core.MultiLogOpt) and exact-rate variants are
	// refused: they are simulator-only.
	Algorithm core.Algorithm
	// FreeLowWater triggers cleaning when free segments fall below it
	// (default CleanBatch+4; must exceed CleanBatch so relocations always
	// have room).
	FreeLowWater int
	// CleanBatch is the number of victims per cleaning cycle (default 8).
	CleanBatch int
	// Durability is the write-durability policy (default core.DurNone):
	// DurNone never fsyncs, DurSeal fsyncs segment seals,
	// DurCommit makes every write/Apply wait for a (coalesced) group fsync
	// and makes batches crash-atomic. See core.Durability.
	Durability core.Durability

	// BackgroundClean moves cleaning off the write path into a goroutine
	// that runs the cleaning cycle between the free-pool watermarks
	// FreeLowWater and FreeLowWater+CleanBatch (see cleaner.go). When
	// false, cleaning runs synchronously inside the write path.
	BackgroundClean bool
	// FreeEmergency is the admission-control floor: in background mode
	// user writes block while free segments are below it (default
	// CleanBatch+1; it must lie in [1, FreeLowWater]).
	FreeEmergency int
	// Obs receives the store's metrics (store.* series), the cleaner's, and
	// trace events. Nil creates a private always-on registry — recording is
	// one atomic add per event, so there is no "off" switch to configure.
	// Embedding engines (pagedb) pass their own registry down so one
	// snapshot covers the whole stack.
	Obs *obs.Registry
}

// relocChunk is how many records background relocation installs per lock
// hold, bounding writer stalls behind the cleaner (each chunk is an I/O).
const relocChunk = 16

// ioUnit is the most one backend call moves: the size of the run buffer a
// lock hold's appends are staged in (a longer run is split) and of the window
// a cleaning cycle reads its victims through — together the I/O memory an
// open store retains, 192 KiB (more only if a record is larger).
const ioUnit = 96 << 10

// withDefaults fills the defaults and rejects configurations the store
// cannot run.
func (o Options) withDefaults() (Options, error) {
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.SegmentPages == 0 {
		o.SegmentPages = 256
	}
	if o.MaxSegments == 0 {
		o.MaxSegments = 128
	}
	if o.CleanBatch == 0 {
		o.CleanBatch = 8
	}
	if o.FreeLowWater == 0 {
		o.FreeLowWater = o.CleanBatch + 4
	}
	// The record header's length field and the 32-bit record offsets bound
	// the geometry from above.
	if o.PageSize < 8 || o.PageSize > maxPageSize || o.SegmentPages < 2 || segHeaderSize+o.segmentBytes() > math.MaxUint32 {
		return o, fmt.Errorf("store: invalid geometry %+v", o)
	}
	if o.Algorithm.Policy == nil {
		o.Algorithm = core.MDC()
	}
	if o.Algorithm.Router != nil {
		return o, fmt.Errorf("store: algorithm %s routes appends across streams; routed placement is simulator-only (internal/sim)",
			o.Algorithm.Name)
	}
	if !o.Durability.Valid() {
		return o, fmt.Errorf("store: invalid durability level %d", o.Durability)
	}
	if o.CleanBatch < 1 || o.MaxSegments < o.FreeLowWater+2 || o.FreeLowWater <= o.CleanBatch {
		return o, fmt.Errorf("store: need CleanBatch (%d) >= 1, MaxSegments (%d) >= FreeLowWater (%d) + 2 and FreeLowWater > CleanBatch so relocations always fit",
			o.CleanBatch, o.MaxSegments, o.FreeLowWater)
	}
	if o.FreeEmergency == 0 {
		o.FreeEmergency = o.CleanBatch + 1
	}
	if o.FreeEmergency < 1 || o.FreeEmergency > o.FreeLowWater {
		return o, fmt.Errorf("store: FreeEmergency (%d) must lie in [1, FreeLowWater (%d)]", o.FreeEmergency, o.FreeLowWater)
	}
	if o.Algorithm.Exact {
		return o, fmt.Errorf("store: exact-rate algorithm %s needs a workload oracle; use the estimator variant", o.Algorithm.Name)
	}
	if o.Obs == nil {
		o.Obs = obs.New()
	}
	return o, nil
}

// segmentBytes is the record capacity of a segment.
func (o Options) segmentBytes() int64 {
	return int64(o.SegmentPages) * int64(RecordHeaderSize+o.PageSize)
}

// pageLoc is where a page's current record lives: the byte offset of the
// record in its segment file.
type pageLoc struct {
	seg int32
	off uint32
	seq uint64
}

// Store is a log-structured page store instance. All methods are safe for
// concurrent use: reads share an RLock, writes and cleaning installs take
// the write lock, and in background mode the bulk relocation I/O runs with
// no lock at all.
type Store struct {
	mu   sync.RWMutex
	opts Options
	be   backend

	// The segment log (segments.go). meta is the per-segment table the
	// policies read; a segment's Live and Free move only through appended,
	// invalidate, relocated and pruned (and recovery, open and release). unow
	// is the update clock, one tick per user update, never wall-clock; closed
	// fails every read, and err every write, sync and cycle: errClosed once
	// closed, or the first failed fsync's (poison).
	meta       []core.SegmentMeta
	unow       uint64
	closed     bool
	err        error
	free       []int32
	freeCount  atomic.Int64 // len(free), readable without the lock
	open       [2]openSeg   // indexed by stream
	fill       []int64      // per segment: record bytes appended so far
	recs       [][]recInfo  // per segment: the records written to it, in log order
	newest     []uint64     // per segment: the seq of its newest record (recs non-empty)
	sealedRecs int          // records in the segment sealed last
	held       []int64      // per segment: the bytes its file holds (store.disk.bytes sums them)

	sealSeq     uint64
	gcWrites    uint64
	cleanedSegs uint64
	sumEAtClean float64
	pendingE    map[int32]float64 // emptiness-at-selection of in-flight victims

	cl    *cleaner  // background cleaner (cleaner.go); nil in foreground mode
	win   []byte    // I/O window of the foreground cycles (write lock held throughout)
	cands []recCand // their candidate table, kept between them like win

	table      map[uint32]pageLoc
	tombstones map[uint32]pageLoc

	incarnation uint64
	stamped     uint64 // the highest commit watermark a header on storage carries (flush)

	// unsynced is the one ledger of segments holding appends no fsync has
	// covered, the working set of every durability point (syncPoint); nil on
	// a volatile backend (Dir "").
	unsynced map[int32]unsyncedSeg
	// waits maps a segment to the segments, still owing an fsync, that hold
	// relocated copies of its records (noted by install) or, once it is
	// released, user records that may have superseded its dead ones (noted by
	// release); the sync points that cover them prune it. A free segment in
	// it is backing (backs). Nil unless on disk at DurSeal or DurCommit.
	waits map[int32][]int32

	sealing  int32        // the DurSeal seal whose fsync is in flight (seal, settle); -1: none
	sealq    chan backend // hands that fsync to the syncer (DurSeal on disk); Close closes it
	sealDone chan error   // the syncer's answer, closed as it exits
	// gcm is the group commit: under DurCommit concurrent committers
	// coalesce onto a single fsync round (commitRound). It has its own lock;
	// never acquire s.mu while holding it.
	gcm core.GroupCommit

	seq uint64
	// applying is the first seq of the multi-record batch being appended, 0
	// between batches: a segment the batch opens must not vouch for it.
	applying uint64

	userWrites uint64
	batches    uint64           // successful multi-record Applies
	refs       map[uint32]int32 // prepare's page table, empty between Applies
	order      []appendKey      // plan's append order of the batch being applied

	// run is the staged tail of segment runSeg, due at offset runOff (write
	// lock held); relocs the relocated copies in it, current once it is written.
	run    []byte
	runSeg int32
	runOff int64
	relocs []*recCand

	// readBufs holds per-reader record buffers (RLock held): an allocation of
	// its own, whose New captures a size only, since the runtime lists a pool
	// for a cycle after its last Put, which must not keep a closed store alive.
	readBufs *sync.Pool

	// obs handles, resolved once at Open (see internal/obs; recording is
	// lock-free, so no hot path takes a lock for metrics).
	hVictimE  *obs.Histogram // store.victim_e.permille: emptiness at victim selection
	cErrFull  *obs.Counter   // store.errfull: writes refused with ErrFull (write)
	hWrite    *obs.Histogram // store.write.ns: WritePage/DeletePage (one-op Applies), admission to durability
	hRead     *obs.Histogram // store.read.ns: ReadPage
	hFsync    *obs.Histogram // store.fsync.ns: every backend fsync
	hSealWait *obs.Histogram // store.seal.wait.ns: a settle's wait for the seal fsync in flight
	hSyncNs   *obs.Histogram // store.syncpoint.ns: wall time of one sync point's (concurrent) fsyncs
	hSyncN    *obs.Histogram // store.syncpoint.segs: segments it fsynced
	hCommit   *obs.Histogram // store.commit.ns: DurCommit commit waits
	cCommits  *obs.Counter   // store.commit.commits
	cRounds   *obs.Counter   // store.commit.rounds
	cSyncs    *obs.Counter   // store.commit.syncs
	cBacking  *obs.Counter   // store.backing.syncs: sync points a segment reset forces (openSegment)
	gDisk     *obs.Gauge     // store.disk.bytes: what the segment files hold
	// Record bytes (headers included) appended by users and by relocation:
	// together, everything the store writes into segments but their headers.
	cUserBytes *obs.Counter // store.user.bytes
	cGCBytes   *obs.Counter // store.gc.bytes
	cAbsorbed  *obs.Counter // store.user.absorbed: batch ops never appended (prepare)
	cWriteIOs  *obs.Counter // store.write.ios: run writes
	cReadIOs   *obs.Counter // store.read.ios: ReadPage, cleaning windows, recovery
	cReadBytes *obs.Counter // store.read.bytes: what those reads asked for
	trace      *obs.Trace
}

// unsyncedSeg is a ledger entry: the seq of the segment's last append, and
// whether the appends no fsync has covered include a user's record (which
// DurSeal owes an fsync at the seal) or a relocated copy (owed one by the cycle
// that seals the segment, before its victims are reset); a header is neither.
// low is where the batch of the first uncovered multi-record batch member
// starts, 0 if there is none or the level never fsyncs (DurNone). An entry is
// retired only by a successful fsync begun after that append, or dropped with
// a released victim's contents: a free segment is never in it.
type unsyncedSeg struct {
	seq, low    uint64
	user, reloc bool
}

// owed reports whether the entry owes a record an fsync (a header is none).
func (e unsyncedSeg) owed() bool { return e.user || e.reloc }

// recInfo is one record written to a segment. Records sit back to back, so
// each starts where its predecessor ends (the first at segHeaderSize): the
// end offset alone gives every record's offset and size, in 8 bytes. It is
// live while the page table points at that offset (liveAt), which has its seq.
type recInfo struct {
	page uint32
	end  uint32
}

// Open creates or recovers a store.
func Open(opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{
		opts:       opts,
		meta:       make([]core.SegmentMeta, opts.MaxSegments),
		fill:       make([]int64, opts.MaxSegments),
		open:       [2]openSeg{{seg: -1}, {seg: -1}},
		pendingE:   make(map[int32]float64),
		recs:       make([][]recInfo, opts.MaxSegments),
		newest:     make([]uint64, opts.MaxSegments),
		held:       make([]int64, opts.MaxSegments),
		table:      make(map[uint32]pageLoc),
		tombstones: make(map[uint32]pageLoc),
		refs:       make(map[uint32]int32),
		sealing:    -1,
	}
	for i := range s.meta {
		s.meta[i].Capacity = opts.segmentBytes()
		s.meta[i].Free = opts.segmentBytes()
	}
	s.hVictimE = opts.Obs.Histogram("store.victim_e.permille")
	s.cErrFull = opts.Obs.Counter("store.errfull")
	s.hWrite = opts.Obs.Histogram("store.write.ns")
	s.hRead = opts.Obs.Histogram("store.read.ns")
	s.hFsync = opts.Obs.Histogram("store.fsync.ns")
	s.hSealWait = opts.Obs.Histogram("store.seal.wait.ns")
	s.hSyncNs = opts.Obs.Histogram("store.syncpoint.ns")
	s.hSyncN = opts.Obs.Histogram("store.syncpoint.segs")
	s.hCommit = opts.Obs.Histogram("store.commit.ns")
	s.cCommits = opts.Obs.Counter("store.commit.commits")
	s.cRounds = opts.Obs.Counter("store.commit.rounds")
	s.cSyncs = opts.Obs.Counter("store.commit.syncs")
	s.cBacking = opts.Obs.Counter("store.backing.syncs")
	s.gDisk = opts.Obs.Gauge("store.disk.bytes")
	s.gDisk.Set(0)
	s.cUserBytes = opts.Obs.Counter("store.user.bytes")
	s.cGCBytes = opts.Obs.Counter("store.gc.bytes")
	s.cAbsorbed = opts.Obs.Counter("store.user.absorbed")
	s.cWriteIOs = opts.Obs.Counter("store.write.ios")
	s.cReadIOs = opts.Obs.Counter("store.read.ios")
	s.cReadBytes = opts.Obs.Counter("store.read.bytes")
	s.trace = opts.Obs.Trace()
	s.sealq, s.sealDone = make(chan backend, 1), make(chan error, 1)
	if opts.Dir != "" {
		s.unsynced = make(map[int32]unsyncedSeg)
		if opts.Durability != core.DurNone {
			s.waits = make(map[int32][]int32)
		}
	}
	s.run = make([]byte, 0, max(ioUnit, RecordHeaderSize+opts.PageSize))
	size := RecordHeaderSize + opts.PageSize
	s.readBufs = &sync.Pool{New: func() any {
		b := make([]byte, size)
		return &b
	}}
	if opts.Dir == "" {
		s.be = newMemBackend(opts.MaxSegments)
	} else {
		fb, err := newFileBackend(opts.Dir, opts.MaxSegments)
		if err != nil {
			return nil, err
		}
		s.be = fb
	}
	if err := s.recover(); err != nil {
		s.be.close()
		return nil, err
	}
	if opts.Dir != "" && opts.Durability == core.DurSeal {
		go s.syncer()
	} else {
		close(s.sealDone) // no syncer: Close finds it gone
	}
	if opts.BackgroundClean {
		s.cl = newCleaner(s)
		go s.cl.run()
	}
	return s, nil
}

// recover scans every segment and rebuilds the page table from the highest
// sequence numbers.
func (s *Store) recover() error {
	type hit struct {
		loc  pageLoc
		tomb bool
	}
	latest := make(map[uint32]hit)
	var maxSeq, maxInc uint64
	type sealedSeg struct {
		seg, stream int32
		inc         uint64
	}
	var sealed []sealedSeg

	// Batched records (flagBatch) are withheld from `latest` until the scan
	// proves their batch complete: members carry their position (record
	// header pos) and the terminal member flagBatchLast, and the batch's
	// seqs are consecutive (appended under one lock hold), so the group is
	// keyed by its start seq (seq-pos) and complete iff the terminal member
	// was seen and every position up to it is present.
	type batchMember struct {
		page uint32
		loc  pageLoc
		tomb bool
	}
	type batchGroup struct {
		members []batchMember
		lastPos int // position of the flagBatchLast member; -1 until seen
	}
	groups := make(map[uint64]*batchGroup)

	// watermark is the highest seq proven fully durable by any recovered
	// evidence: segment headers stamp the commit watermark at open time
	// (commitWatermarkLocked: a reset victim's new header is stamped after
	// the fsyncs that let its bytes die), snapshotted under the engine lock,
	// so it cannot fall mid-batch. It keeps a committed batch visible after
	// the cleaner recycled some members' segments.
	var watermark uint64

	// One read per segment, into a buffer the first written segment pays
	// for; the walk below never looks past the bytes the file holds, nor
	// past the segment's capacity.
	var segBuf []byte
	for seg := 0; seg < s.opts.MaxSegments; seg++ {
		sz, err := s.be.size(seg)
		if err != nil {
			return err
		}
		s.hold(int32(seg), sz)
		if sz < segHeaderSize {
			continue // never written: stays free
		}
		if segBuf == nil {
			segBuf = make([]byte, segHeaderSize+s.opts.segmentBytes())
		}
		buf := segBuf[:min(sz, int64(len(segBuf)))]
		if err := s.read(int32(seg), 0, buf); err != nil {
			return err
		}
		inc, stream, segW, ok := decodeSegHeader(buf)
		if !ok {
			if string(buf[:len(segMagicStem)]) == segMagicStem {
				return fmt.Errorf("store: segment %d uses on-disk format %q; this version reads only %s (variable-size records) — migrate by draining the old store",
					seg, buf[:len(segMagic)], segMagic)
			}
			// Unrecognized file: treat as free space but do not destroy it
			// until the segment is reused.
			continue
		}
		if stream != userStream && stream != gcStream {
			return fmt.Errorf("store: segment %d belongs to stream %d: the directory was written under routed placement, which this version refuses — migrate by draining the old store",
				seg, stream)
		}
		if segW > watermark {
			watermark = segW
		}
		if inc > maxInc {
			maxInc = inc
		}
		for off := segHeaderSize; ; {
			h, payload, err := decodeRecord(buf[off:], s.opts.PageSize)
			if err != nil {
				break // end of the log, or a torn tail: the segment ends here
			}
			loc := pageLoc{seg: int32(seg), off: uint32(off), seq: h.seq}
			off += RecordHeaderSize + len(payload)
			s.recs[seg] = append(s.recs[seg], recInfo{page: h.page, end: uint32(off)})
			s.newest[seg] = max(s.newest[seg], h.seq)
			if h.seq > maxSeq {
				// maxSeq covers every physical record, discarded batch
				// members included: s.seq must never reuse an on-disk seq.
				maxSeq = h.seq
			}
			tomb := h.flags&flagTombstone != 0
			if h.flags&flagBatch != 0 {
				start := h.seq - uint64(h.pos)
				g := groups[start]
				if g == nil {
					g = &batchGroup{lastPos: -1}
					groups[start] = g
				}
				g.members = append(g.members, batchMember{page: h.page, loc: loc, tomb: tomb})
				if h.flags&flagBatchLast != 0 {
					g.lastPos = int(h.pos)
				}
				continue
			}
			prev, seen := latest[h.page]
			if !seen || h.seq > prev.loc.seq {
				latest[h.page] = hit{loc: loc, tomb: tomb}
			}
		}
		if len(s.recs[seg]) == 0 {
			continue // header only: stays free
		}
		// Every recovered segment is re-sealed; fresh writes go to new
		// segments. Live accounting is finalized below, and SealSeq is
		// assigned once all headers are known.
		sealed = append(sealed, sealedSeg{seg: int32(seg), stream: stream, inc: inc})
	}
	s.stamped = watermark
	// Re-seal in log order, not segment-id scan order: the header
	// incarnation increases with every segment open, so ordering by it
	// restores the age ordering that age-based cleaning and the
	// oldest-first tie-break in scoredSelect depend on. (The free list
	// is popped from the back, so id order is typically the REVERSE of
	// write order — scan-order seal sequences would invert every
	// age-based decision after a restart.)
	sort.Slice(sealed, func(i, j int) bool { return sealed[i].inc < sealed[j].inc })
	for _, ss := range sealed {
		m := &s.meta[ss.seg]
		m.Stream, m.State = ss.stream, core.SegSealed
		m.Up2 = float64(s.newest[ss.seg]) // the stated estimate: its newest record's seq
		s.sealSeq++
		m.SealSeq = s.sealSeq
	}
	// The free pool is every other segment, in id order: the highest id is
	// reused first.
	for seg := range s.meta {
		if s.meta[seg].State == core.SegFree {
			s.free = append(s.free, int32(seg))
		}
	}
	s.freeCount.Store(int64(len(s.free)))
	// Every update appends a record, so the seq clock runs at least as fast
	// as the update clock: restarting both there never runs one backwards.
	s.seq, s.unow = maxSeq, maxSeq
	s.incarnation = maxInc

	// Whole-batch crash atomicity: surface a batch when every member
	// survived, or when it provably committed (its start is at or below
	// the recovered commit watermark — members missing then are garbage
	// the cleaner reclaimed, not a torn write). Otherwise the batch is
	// discarded wholesale, so each touched page falls back to its prior
	// version — still in the log, because cleaning under DurCommit flushes
	// the batch durable before any superseded copy's segment is reused.
	// Discarded members stay in s.recs as garbage for the cleaner.
	for start, g := range groups {
		complete := g.lastPos >= 0 && len(g.members) == g.lastPos+1
		if !complete && start > watermark {
			continue // torn batch: no member becomes visible
		}
		for _, m := range g.members {
			prev, seen := latest[m.page]
			if !seen || m.loc.seq > prev.loc.seq {
				latest[m.page] = hit{loc: m.loc, tomb: m.tomb}
			}
		}
	}

	for page, h := range latest {
		if h.tomb {
			s.tombstones[page] = h.loc
		} else {
			s.table[page] = h.loc
		}
	}
	// Finalize live counts and free bytes per segment.
	for seg := range s.meta {
		m := &s.meta[seg]
		if m.State != core.SegSealed {
			continue
		}
		m.Live, m.Free = 0, m.Capacity
		off := uint32(segHeaderSize)
		for _, r := range s.recs[seg] {
			if _, _, ok := s.liveAt(r.page, int32(seg), off); ok {
				m.Live++
				m.Free -= int64(r.end - off)
			}
			off = r.end
		}
	}
	return nil
}

// liveAt reports whether the index's current version of page is the record
// at off in seg, and if so its seq and whether it is a tombstone (a page is in
// at most one of the two maps).
func (s *Store) liveAt(page uint32, seg int32, off uint32) (seq uint64, tomb, ok bool) {
	loc, ok := s.table[page]
	if !ok {
		tomb = true
		loc, ok = s.tombstones[page]
	}
	return loc.seq, tomb, ok && loc.seg == seg && loc.off == off
}

// read is one counted backend read.
func (s *Store) read(seg int32, off uint32, b []byte) error {
	s.cReadIOs.Inc()
	s.cReadBytes.Add(uint64(len(b)))
	return s.be.read(int(seg), int64(off), b)
}

// recordSize returns the size, header included, of the record at off in seg.
func (s *Store) recordSize(seg int32, off uint32) int64 {
	recs := s.recs[seg]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].end > off })
	return int64(recs[i].end - off)
}

// ReadPage copies page id's current contents into buf (PageSize bytes),
// zero-filling past the length the page was written at: ReadRecord through
// a pooled record buffer.
func (s *Store) ReadPage(id uint32, buf []byte) error {
	if len(buf) < s.opts.PageSize {
		return fmt.Errorf("store: buffer %d smaller than page size %d", len(buf), s.opts.PageSize)
	}
	recBuf := s.readBufs.Get().(*[]byte)
	defer s.readBufs.Put(recBuf)
	page, err := s.ReadRecord(id, func(int) []byte { return *recBuf })
	if err != nil {
		return err
	}
	clear(buf[copy(buf, page):s.opts.PageSize])
	return nil
}

// ReadRecord reads page id's current version in ONE backend read that lands
// where the caller will keep the bytes, verifies the record's checksum and
// identity there, and returns the page at the length it was written: a
// cap-limited slice of that memory, nothing copied, nothing zero-filled. get
// is called once, with the read's size (the page plus the record framing in
// front of it), for a buffer at least that long; it runs under the store's
// read lock — which reads share with each other and with background cleaning
// — so it must not call the store.
func (s *Store) ReadRecord(id uint32, get func(size int) []byte) ([]byte, error) {
	t0 := time.Now()
	defer func() { s.hRead.Record(uint64(time.Since(t0))) }()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, errClosed
	}
	loc, ok := s.table[id]
	if !ok {
		return nil, ErrNotFound
	}
	size := int(s.recordSize(loc.seg, loc.off))
	rec := get(size)[:size]
	if err := s.read(loc.seg, loc.off, rec); err != nil {
		return nil, err
	}
	h, payload, err := decodeRecord(rec, s.opts.PageSize)
	if err != nil {
		return nil, err
	}
	if h.page != id || h.seq != loc.seq {
		return nil, fmt.Errorf("store: mapping corruption for page %d: record holds page %d seq %d, table says seq %d",
			id, h.page, h.seq, loc.seq)
	}
	return payload[:len(payload):len(payload)], nil
}

// Has reports whether page id currently exists (a cheap page-table lookup,
// no I/O). A closed store has no pages.
func (s *Store) Has(id uint32) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	_, ok := s.table[id]
	return ok
}

// WritePage stores data (at most PageSize bytes) as page id's new current
// version: an Apply of one write. The record holds exactly len(data) bytes.
func (s *Store) WritePage(id uint32, data []byte) error {
	if len(data) > s.opts.PageSize {
		return fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, len(data), s.opts.PageSize)
	}
	return s.writeOne(batchOp{id: id, n: len(data)}, data)
}

// DeletePage removes page id, writing a tombstone so the deletion survives
// recovery: an Apply of one deletion.
func (s *Store) DeletePage(id uint32) error {
	// Fast path: a nonexistent page returns ErrNotFound immediately rather
	// than waiting out write admission (which would block below the
	// emergency floor for a tombstone that will never be written). The
	// existence check repeats under the write lock.
	s.mu.RLock()
	_, ok := s.table[id]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return errClosed
	}
	if !ok {
		return ErrNotFound
	}
	return s.writeOne(batchOp{id: id, del: true}, nil)
}

// writeOne applies the one-op batch of op, whose payload is data: the batch
// borrows it, since the apply is done with it before writeOne returns. The
// write histogram covers the whole user-observed latency: admission, the
// apply, retries, and (under DurCommit) the group-commit wait.
func (s *Store) writeOne(op batchOp, data []byte) error {
	t0 := time.Now()
	b := Batch{ops: []batchOp{op}, buf: data}
	err := s.write(nil, &b)
	s.hWrite.Record(uint64(time.Since(t0)))
	return err
}

// invalidate releases page id's current version, advancing its segment's up2
// estimate per §5.2.2, and returns the carried up2 for the new version (zero
// for a first write).
func (s *Store) invalidate(id uint32) float64 {
	loc, ok := s.table[id]
	if !ok {
		return 0
	}
	delete(s.table, id)
	m := &s.meta[loc.seg]
	carried := core.NextUp2(m.Up2, s.unow)
	m.Up2 = carried
	m.Live--
	m.Free += s.recordSize(loc.seg, loc.off)
	return carried
}

// stage makes room for one record of size bytes at the tail of stream's open
// segment (which must exist) in the run buffer, and returns it for the caller
// to put the page into, past the header; appendRecord completes it.
func (s *Store) stage(stream int32, size int) ([]byte, error) {
	seg, fill := s.tail(stream)
	if n := len(s.run); n == 0 || seg != s.runSeg || n+size > cap(s.run) {
		// A run ends where the segment changes or the buffer is full.
		if err := s.flush(); err != nil {
			return nil, err
		}
		s.runSeg, s.runOff = seg, segHeaderSize+fill
	}
	s.run = s.run[:len(s.run)+size]
	return s.run[len(s.run)-size:], nil
}

// appendRecord makes a record of rec — just staged, its page already in place
// — computing header and checksum where it lies: in the log from here on, on
// storage by the end of the lock hold (flush). carried is the page's up2
// estimate, for the segment's seal-time average; pos the batch position
// (flagBatch records only); from the candidate a relocated copy is made of,
// nil for a user's record.
func (s *Store) appendRecord(stream int32, id uint32, flags uint32, pos uint32, rec []byte, carried float64, from *recCand) error {
	seg, fill := s.tail(stream)
	off, size := segHeaderSize+fill, len(rec)
	s.seq++
	encodeRecord(rec, recordHeader{page: id, flags: flags, seq: s.seq, pos: pos})
	if u := s.unsynced; u != nil {
		e := u[seg]
		if flags&flagBatch != 0 && e.low == 0 && s.opts.Durability != core.DurNone {
			e.low = s.seq - uint64(pos)
		}
		u[seg] = unsyncedSeg{seq: s.seq, low: e.low, user: e.user || from == nil, reloc: e.reloc || from != nil}
	}
	end := off + int64(size)
	s.recs[seg] = append(s.recs[seg], recInfo{page: id, end: uint32(end)})
	s.newest[seg] = s.seq
	s.appended(stream, int64(size), carried)
	loc := pageLoc{seg: seg, off: uint32(off), seq: s.seq}
	if from != nil {
		from.off, from.seq = loc.off, loc.seq
		s.relocs = append(s.relocs, from)
	} else if flags&flagTombstone != 0 {
		s.tombstones[id] = loc
	} else {
		s.table[id] = loc
	}
	// Seal as soon as not even a bare header fits; a segment with less room
	// than the next record needs is sealed when that record arrives.
	if end+RecordHeaderSize > segHeaderSize+s.opts.segmentBytes() {
		return s.seal(stream)
	}
	return nil
}

// flush writes the staged run, one backend write, and makes the relocated
// copies in it current. If the write fails the victims' copies stay current
// and the staged ones are dead records; the run stays staged, so the next
// flush — before any other write, or reset, of a segment — writes it again
// and the log has no hole for recovery to stop at.
func (s *Store) flush() error {
	if len(s.run) == 0 {
		return nil
	}
	s.cWriteIOs.Inc()
	err := s.be.write(int(s.runSeg), s.runOff, s.run)
	for _, c := range s.relocs {
		size, to := int64(c.size), pageLoc{s.runSeg, c.off, c.seq}
		if err != nil {
			s.pruned(to.seg, size)
		} else if s.relocated(c.seg, size); c.tomb {
			s.tombstones[c.page] = to
		} else {
			s.table[c.page] = to
		}
	}
	clear(s.relocs) // or they keep an outgrown candidate table alive
	s.relocs = s.relocs[:0]
	if err == nil {
		if s.runOff == 0 { // the run carries the segment's header
			_, _, s.stamped, _ = decodeSegHeader(s.run)
		}
		s.hold(s.runSeg, max(s.held[s.runSeg], s.runOff+int64(len(s.run))))
		s.run = s.run[:0]
	}
	return err
}

// hold notes that segment seg's file holds n bytes.
func (s *Store) hold(seg int32, n int64) {
	s.gDisk.Add(n - s.held[seg])
	s.held[seg] = n
}
