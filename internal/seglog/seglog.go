// Package seglog is the segment-log core of the one record engine, the page
// store (internal/store: page records in checksummed files, or in memory —
// the value log internal/vlog is a key index over a memory-backed store). It
// owns everything about segments that is neither bytes nor index: the
// metadata table the cleaning policies read, the free pool, the two streams'
// open segments (user and GC), the update clock, the low-water rule, the
// cleaning cycle in both execution modes (foreground under the engine lock;
// background as the one cleaner.Target), batch space planning, and write
// admission.
//
// The seam is decisions and accounting in the core, bytes and index in the
// engine. The engine plugs in through Engine, called at segment, victim and
// relocation-candidate granularity; the per-write append path is direct
// method calls on the concrete Log (Room → Tail → Appended), the engine
// moving its own records in between.
//
// Two promises tie the sides together. SegCleaning freezes a victim: the
// core never opens, reuses or re-selects it until release, so an engine may
// read its records with no lock held. And release follows a successful
// Engine.SyncRelocated, which may leave copies in a still-open segment
// unsynced: release may precede the copies' fsync, reuse may not. Such a
// victim is backing (Engine.Backs) — so every live record always has an
// intact durable copy.
package seglog

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cleaner"
	"repro/internal/core"
	"repro/internal/obs"
)

// Config is what an engine tells the core about itself: engine constants,
// then the knobs of the engine's Options (validated here).
type Config struct {
	// Name prefixes error messages, obs series and span legs ("store").
	Name string
	// ErrFull is the engine's capacity-exhausted sentinel; every ErrFull the
	// core reports is or wraps it. ErrClosed is what a closed log answers.
	ErrFull, ErrClosed error
	// MaxSegments × SegmentBytes (record bytes per segment) is the geometry.
	MaxSegments  int
	SegmentBytes int64
	// RelocChunk is how many candidates background relocation installs per
	// lock hold, bounding writer stalls behind the cleaner.
	RelocChunk int

	Algorithm     core.Algorithm
	FreeLowWater  int
	CleanBatch    int
	Durability    core.Durability
	Background    bool
	FreeEmergency int
	Obs           *obs.Registry
}

// Validate applies the shared defaults (Algorithm, Obs) and rejects
// configurations no segment log can run.
func (c *Config) Validate() error {
	if c.Algorithm.Policy == nil {
		c.Algorithm = core.MDC()
	}
	if c.Algorithm.Router != nil {
		return fmt.Errorf("%s: algorithm %s routes appends across streams; routed placement is simulator-only (internal/sim)",
			c.Name, c.Algorithm.Name)
	}
	if !c.Durability.Valid() {
		return fmt.Errorf("%s: invalid durability level %d", c.Name, c.Durability)
	}
	if c.MaxSegments < c.FreeLowWater+2 || c.FreeLowWater <= c.CleanBatch {
		return fmt.Errorf("%s: need MaxSegments (%d) >= FreeLowWater (%d) + 2 and FreeLowWater > CleanBatch (%d) so relocations always fit",
			c.Name, c.MaxSegments, c.FreeLowWater, c.CleanBatch)
	}
	if c.Algorithm.Exact {
		return fmt.Errorf("%s: exact-rate algorithm %s needs a workload oracle; use the estimator variant", c.Name, c.Algorithm.Name)
	}
	// FreeEmergency defaulting/validation lives in cleaner.Options.withDefaults;
	// zero passes straight through to cleaner.Start.
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	return nil
}

// Cand is one live record of a victim segment, captured at selection time.
// The core reads Seg and Up2 (GC order); Rec is the engine's
// own addressing of the record, a concrete struct — never boxed.
type Cand[R any] struct {
	Seg int32
	Up2 float64
	Rec R
}

// Engine is the bytes-and-index side of a segment log. Except for Load and
// SyncRelocated(false), every method is called with the engine lock held
// for writing. Its unit of I/O is the segment run, not the record: an engine
// may stage the appends of a lock hold (a Write's op, an install chunk) until
// the Flush that ends it, and a cycle reads its victims a window at a time.
type Engine[R any] interface {
	// OpenSegment prepares free segment seg to take stream's appends
	// (reset its storage, write its header).
	OpenSegment(seg, stream int32) error
	// SealSegment runs the engine's seal-time durability for seg, whose
	// metadata the core has just sealed.
	SealSegment(seg int32) error
	// LiveRecords appends to dst one candidate (Rec only) per record of
	// victim seg that the engine's index still points at.
	LiveRecords(seg int32, dst []Cand[R]) []Cand[R]
	// Load reads the payloads of the first n > 0 candidates — as many as one
	// I/O into *win covers — and verifies their identity, with NO lock held
	// in background mode: SegCleaning froze the victims. The engine allocates
	// *win, the cycle's owner keeps it; a Load overwrites the one before.
	Load(cands []Cand[R], win *[]byte) (n int, err error)
	// Install relocates c, loaded into win, if it is still current (a
	// concurrent overwrite or delete may have superseded it): GCRoom, append,
	// Appended, Relocated. It returns the bytes appended, 0 when nothing was.
	Install(c *Cand[R], win []byte) (int64, error)
	// Flush puts the appends staged since the last one on storage.
	Flush() error
	// SyncRelocated is the durability point: every relocated copy reaches
	// storage before it returns nil. locked reports whether the caller
	// holds the engine lock (the background cycle does not, so its fsyncs
	// stall nobody).
	SyncRelocated(locked bool) error
	// ReleaseSegment drops the engine's per-segment state for a victim
	// that is returning to the free pool.
	ReleaseSegment(seg int32)
	// Backs reports whether free segment seg is backing: a relocated copy of
	// one of its records still owes an fsync. The core opens it only when no
	// other will do (pick); OpenSegment then covers the copies first.
	Backs(seg int32) bool
}

// The two append streams: user writes fill one, relocated copies the other.
const (
	UserStream int32 = 0
	GCStream   int32 = 1
)

// openSeg is a stream's open segment: its id (-1 = none), the records
// appended so far and their summed carried up2 (§5.2.2 seal-time average).
type openSeg struct {
	seg    int32
	count  int
	up2Sum float64
}

// Log is one segment log. Its records are keyed by page id; R is the
// engine's relocation-candidate addressing.
// Methods without their own locking note require the engine lock.
type Log[R any] struct {
	// Meta is the per-segment table the policies read. Engines adjust Live
	// and Free only through Appended/Invalidate/Relocated (and recovery).
	Meta []core.SegmentMeta
	// Unow is the update clock: one tick per user update, never wall-clock.
	Unow uint64
	// Closed makes the background cycle stand down; the engine sets it.
	Closed bool

	cfg Config
	mu  *sync.RWMutex
	eng Engine[R]

	free      []int32
	freeCount atomic.Int64 // len(free), readable without the lock
	open      [2]openSeg   // indexed by stream
	fill      []int64      // per segment: record bytes appended so far

	sealSeq     uint64
	gcWrites    uint64
	cleanedSegs uint64
	sumEAtClean float64
	pendingE    map[int32]float64 // emptiness-at-selection of in-flight victims

	cl    *cleaner.Cleaner // background cleaner; nil in foreground mode
	win   []byte           // I/O window of the foreground cycles (engine lock held throughout)
	cands []Cand[R]        // their candidate table, kept between them like win

	hVictimE           *obs.Histogram // <name>.victim_e.permille: emptiness at victim selection
	cErrFull           *obs.Counter   // <name>.errfull episodes
	trace              *obs.Trace
	legAdmit, legApply string
}

// New builds a log over cfg (already validated) with every segment free,
// segment 0 first out. mu is the engine's lock; the core takes it only in
// the background cycle and in Write.
func New[R any](cfg Config, mu *sync.RWMutex, eng Engine[R]) *Log[R] {
	l := &Log[R]{
		Meta:     make([]core.SegmentMeta, cfg.MaxSegments),
		cfg:      cfg,
		mu:       mu,
		eng:      eng,
		fill:     make([]int64, cfg.MaxSegments),
		open:     [2]openSeg{{seg: -1}, {seg: -1}},
		pendingE: make(map[int32]float64),
		hVictimE: cfg.Obs.Histogram(cfg.Name + ".victim_e.permille"),
		cErrFull: cfg.Obs.Counter(cfg.Name + ".errfull"),
		trace:    cfg.Obs.Trace(),
		legAdmit: cfg.Name + ".admit",
		legApply: cfg.Name + ".apply",
	}
	for i := range l.Meta {
		l.Meta[i].Capacity = cfg.SegmentBytes
		l.Meta[i].Free = cfg.SegmentBytes
	}
	for i := cfg.MaxSegments - 1; i >= 0; i-- {
		l.free = append(l.free, int32(i))
	}
	l.freeCount.Store(int64(len(l.free)))
	return l
}

// AdoptSealed re-seals a recovered segment. Engines call it in log order
// (not segment-id order): seal sequences restore the age ordering that
// age-based cleaning and the oldest-first tie-break depend on. stream is
// UserStream or GCStream.
func (l *Log[R]) AdoptSealed(seg, stream int32) {
	m := &l.Meta[seg]
	m.Stream = stream
	m.State = core.SegSealed
	l.sealSeq++
	m.SealSeq = l.sealSeq
}

// RebuildFree recomputes the free pool once recovery has adopted the sealed
// segments: every other segment, in id order (the highest id is reused
// first).
func (l *Log[R]) RebuildFree() {
	l.free = l.free[:0]
	for seg := range l.Meta {
		if l.Meta[seg].State == core.SegFree {
			l.free = append(l.free, int32(seg))
		}
	}
	l.freeCount.Store(int64(len(l.free)))
}

// StartCleaner launches the background cleaner if the configuration asks
// for one; engines call it once their (recovered) state is in place.
func (l *Log[R]) StartCleaner() error {
	if !l.cfg.Background {
		return nil
	}
	cl, err := cleaner.Start(l.Target(), cleaner.Options{
		LowWater:       l.cfg.FreeLowWater,
		EmergencyFloor: l.cfg.FreeEmergency,
		Batch:          l.cfg.CleanBatch,
		TotalSegments:  l.cfg.MaxSegments,
		Obs:            l.cfg.Obs,
	})
	l.cl = cl
	return err
}

// StopCleaner stops the background cleaner, if any. Call it unlocked.
func (l *Log[R]) StopCleaner() {
	if l.cl != nil {
		l.cl.Stop()
	}
}

// Write runs op — one write or one batch — under the engine lock behind
// write admission (a closed log fails with ErrClosed instead). In background
// mode a write can lose the race for the last free segments to concurrent
// writers; those transient ErrFulls are retried through admission (which
// blocks below the emergency floor until the cleaner catches up). A non-nil
// parent gets "<name>.admit" and "<name>.apply" child spans.
func (l *Log[R]) Write(parent *obs.Span, op func() error) error {
	for attempt := 0; ; attempt++ {
		if l.cl != nil {
			leg := parent.Child(l.legAdmit)
			err := l.cl.Admit()
			leg.End()
			if err != nil {
				if errors.Is(err, cleaner.ErrExhausted) {
					return fmt.Errorf("%w: %v", l.cfg.ErrFull, err)
				}
				return fmt.Errorf("%s: write admission: %w", l.cfg.Name, err)
			}
		}
		leg := parent.Child(l.legApply)
		l.mu.Lock()
		err := l.cfg.ErrClosed
		if !l.Closed {
			err = cmp.Or(op(), l.eng.Flush())
		}
		lowWater := l.cl != nil && len(l.free) < l.cfg.FreeLowWater
		l.mu.Unlock()
		leg.End()
		if lowWater {
			l.cl.Kick()
		}
		if errors.Is(err, l.cfg.ErrFull) && l.cl != nil && attempt < 4 {
			continue
		}
		return err
	}
}

// Room guarantees the user stream's open segment can take size more bytes,
// sealing and reopening as needed. It runs foreground cleaning below the
// low-water mark (background mode kicks the cleaner from the write path
// instead) and leaves the last free segment for relocation.
func (l *Log[R]) Room(size int64) error {
	if ok, err := l.fits(UserStream, size); ok || err != nil {
		return err
	}
	if l.cl == nil && len(l.free) < l.cfg.FreeLowWater {
		if err := l.cleanUntil(l.cfg.FreeLowWater); err != nil {
			return err
		}
	}
	return l.RoomReserved(size)
}

// RoomReserved is Room for a batch's apply loop: cleaning and headroom
// decisions already happened in Reserve, so it only seals a full open
// segment and takes a fresh one when needed.
func (l *Log[R]) RoomReserved(size int64) error {
	return l.room(UserStream, size, l.userNeed())
}

// GCRoom guarantees the GC stream room for a relocation of size bytes; GC
// appends may consume the reserve they are defending.
func (l *Log[R]) GCRoom(size int64) error {
	return l.room(GCStream, size, 1)
}

// userNeed is the free-pool floor a user append's segment open respects: in
// background mode the last free segment is left for the cleaner's GC
// output, so relocation can always make progress.
func (l *Log[R]) userNeed() int {
	if l.cl != nil {
		return 2
	}
	return 1
}

// fits reports whether stream has an open segment with size free bytes,
// sealing one that is too full.
func (l *Log[R]) fits(stream int32, size int64) (bool, error) {
	seg := l.open[stream].seg
	if seg >= 0 && l.fill[seg]+size > l.cfg.SegmentBytes {
		if err := l.Seal(stream); err != nil {
			return false, err
		}
	}
	return l.open[stream].seg >= 0, nil
}

// room makes stream's open segment fit size more bytes, taking a free
// segment when it has none (left). need is the minimum free-pool size the
// caller may consume from.
func (l *Log[R]) room(stream int32, size int64, need int) error {
	if ok, err := l.fits(stream, size); ok || err != nil {
		return err
	}
	if len(l.free) < need {
		l.cErrFull.Inc()
		l.trace.Emit(obs.EvErrFull, int64(len(l.free)), int64(need))
		return l.cfg.ErrFull
	}
	i := l.pick()
	seg := l.free[i]
	if err := l.eng.OpenSegment(seg, stream); err != nil {
		return err // seg stays in the pool
	}
	l.free = slices.Delete(l.free, i, i+1)
	l.freeCount.Store(int64(len(l.free)))
	l.Meta[seg] = core.SegmentMeta{
		Capacity: l.cfg.SegmentBytes,
		Free:     l.cfg.SegmentBytes,
		Stream:   stream,
		State:    core.SegOpen,
	}
	l.fill[seg] = 0
	l.open[stream] = openSeg{seg: seg}
	return nil
}

// pick returns the free-pool index of the segment room opens: the topmost
// that backs nothing, else the topmost. It looks no deeper than the first
// segment not written since start-up (a free one keeps its last SealSeq; 0 is
// never): opening a never-used file would grow the log's footprint.
func (l *Log[R]) pick() int {
	top := len(l.free) - 1
	for i := top; i >= 0 && l.Meta[l.free[i]].SealSeq != 0; i-- {
		if !l.eng.Backs(l.free[i]) {
			return i
		}
	}
	return top
}

// Tail returns stream's open segment (which must exist, see Room) and the
// offset its next record goes to.
func (l *Log[R]) Tail(stream int32) (seg int32, off int64) {
	seg = l.open[stream].seg
	return seg, l.fill[seg]
}

// Appended accounts one record of size bytes the engine just wrote at
// stream's tail, carrying the record's up2 estimate into the segment's
// seal-time average.
func (l *Log[R]) Appended(stream int32, size int64, carried float64) {
	o := &l.open[stream]
	o.count++
	o.up2Sum += carried
	l.fill[o.seg] += size
	m := &l.Meta[o.seg]
	m.Live++
	m.Free -= size
}

// Invalidate releases a current record of size bytes in seg (superseded or
// deleted by a user update), advancing the segment's up2 estimate per
// §5.2.2 and returning the carried value for the new version.
func (l *Log[R]) Invalidate(seg int32, size int64) float64 {
	m := &l.Meta[seg]
	carried := core.NextUp2(m.Up2, l.Unow)
	m.Up2 = carried
	m.Live--
	m.Free += size
	return carried
}

// Relocated credits victim for one record of size bytes now living
// elsewhere and counts the GC write; Pruned credits it for a record that
// needed no copy. Victim accounting stays truthful mid-cycle, which is what
// lets Abort release a fully drained victim.
func (l *Log[R]) Relocated(victim int32, size int64) {
	l.Pruned(victim, size)
	l.gcWrites++
}

func (l *Log[R]) Pruned(victim int32, size int64) {
	m := &l.Meta[victim]
	m.Live--
	m.Free += size
}

// Seal closes stream's open segment, if any: the segment's up2 starts as
// the average carried up2 of its members (§5.2.2), then the engine's
// seal-time durability runs.
func (l *Log[R]) Seal(stream int32) error {
	o := &l.open[stream]
	if o.seg < 0 {
		return nil
	}
	seg := o.seg
	m := &l.Meta[seg]
	m.State = core.SegSealed
	l.sealSeq++
	m.SealSeq = l.sealSeq
	m.SealTime = l.Unow
	if o.count > 0 {
		m.Up2 = o.up2Sum / float64(o.count)
	}
	*o = openSeg{seg: -1}
	return l.eng.SealSegment(seg)
}

// Stats is the core's share of an engine's stats snapshot.
type Stats struct {
	FreeSegments    int
	SealedSegments  int // sealed or mid-clean: still holding sealed data
	GCWrites        uint64
	SegmentsCleaned uint64
	MeanEAtClean    float64
	Streams         []core.StreamStats
}

// Stats snapshots the counters and the occupancy of the user and GC
// streams. Caller holds at least the read lock.
func (l *Log[R]) Stats() Stats {
	st := Stats{
		FreeSegments:    len(l.free),
		GCWrites:        l.gcWrites,
		SegmentsCleaned: l.cleanedSegs,
		Streams:         make([]core.StreamStats, len(l.open)),
	}
	if l.cleanedSegs > 0 {
		st.MeanEAtClean = l.sumEAtClean / float64(l.cleanedSegs)
	}
	for seg := range l.Meta {
		m := &l.Meta[seg]
		if m.State == core.SegFree {
			continue
		}
		ss := &st.Streams[m.Stream]
		ss.Segments++
		ss.Live += int(m.Live)
		ss.LiveBytes += m.Capacity - m.Free
		if m.State == core.SegOpen {
			ss.OpenSegments++
			ss.OpenFill = float64(l.fill[seg]) / float64(m.Capacity)
		} else {
			st.SealedSegments++
		}
	}
	return st
}

// CleanerStats reports whether cleaning runs in the background and, if so,
// the cleaner's lifecycle snapshot. It takes no engine lock.
func (l *Log[R]) CleanerStats() (bool, cleaner.Stats) {
	if l.cl == nil {
		return false, cleaner.Stats{}
	}
	return true, l.cl.Stats()
}
