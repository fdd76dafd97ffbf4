package seglog

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
)

// Tick is a key's update history: the update-clock tick of its last user
// write and the smoothed interval between successive writes
// (core.SmoothInterval).
type Tick struct {
	last uint64
	est  uint32
}

// Clock is the routing clock: each live page's Tick, the router's signal. It
// exists only when a router needs it (nil otherwise).
type Clock map[uint32]Tick

// route folds the interval observed at tick now into prev and routes by the
// result (a router is configured).
func (l *Log[R]) route(prev Tick, now uint64) (int32, Tick) {
	if prev.last != 0 {
		prev.est = core.SmoothInterval(prev.est, now-prev.last)
	}
	prev.last = now
	return core.ClampStream(l.cfg.Algorithm.Router.Route(uint64(prev.est), -1), l.streams), prev
}

// Batch collects writes and deletions for one atomic apply. The engine wraps
// it in its own builder type. A write's payload is either copied into the
// batch's arena when it is added (Put), so callers may reuse their buffers
// immediately, or does not exist yet (PutReserved): the batch then carries
// its size only, and Fill produces the bytes at apply time, straight into the
// engine's own buffer. A Batch is not safe for concurrent use, but may be
// reused (Reset) once applied.
type Batch struct {
	Ops []Op
	// Plan is each operation's placement, filled in by Reserve: the stream
	// it routes to and the routing tick to install, both computed against a
	// virtual copy of the log state, so planning mutates nothing.
	Plan []Placement
	// Fill writes the payload of reserved write Ops[i] into dst (exactly the
	// reserved length). The engine calls it once per reserved write, in batch
	// order, with its lock held, and only once nothing can fail the batch any
	// more — so it cannot fail either, and must not call back into the engine.
	Fill func(i int, dst []byte)
	buf  []byte // arena holding every Put's payload
}

// Op is one batch operation. The engine sets Size before Reserve.
type Op struct {
	Key uint32
	Del bool
	// Size is the log bytes this operation appends: the record size of a
	// write or of a deletion's tombstone.
	Size int64

	off, n int // payload range in buf (writes only); off < 0: reserved, Fill has it
}

// Placement is where one batch operation goes.
type Placement struct {
	Stream int32
	Tick   Tick
}

// Put adds a write of data (copied) under key.
func (b *Batch) Put(key uint32, data []byte) {
	off := len(b.buf)
	b.buf = append(b.buf, data...)
	b.Ops = append(b.Ops, Op{Key: key, off: off, n: len(data)})
}

// PutReserved adds a write of n bytes under key whose payload Fill will
// produce at apply time — the copy-free form of Put.
func (b *Batch) PutReserved(key uint32, n int) {
	b.Ops = append(b.Ops, Op{Key: key, off: -1, n: n})
}

// Delete adds a deletion of key.
func (b *Batch) Delete(key uint32) { b.Ops = append(b.Ops, Op{Key: key, Del: true}) }

// Reset empties the batch for reuse, keeping its allocations.
func (b *Batch) Reset() {
	b.Ops = b.Ops[:0]
	b.buf = b.buf[:0]
}

// DataLen returns the payload length of any write, Reserved whether Fill is
// to produce it. CopyData puts write Ops[i]'s payload into dst, DataLen bytes
// long: the arena's copy, or what Fill makes of a reserved one.
func (op *Op) DataLen() int   { return op.n }
func (op *Op) Reserved() bool { return op.off < 0 }
func (b *Batch) CopyData(i int, dst []byte) {
	if op := &b.Ops[i]; op.Reserved() {
		b.Fill(i, dst)
	} else {
		copy(dst, b.buf[op.off:op.off+op.n])
	}
}

// Reserve plans the batch (every Op.Size set) and secures the free segments
// it needs, before any old version is invalidated: once it returns nil the
// apply loop (RoomReserved per op) can no longer fail with ErrFull. In
// foreground mode it runs cleaning first (to the same headroom contract as
// per-op writes: every segment open happens at or above the low-water
// mark); in background mode it fails fast with ErrFull and lets the
// admission loop in Write retry while the cleaner catches up. A batch of only
// deletions frees at least the tombstones it writes, so where cleaning cannot
// reach the mark it may draw on the cleaning reserve (foreground only): that
// is how a full log is drained.
func (l *Log[R]) Reserve(b *Batch) error {
	for guard := 0; ; guard++ {
		newSegs := l.plan(b)
		if l.cl != nil {
			// Segment opens pass need=2 (the last free segment is the
			// cleaner's), so the pool must cover newSegs plus that one.
			if len(l.free) >= newSegs+1 {
				return nil
			}
			return l.cfg.ErrFull
		}
		target := func() int { return l.LowWater() + newSegs - 1 }
		if newSegs == 0 || len(l.free) >= target() {
			return nil
		}
		if guard > 2*l.cfg.MaxSegments {
			return fmt.Errorf("%s: batch reservation cannot converge: %w", l.cfg.Name, l.cfg.ErrFull)
		}
		if err := l.cleanUntil(target); err != nil {
			deletesOnly := !slices.ContainsFunc(b.Ops, func(op Op) bool { return !op.Del })
			if deletesOnly && errors.Is(err, l.cfg.ErrFull) && len(l.free) >= l.plan(b)+l.userNeed()-1 {
				return nil
			}
			return err
		}
		// Cleaning relocated records into the open segments, so the
		// routing/space plan is stale: replan against the new state.
	}
}

// plan computes, without mutating any log state, where each record will go
// and how many fresh segments the whole batch consumes. The virtual clock
// and per-stream room replay exactly what the apply loop will do, so the
// reservation is exact.
func (l *Log[R]) plan(b *Batch) (newSegs int) {
	var vticks Clock
	if l.clock != nil {
		vticks = make(Clock)
	}
	// Remaining bytes in each stream's open segment; -1 when none is open
	// (every record size exceeds it, forcing a fresh segment).
	rem := make([]int64, l.streams)
	for st := range rem {
		rem[st] = -1
		if seg := l.open[st].seg; seg >= 0 {
			rem[st] = l.cfg.SegmentBytes - l.fill[seg]
		}
	}
	b.Plan = append(b.Plan[:0], make([]Placement, len(b.Ops))...)
	vunow := l.Unow
	for i := range b.Ops {
		op, pl := &b.Ops[i], &b.Plan[i]
		vunow++
		if vticks != nil {
			prev, ok := vticks[op.Key]
			if !ok {
				prev = l.clock[op.Key]
			}
			pl.Stream, pl.Tick = l.route(prev, vunow)
			vticks[op.Key] = pl.Tick
		}
		if rem[pl.Stream] < op.Size {
			newSegs++
			rem[pl.Stream] = l.cfg.SegmentBytes
		}
		rem[pl.Stream] -= op.Size
		if op.Del && vticks != nil {
			// The apply loop drops the clock at a delete, so a same-batch
			// rewrite routes as history-free — mirror that.
			vticks[op.Key] = Tick{}
		}
	}
	return newSegs
}
