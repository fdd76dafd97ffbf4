package seglog

import (
	"fmt"

	"repro/internal/core"
)

// Tick is a key's update history: the update-clock tick of its last user
// write and the smoothed interval between successive writes
// (core.SmoothInterval).
type Tick struct {
	last uint64
	est  uint32
}

// Clock is the routing clock: each live key's Tick, the router's signal. It
// exists only when a router needs it (nil otherwise).
type Clock[K comparable] map[K]Tick

// route folds the interval observed at tick now into prev and routes by the
// result (a router is configured).
func (l *Log[K, R]) route(prev Tick, now uint64) (int32, Tick) {
	if prev.last != 0 {
		prev.est = core.SmoothInterval(prev.est, now-prev.last)
	}
	prev.last = now
	return core.ClampStream(l.cfg.Algorithm.Router.Route(uint64(prev.est), -1), l.streams), prev
}

// Batch collects writes and deletions for one atomic apply. The engines wrap
// it in their own builder types. A write's payload is either copied into the
// batch's arena when it is added (Put), so callers may reuse their buffers
// immediately, or does not exist yet (PutReserved): the batch then carries
// its size only, and Fill produces the bytes at apply time, straight into the
// engine's own buffer. A Batch is not safe for concurrent use, but may be
// reused (Reset) once applied.
type Batch[K comparable] struct {
	Ops []Op[K]
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
type Op[K comparable] struct {
	Key K
	Del bool
	// Size is the log bytes this operation appends: the record size for a
	// write (or a tombstone record), 0 for a delete that appends nothing.
	Size int64

	off, n int // payload range in buf (writes only); off < 0: reserved, Fill has it
}

// Placement is where one batch operation goes (zero for an operation that
// appends nothing).
type Placement struct {
	Stream int32
	Tick   Tick
}

// Put adds a write of data (copied) under key.
func (b *Batch[K]) Put(key K, data []byte) {
	off := len(b.buf)
	b.buf = append(b.buf, data...)
	b.Ops = append(b.Ops, Op[K]{Key: key, off: off, n: len(data)})
}

// PutReserved adds a write of n bytes under key whose payload Fill will
// produce at apply time — the copy-free form of Put.
func (b *Batch[K]) PutReserved(key K, n int) {
	b.Ops = append(b.Ops, Op[K]{Key: key, off: -1, n: n})
}

// Delete adds a deletion of key.
func (b *Batch[K]) Delete(key K) { b.Ops = append(b.Ops, Op[K]{Key: key, Del: true}) }

// Reset empties the batch for reuse, keeping its allocations.
func (b *Batch[K]) Reset() {
	b.Ops = b.Ops[:0]
	b.buf = b.buf[:0]
}

// Data returns op's payload in the arena (Put writes only); DataLen the
// payload length of any write, Reserved whether Fill is to produce it.
// CopyData puts write Ops[i]'s payload into dst, DataLen bytes long: the
// arena's copy, or what Fill makes of a reserved one.
func (b *Batch[K]) Data(op *Op[K]) []byte { return b.buf[op.off : op.off+op.n] }
func (op *Op[K]) DataLen() int            { return op.n }
func (op *Op[K]) Reserved() bool          { return op.off < 0 }
func (b *Batch[K]) CopyData(i int, dst []byte) {
	if op := &b.Ops[i]; op.Reserved() {
		b.Fill(i, dst)
	} else {
		copy(dst, b.Data(op))
	}
}

// Reserve plans the batch (every Op.Size set) and secures the free segments
// it needs, before any old version is invalidated: once it returns nil the
// apply loop (RoomReserved per op) can no longer fail with ErrFull. In
// foreground mode it runs cleaning first (to the same headroom contract as
// per-op writes: every segment open happens at or above the low-water
// mark); in background mode it fails fast with ErrFull and lets the
// admission loop in Write retry while the cleaner catches up.
func (l *Log[K, R]) Reserve(b *Batch[K]) error {
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
func (l *Log[K, R]) plan(b *Batch[K]) (newSegs int) {
	var vticks Clock[K]
	if l.clock != nil {
		vticks = make(Clock[K])
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
		if op.Size > 0 {
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
		}
		if op.Del && vticks != nil {
			// The apply loop drops the clock at a delete, so a same-batch
			// rewrite routes as history-free — mirror that.
			vticks[op.Key] = Tick{}
		}
	}
	return newSegs
}
