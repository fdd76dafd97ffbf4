package seglog

import (
	"errors"
	"slices"
)

// Batch collects writes and deletions for one atomic apply. The engine wraps
// it in its own builder type. A write's payload is either copied into the
// batch's arena when it is added (Put), so callers may reuse their buffers
// immediately, or does not exist yet (PutReserved): the batch then carries
// its size only, and Fill produces the bytes at apply time, straight into the
// engine's own buffer. A Batch is not safe for concurrent use, but may be
// reused (Reset) once applied.
type Batch struct {
	Ops []Op
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
	newSegs := l.plan(b)
	if l.cl != nil {
		// Segment opens pass need=2 (the last free segment is the
		// cleaner's), so the pool must cover newSegs plus that one.
		if len(l.free) >= newSegs+1 {
			return nil
		}
		return l.cfg.ErrFull
	}
	// Cleaning appends to the GC stream only, so it leaves the plan valid.
	target := l.cfg.FreeLowWater + newSegs - 1
	if newSegs == 0 || len(l.free) >= target {
		return nil
	}
	if err := l.cleanUntil(target); err != nil {
		deletesOnly := !slices.ContainsFunc(b.Ops, func(op Op) bool { return !op.Del })
		if deletesOnly && errors.Is(err, l.cfg.ErrFull) && len(l.free) >= newSegs+l.userNeed()-1 {
			return nil
		}
		return err
	}
	return nil
}

// plan counts, without mutating any log state, the fresh segments the
// batch's appends to the user stream consume, replaying exactly what the
// apply loop will do, so the reservation is exact.
func (l *Log[R]) plan(b *Batch) (newSegs int) {
	rem := int64(-1) // room left in the open user segment; -1: none is open
	if seg := l.open[UserStream].seg; seg >= 0 {
		rem = l.cfg.SegmentBytes - l.fill[seg]
	}
	for i := range b.Ops {
		size := b.Ops[i].Size
		if rem < size {
			newSegs++
			rem = l.cfg.SegmentBytes
		}
		rem -= size
	}
	return newSegs
}
