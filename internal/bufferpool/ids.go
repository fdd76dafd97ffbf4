package bufferpool

// IDs is a page-id allocator: the next never-used id plus the freed ids,
// handed out again last-freed-first. Every tree of a database draws from one
// IDs, as they would share one tablespace file. It is not synchronised — its
// owner serialises access (pagedb under its exclusive guard, Model by being
// single-threaded).
type IDs struct {
	next uint32
	free []uint32
}

// NewIDs returns an allocator whose first fresh id is next and whose free
// list is a copy of free, the last id handed out first: a new database's
// start, or a reopened one's recovered state.
func NewIDs(next uint32, free []uint32) IDs {
	return IDs{next: next, free: append([]uint32(nil), free...)}
}

// Allocate returns the most recently freed id, or a fresh one.
func (a *IDs) Allocate() uint32 {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		return id
	}
	a.next++
	return a.next - 1
}

// Free returns id to the allocator.
func (a *IDs) Free(id uint32) { a.free = append(a.free, id) }

// Next returns the next fresh id: the size of the page universe.
func (a *IDs) Next() uint32 { return a.next }

// FreeList returns the freed ids in allocation-stack order (NewIDs(Next(),
// FreeList()) continues identically). The slice is the allocator's own: read
// it before the next Allocate or Free.
func (a *IDs) FreeList() []uint32 { return a.free }
