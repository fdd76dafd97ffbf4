package bufferpool

import "fmt"

// Model is the §6.3 buffer cache: a single-threaded CLOCK over residency,
// reference and dirty bits that records, in order, the id of every page a
// dirty eviction or a flush writes. It holds no page contents and must be
// used from one goroutine. The embedded IDs is its page-id allocator (Next
// and FreeList are promoted; free a page with FreePage, which also drops its
// frame).
type Model struct {
	IDs
	frames map[uint32]int // page id -> ring index
	ring   []modelFrame
	hand   int
	writes []uint32
	stats  Stats
}

type modelFrame struct {
	id               uint32
	ref, dirty, live bool
}

// New returns a cache model holding at most capacity pages, whose first
// page id is 1 (0 is the B+-tree core's nil link).
func New(capacity int) *Model {
	if capacity < 1 {
		panic(fmt.Sprintf("bufferpool: capacity %d < 1", capacity))
	}
	return &Model{
		IDs:    NewIDs(1, nil),
		frames: make(map[uint32]int),
		stats:  Stats{Capacity: capacity, Shards: 1},
	}
}

// Allocate returns a fresh page id, resident and dirty (a newly created
// page must eventually reach storage). It is neither a hit nor a miss.
func (m *Model) Allocate() uint32 {
	id := m.IDs.Allocate()
	m.insert(id, true)
	return id
}

// FreePage returns a page id to the allocator. A freed page needs no final
// write: its frame is dropped clean.
func (m *Model) FreePage(id uint32) {
	if i, ok := m.frames[id]; ok {
		m.ring[i].live, m.ring[i].dirty = false, false
		delete(m.frames, id)
	}
	m.IDs.Free(id)
}

// Touch records a read access: a hit refreshes the reference bit, a miss
// faults the page in (evicting if full).
func (m *Model) Touch(id uint32) { m.access(id, false) }

// Dirty records a write access: Touch plus the dirty bit.
func (m *Model) Dirty(id uint32) { m.access(id, true) }

func (m *Model) access(id uint32, dirty bool) {
	if i, ok := m.frames[id]; ok {
		f := &m.ring[i]
		f.ref = true
		f.dirty = f.dirty || dirty
		m.stats.Hits++
		return
	}
	m.stats.Misses++
	m.insert(id, dirty)
}

// insert gives page id a frame: a new one while the ring is short of
// capacity, else the first frame the hand reaches that is dead (a freed
// page) or unreferenced, clearing reference bits on the way (second chance).
func (m *Model) insert(id uint32, dirty bool) {
	if len(m.ring) < m.stats.Capacity {
		m.frames[id] = len(m.ring)
		m.ring = append(m.ring, modelFrame{id: id, ref: true, dirty: dirty, live: true})
		return
	}
	for m.ring[m.hand].live && m.ring[m.hand].ref {
		m.ring[m.hand].ref = false
		m.hand = (m.hand + 1) % len(m.ring)
	}
	if v := m.ring[m.hand]; v.live {
		m.stats.Evictions++
		if v.dirty {
			m.stats.DirtyEvictions++
			m.writes = append(m.writes, v.id)
		}
		delete(m.frames, v.id)
	}
	m.ring[m.hand] = modelFrame{id: id, ref: true, dirty: dirty, live: true}
	m.frames[id] = m.hand
	m.hand = (m.hand + 1) % len(m.ring)
}

// FlushDirty writes out every dirty resident page in frame order (a
// checkpoint) and returns how many; the pages stay resident, now clean.
func (m *Model) FlushDirty() int {
	n := 0
	for i := range m.ring {
		if f := &m.ring[i]; f.live && f.dirty {
			m.writes = append(m.writes, f.id)
			f.dirty = false
			n++
		}
	}
	m.stats.Flushes += uint64(n)
	return n
}

// Writes returns the page-write trace so far. The caller must not retain it
// across further activity.
func (m *Model) Writes() []uint32 { return m.writes }

// Stats returns the model's counters.
func (m *Model) Stats() Stats { return m.stats }
