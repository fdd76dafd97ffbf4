// Package vlog is an in-memory log-structured key-value store with
// variable-size values (RAMCloud-style log-structured memory; the value log of
// a key-value separated LSM): a string-key index over a memory-backed page
// store, internal/store. Each key owns a page id (bufferpool.IDs, first id 1)
// holding its value; a segment holds SegmentBytes of records.
package vlog

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// ErrFull (cleaning cannot make room) and ErrTooLarge (a value longer than
// half a segment less the 24-byte store.RecordHeaderSize) are the store's.
var ErrFull, ErrTooLarge = store.ErrFull, store.ErrTooLarge

// Options configures a Store. SegmentBytes (default 1 MiB, at least 64) and
// MaxSegments (default 64) are the geometry; the rest pass to the page store:
// the cleaning Algorithm (default core.MDC(); routed ones are refused: routed
// placement is simulator-only), FreeLowWater (default CleanBatch+2),
// CleanBatch (default 4), the store's background cleaner switch and
// admission floor (store.Options.BackgroundClean, FreeEmergency), and Obs,
// which receives the store.* and cleaner.* series (nil: the store makes its
// own). A returned Put or Commit is visible to every
// later Get until Close.
type Options struct {
	SegmentBytes, MaxSegments int
	Algorithm                 core.Algorithm
	FreeLowWater, CleanBatch  int
	BackgroundClean           bool
	FreeEmergency             int
	Obs                       *obs.Registry
}

// Store is an in-memory log-structured KV store, safe for concurrent use:
// Gets share the read lock, and Puts, Deletes and Commits hold the write lock
// across their store call. After Close every write fails, Get and Len find
// nothing, and Stats is zero.
type Store struct {
	mu    sync.RWMutex
	st    *store.Store
	index map[string]uint32 // key → page id; nil once closed
	ids   bufferpool.IDs
}

// New creates a store.
func New(o Options) (*Store, error) {
	o.SegmentBytes, o.CleanBatch = cmp.Or(o.SegmentBytes, 1<<20), cmp.Or(o.CleanBatch, 4)
	if o.SegmentBytes < 64 {
		return nil, fmt.Errorf("vlog: invalid geometry %+v", o)
	}
	st, err := store.Open(store.Options{PageSize: o.SegmentBytes/2 - store.RecordHeaderSize, SegmentPages: 2,
		MaxSegments: cmp.Or(o.MaxSegments, 64), Algorithm: o.Algorithm, FreeLowWater: cmp.Or(o.FreeLowWater, o.CleanBatch+2),
		CleanBatch: o.CleanBatch, BackgroundClean: o.BackgroundClean,
		FreeEmergency: o.FreeEmergency, Obs: o.Obs})
	if err != nil {
		return nil, err
	}
	return &Store{st: st, index: map[string]uint32{}, ids: bufferpool.NewIDs(1, nil)}, nil
}

// Close stops the background cleaner (if any) and releases the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index = nil
	return s.st.Close()
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Get returns a copy of key's value. An absent key has id 0, which is no page.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, err := s.st.ReadRecord(s.index[key], func(n int) []byte { return make([]byte, n) })
	return v, err == nil
}

// Put stores value under key, replacing any existing value: one WritePage of
// the key's page. A failed Put (ErrFull) keeps the current value.
func (s *Store) Put(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.index[key]
	if !ok {
		id = s.ids.Allocate()
	}
	err := s.st.WritePage(id, value)
	if err == nil {
		s.index[key] = id
	} else if !ok {
		s.ids.Free(id)
	}
	return err
}

// Delete removes key: one DeletePage, which writes the page's tombstone.
// Deleting an absent key (id 0) is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.index[key]
	err := s.st.DeletePage(id)
	if err == nil {
		delete(s.index, key)
		s.ids.Free(id)
	} else if errors.Is(err, store.ErrNotFound) {
		return nil
	}
	return err
}

// Batch collects Puts and Deletes for one atomic Commit; values are copied
// at Put time. It is not safe for concurrent use, but may be reused (Reset).
type Batch struct {
	keys []string
	vals [][]byte // nil for a Delete
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put adds a key/value write; Delete a key deletion (a no-op for an absent
// key); Len counts the operations; Reset empties the batch for reuse.
func (b *Batch) Put(key string, value []byte) *Batch { return b.add(key, append([]byte{}, value...)) }
func (b *Batch) Delete(key string) *Batch            { return b.add(key, nil) }
func (b *Batch) Len() int                            { return len(b.keys) }
func (b *Batch) Reset()                              { b.keys, b.vals = b.keys[:0], b.vals[:0] }

func (b *Batch) add(key string, val []byte) *Batch {
	b.keys, b.vals = append(b.keys, key), append(b.vals, val)
	return b
}

// Commit atomically applies a batch as one store.Apply, entries in order (a
// later Put/Delete of a key supersedes an earlier one). A key new to the
// store gets an id up front; the index changes, and deleted keys' ids are
// freed, only once the Apply has succeeded.
func (s *Store) Commit(b *Batch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sb, ids := store.NewBatch(), map[string]uint32{} // each key's id after the batch, 0: deleted
	var fresh, freed []uint32
	for i, key := range b.keys {
		id, seen := ids[key]
		if !seen {
			id = s.index[key]
		}
		if b.vals[i] != nil {
			if id == 0 {
				id = s.ids.Allocate()
				fresh = append(fresh, id)
			}
			sb.Write(id, b.vals[i])
		} else if id != 0 {
			sb.Delete(id)
			freed, id = append(freed, id), 0
		}
		ids[key] = id
	}
	if err := s.st.Apply(sb); err != nil {
		for _, id := range fresh {
			s.ids.Free(id)
		}
		return err
	}
	for key, id := range ids {
		if id == 0 {
			delete(s.index, key)
		} else {
			s.index[key] = id
		}
	}
	for _, id := range freed {
		s.ids.Free(id)
	}
	return nil
}

// Stats describes occupancy and cleaning efficiency. Byte counts are the
// store's, record headers and tombstones included; WriteAmp is GC bytes per
// user byte; Commits counts multi-record Commits; Streams is the user and GC
// streams' occupancy; Cleaner is the background cleaner's snapshot (zero without one).
type Stats struct {
	Keys                                           int
	LiveBytes, CapacityBytes, UserWrites, GCWrites uint64
	UserBytes, GCBytes, SegmentsCleaned            uint64
	WriteAmp, MeanEAtClean                         float64
	FreeSegments                                   int
	Streams                                        []core.StreamStats
	Durability                                     string
	Commits                                        uint64
	Background                                     bool
	Cleaner                                        store.CleanerStats
}

// Obs returns the store's metrics registry (always non-nil).
func (s *Store) Obs() *obs.Registry { return s.st.Obs() }

// Stats returns a snapshot of the store counters, zero once closed.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.index == nil {
		return Stats{}
	}
	st := s.st.Stats()
	return Stats{Keys: len(s.index), LiveBytes: st.LiveBytes, CapacityBytes: st.CapacityBytes, UserWrites: st.UserWrites,
		GCWrites: st.GCWrites, UserBytes: st.UserBytes, GCBytes: st.GCBytes, SegmentsCleaned: st.SegmentsCleaned,
		WriteAmp: float64(st.GCBytes) / float64(max(st.UserBytes, 1)), MeanEAtClean: st.MeanEAtClean,
		FreeSegments: st.FreeSegments, Streams: st.Streams, Durability: st.Durability, Commits: st.BatchesApplied,
		Background: st.Background, Cleaner: st.Cleaner}
}

// CheckInvariants validates the index against the store (tests): every key
// owns a live page, the store holds no other, every id handed out is a key's
// or free, and the store checks itself.
func (s *Store) CheckInvariants() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	owned := map[uint32]bool{}
	for key, id := range s.index {
		if owned[id] || !s.st.Has(id) {
			return fmt.Errorf("vlog: key %q holds id %d, not a live page of its own", key, id)
		}
		owned[id] = true
	}
	live, ids := s.st.Stats().LivePages, len(s.index)+len(s.ids.FreeList())
	if live != len(s.index) || ids != int(s.ids.Next())-1 {
		return fmt.Errorf("vlog: %d keys, %d live pages, %d of %d ids accounted for", len(s.index), live, ids, s.ids.Next()-1)
	}
	return s.st.CheckInvariants()
}
