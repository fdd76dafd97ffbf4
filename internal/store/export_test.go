package store

import (
	"testing"
	"time"
)

// crash simulates a process crash for tests: the backend file handles are
// released (so reopening in-process does not exhaust descriptors) without
// sealing open segments or fsyncing anything — exactly the state a real
// crash leaves on disk. A seal's fsync in flight is waited for, and the
// syncer's exit, so no goroutine outlives the store.
func (s *Store) crash() error {
	s.stopCleaner()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealing >= 0 {
		<-s.sealDone // the outcome of the fsync in flight, dropped
		s.sealing = -1
	}
	if !s.closed {
		close(s.sealq)
		<-s.sealDone // the syncer's exit
	}
	s.closed, s.err = true, errClosed
	return s.be.close()
}

// recSeqs returns the seq of each record of segment seg, in s.recs[seg]'s
// order, read off the backend: the record table keeps none.
func (s *Store) recSeqs(t testing.TB, seg int32) []uint64 {
	t.Helper()
	var seqs []uint64
	off := uint32(segHeaderSize)
	for _, r := range s.recs[seg] {
		rec := make([]byte, r.end-off)
		if err := s.be.read(int(seg), int64(off), rec); err != nil {
			t.Fatal(err)
		}
		h, _, err := decodeRecord(rec, s.opts.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		seqs, off = append(seqs, h.seq), r.end
	}
	return seqs
}

// DelaySealFsyncs makes each seal fsync of s wait d first, so the writer runs
// ahead of it (the golden rows' slow-fsync run).
func DelaySealFsyncs(s *Store, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.be = syncHook{s.be, func(seg int) error {
		if int32(seg) == s.sealing {
			time.Sleep(d)
		}
		return nil
	}}
}
