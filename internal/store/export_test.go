package store

import "time"

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
