package store

// crash simulates a process crash for tests: the backend file handles are
// released (so reopening in-process does not exhaust descriptors) without
// sealing open segments or fsyncing anything — exactly the state a real
// crash leaves on disk.
func (s *Store) crash() error {
	s.stopCleaner()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed, s.err = true, errClosed
	return s.be.close()
}
