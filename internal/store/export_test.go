package store

import "repro/internal/cleaner"

// crash simulates a process crash for tests: the backend file handles are
// released (so reopening in-process does not exhaust descriptors) without
// sealing open segments or writing a checkpoint — exactly the state a real
// crash leaves on disk.
func (s *Store) crash() error {
	s.stopCleaner()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.be.close()
}

// cleanPhases exposes the cleaner state machine's phases to tests so crash
// points can be placed between them (e.g. after relocation but before
// release, the window where live pages must exist in two on-disk copies).
func (s *Store) cleanPhases() cleaner.Target { return &target{s: s} }
