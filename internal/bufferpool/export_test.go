package bufferpool

// Resident returns the number of pages currently cached.
func (p *Pool) Resident() int {
	n := 0
	for _, s := range p.shards {
		s.mu.RLock()
		n += len(s.frames)
		s.mu.RUnlock()
	}
	return n
}
