package sim

// Location reports where page p currently lives: in the write buffer
// (buffered=true), in segment seg at slot slot, or nowhere (ok=false).
func (s *Sim) Location(p uint32) (seg int32, slot int, buffered, ok bool) {
	if int(p) >= len(s.pageLoc) {
		return 0, 0, false, false
	}
	switch loc := s.pageLoc[p]; {
	case loc == 0:
		return 0, 0, false, false
	case loc&bufTag != 0:
		return 0, 0, true, true
	default:
		g := loc - 1
		return int32(g / uint64(s.cfg.SegmentPages)), int(g % uint64(s.cfg.SegmentPages)), false, true
	}
}
