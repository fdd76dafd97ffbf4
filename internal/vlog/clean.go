package vlog

import "repro/internal/seglog"

// The cleaning cycle itself (select → relocate → release, foreground and
// background) lives in internal/seglog; this file is the value log's side
// of seglog.Engine. core.SegCleaning freezes a victim's bytes, so candidate
// records stay valid while the background cleaner installs them chunk by
// chunk between user operations. The log is volatile: nothing to load,
// flush or sync.

// recCand is one live record captured at selection time. Its key and offset
// stay valid while the victim is in SegCleaning.
type recCand struct {
	off  int32
	size int32
	key  string
}

// OpenSegment (seglog.Engine) allocates the segment's slab on first use.
func (s *Store) OpenSegment(seg, stream int32) error {
	if s.segs[seg] == nil {
		s.segs[seg] = make([]byte, s.opts.SegmentBytes)
	}
	return nil
}

// LiveRecords (seglog.Engine) walks victim seg's records and snapshots the
// ones the index still points at.
func (s *Store) LiveRecords(seg int32, dst []seglog.Cand[recCand]) []seglog.Cand[recCand] {
	for off, end := 0, int(s.log.Fill(seg)); off < end; {
		l := loc{seg: seg, off: int32(off)}
		key, val := s.decode(l)
		size := recSize(key, len(val))
		if cur, ok := s.index[key]; ok && cur == l {
			dst = append(dst, seglog.Cand[recCand]{Rec: recCand{off: l.off, size: int32(size), key: key}})
		}
		off += size
	}
	return dst
}

// Install (seglog.Engine) appends a relocated copy of c if it is still
// current, keeping victim accounting truthful (a relocated record no longer
// counts against its victim). The value is appended straight out of the
// victim's slab: SegCleaning keeps the source stable and the destination is
// a different, open segment.
func (s *Store) Install(c *seglog.Cand[recCand], _ []byte) (int64, error) {
	src := loc{seg: c.Seg, off: c.Rec.off}
	if cur, ok := s.index[c.Rec.key]; !ok || cur != src {
		return 0, nil // overwritten or deleted since selection
	}
	size := int64(c.Rec.size)
	stream, err := s.log.GCRoom(c.Up2, size)
	if err != nil {
		return 0, err
	}
	_, val := s.decode(src)
	s.writeRecord(stream, c.Rec.key, val, c.Up2)
	s.log.Relocated(c.Seg, size)
	return size, nil
}

func (s *Store) Load(c []seglog.Cand[recCand], _ *[]byte) (int, error) { return len(c), nil }
func (s *Store) SealSegment(int32) error                               { return nil }
func (s *Store) Flush() error                                          { return nil }
func (s *Store) SyncRelocated(bool) error                              { return nil }
func (s *Store) ReleaseSegment(int32)                                  {}
