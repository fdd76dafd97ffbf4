package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// backend abstracts segment storage: per-segment files on disk, or byte
// slices in memory (for tests and cache-like deployments).
type backend interface {
	// write stores b at off within segment seg.
	write(seg int, off int64, b []byte) error
	// read fills b from off within segment seg, all of which must exist.
	read(seg int, off int64, b []byte) error
	// size returns the current byte size of segment seg (0 if absent).
	size(seg int) (int64, error)
	// reset discards segment seg's contents.
	reset(seg int) error
	// sync makes segment seg durable.
	sync(seg int) error
	close() error
}

// memBackend keeps segments as in-memory byte slices.
type memBackend struct {
	segs [][]byte
}

func newMemBackend(n int) *memBackend { return &memBackend{segs: make([][]byte, n)} }

func (m *memBackend) write(seg int, off int64, b []byte) error {
	end := off + int64(len(b))
	if n := end - int64(len(m.segs[seg])); n > 0 {
		// append, not an exact-size copy: a segment filled record by record
		// would otherwise be reallocated once per record.
		m.segs[seg] = append(m.segs[seg], make([]byte, n)...)
	}
	copy(m.segs[seg][off:end], b)
	return nil
}

func (m *memBackend) read(seg int, off int64, b []byte) error {
	if data := m.segs[seg]; off+int64(len(b)) <= int64(len(data)) {
		copy(b, data[off:])
		return nil
	}
	return fmt.Errorf("store: reading segment %d @%d: %w", seg, off, io.ErrUnexpectedEOF)
}

func (m *memBackend) size(seg int) (int64, error) { return int64(len(m.segs[seg])), nil }

// reset keeps the segment's slab: the next fill reuses it.
func (m *memBackend) reset(seg int) error {
	m.segs[seg] = m.segs[seg][:0]
	return nil
}

func (m *memBackend) sync(int) error { return nil }
func (m *memBackend) close() error   { return nil }

// fileBackend stores one file per segment under a directory. The handle
// table is guarded by a mutex because the background cleaner reads victim
// segments without holding the store lock; the I/O itself uses ReadAt/
// WriteAt, which are safe for concurrent use on the same *os.File.
type fileBackend struct {
	dir string
	mu  sync.Mutex
	// files is the lazily-opened handle per segment; access under mu.
	files []*os.File
}

func newFileBackend(dir string, n int) (*fileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	// A CHECKPOINT file carried a deletion set this version does not read:
	// without it, a page whose tombstone record was pruned could come back.
	if _, err := os.Stat(filepath.Join(dir, "CHECKPOINT")); err == nil {
		return nil, fmt.Errorf("store: %s holds a CHECKPOINT file, which this version neither reads nor writes — migrate by draining the old store", dir)
	}
	// Recovery reads segments below n only: a written one at or above it
	// would lose its pages without a word.
	names, _ := fs.Glob(os.DirFS(dir), "[0-9][0-9][0-9][0-9][0-9][0-9].seg")
	for _, name := range names {
		seg, _ := strconv.Atoi(name[:6])
		path := filepath.Join(dir, name)
		if st, err := os.Stat(path); seg >= n && (err != nil || st.Size() > 0) {
			return nil, fmt.Errorf("store: segment file %s is at or above MaxSegments %d: open with the MaxSegments it was written with", path, n)
		}
	}
	return &fileBackend{dir: dir, files: make([]*os.File, n)}, nil
}

func (f *fileBackend) path(seg int) string {
	return filepath.Join(f.dir, fmt.Sprintf("%06d.seg", seg))
}

func (f *fileBackend) file(seg int) (*os.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.files[seg] != nil {
		return f.files[seg], nil
	}
	fh, err := os.OpenFile(f.path(seg), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening segment %d: %w", seg, err)
	}
	f.files[seg] = fh
	return fh, nil
}

func (f *fileBackend) write(seg int, off int64, b []byte) error {
	fh, err := f.file(seg)
	if err != nil {
		return err
	}
	if _, err := fh.WriteAt(b, off); err != nil {
		return fmt.Errorf("store: writing segment %d @%d: %w", seg, off, err)
	}
	return nil
}

func (f *fileBackend) read(seg int, off int64, b []byte) error {
	fh, err := f.file(seg)
	if err != nil {
		return err
	}
	if _, err := fh.ReadAt(b, off); err != nil {
		return fmt.Errorf("store: reading segment %d @%d: %w", seg, off, err)
	}
	return nil
}

// size creates nothing: a segment's file is created when it is first written.
func (f *fileBackend) size(seg int) (int64, error) {
	st, err := os.Stat(f.path(seg))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: stat segment %d: %w", seg, err)
	}
	return st.Size(), nil
}

func (f *fileBackend) reset(seg int) error {
	fh, err := f.file(seg)
	if err != nil {
		return err
	}
	if err := fh.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating segment %d: %w", seg, err)
	}
	return nil
}

func (f *fileBackend) sync(seg int) error {
	f.mu.Lock()
	fh := f.files[seg]
	f.mu.Unlock()
	if fh == nil {
		return nil
	}
	if err := fh.Sync(); err != nil {
		return fmt.Errorf("store: syncing segment %d: %w", seg, err)
	}
	return nil
}

func (f *fileBackend) close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for _, fh := range f.files {
		if fh == nil {
			continue
		}
		if err := fh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
