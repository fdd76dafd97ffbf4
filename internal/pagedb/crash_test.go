package pagedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// This file proves the commit contract of the metadata/root page across
// crashes: a commit is one store batch, so a crash that tears it (some
// members on disk, some not) must roll the database back to the PREVIOUS
// commit's image — metadata page included — while a crash after a complete
// commit keeps it. The tear is simulated by destroying one member record's
// CRC on disk, exactly what a lost sector does.
//
// The record scanner below reads the store's documented v3 on-disk format
// (internal/store/record.go): 32-byte segment header, then back-to-back
// records of 24-byte header (pageID 0:4 | length<<8|flags 4:8 | seq 8:16 |
// crc 16:20 | batchPos 20:24) + that many payload bytes; flagBatch = 2. A
// segment file ends at its last record. If the format changes, these
// offsets fail loudly here and in the store's own torn-batch tests.
const (
	tSegHeader = 32
	tRecHeader = 24
	tFlagBatch = 2
	tLenShift  = 8
)

type diskRec struct {
	file string
	off  int
	pos  uint32
}

// scanRecords calls fn with each on-disk record's file, offset and header.
func scanRecords(t *testing.T, dir string, fn func(file string, off int, hdr []byte)) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for off, recSize := tSegHeader, 0; off+tRecHeader <= len(data); off += recSize {
			hdr := data[off : off+tRecHeader]
			recSize = tRecHeader + int(binary.LittleEndian.Uint32(hdr[4:8])>>tLenShift)
			fn(f, off, hdr)
		}
	}
}

// newestBatch locates the on-disk records of the newest (highest start seq)
// multi-record batch, ordered by batch position.
func newestBatch(t *testing.T, dir string) []diskRec {
	t.Helper()
	var bestStart uint64
	byPos := map[uint32]diskRec{}
	scanRecords(t, dir, func(f string, off int, hdr []byte) {
		if binary.LittleEndian.Uint32(hdr[4:8])&tFlagBatch == 0 {
			return
		}
		seq := binary.LittleEndian.Uint64(hdr[8:16])
		pos := binary.LittleEndian.Uint32(hdr[20:24])
		start := seq - uint64(pos)
		if start > bestStart {
			bestStart = start
			byPos = map[uint32]diskRec{}
		}
		if start == bestStart {
			byPos[pos] = diskRec{file: f, off: off, pos: pos}
		}
	})
	if len(byPos) == 0 {
		t.Fatal("no batch records found on disk")
	}
	recs := make([]diskRec, 0, len(byPos))
	for pos := uint32(0); int(pos) < len(byPos); pos++ {
		r, ok := byPos[pos]
		if !ok {
			t.Fatalf("batch position %d missing on disk", pos)
		}
		recs = append(recs, r)
	}
	return recs
}

// newestRecord locates the on-disk record of page id's newest version.
func newestRecord(t *testing.T, dir string, id uint32) diskRec {
	t.Helper()
	var best diskRec
	var bestSeq uint64
	scanRecords(t, dir, func(f string, off int, hdr []byte) {
		if seq := binary.LittleEndian.Uint64(hdr[8:16]); binary.LittleEndian.Uint32(hdr[0:4]) == id && seq > bestSeq {
			best, bestSeq = diskRec{file: f, off: off}, seq
		}
	})
	if best.file == "" {
		t.Fatalf("no record of page %d on disk", id)
	}
	return best
}

// corrupt destroys a record's CRC in place, simulating a member that never
// reached storage.
func (r diskRec) corrupt(t *testing.T) {
	t.Helper()
	f, err := os.OpenFile(r.file, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	crc := make([]byte, 4)
	if _, err := f.ReadAt(crc, int64(r.off+16)); err != nil {
		t.Fatal(err)
	}
	for i := range crc {
		crc[i] ^= 0xFF
	}
	if _, err := f.WriteAt(crc, int64(r.off+16)); err != nil {
		t.Fatal(err)
	}
}

// tornSetup builds a database with two commits — A (the baseline) and B
// (the final batch, which the subtests may tear) — then crashes it.
func tornSetup(t *testing.T) (dir string) {
	t.Helper()
	dir = t.TempDir()
	db, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 120; k++ {
		if err := tr.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil { // commit A
		t.Fatal(err)
	}
	// Commit B: overwrite a spread of keys and add one, touching several
	// pages plus the metadata page.
	for k := uint64(0); k < 120; k += 10 {
		if err := tr.Put(k, val(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Put(777, val(777, 2)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil { // commit B
		t.Fatal(err)
	}
	db.crash()
	return dir
}

func verifyState(t *testing.T, dir string, wantB bool) {
	t.Helper()
	db, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db.Close()
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	wantLen, wantVer := 120, byte(1)
	if wantB {
		wantLen, wantVer = 121, 2
	}
	if tr.Len() != wantLen {
		t.Fatalf("Len = %d, want %d (metadata page rolled to the wrong commit)", tr.Len(), wantLen)
	}
	for k := uint64(0); k < 120; k++ {
		v, ok, err := tr.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%d) after recovery: ok=%v err=%v", k, ok, err)
		}
		ver := byte(1)
		if wantB && k%10 == 0 {
			ver = wantVer
		}
		if !bytes.Equal(v, val(k, ver)) {
			t.Fatalf("key %d recovered at the wrong version (want v%d)", k, ver)
		}
	}
	if _, ok, _ := tr.Get(777); ok != wantB {
		t.Fatalf("commit B's new key present=%v, want %v", ok, wantB)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("recovered tree invariants: %v", err)
	}
	// The database keeps working after recovery.
	if err := tr.Put(888, val(888, 5)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTornCommitRollsBackWholesale(t *testing.T) {
	t.Run("intact final commit survives the crash", func(t *testing.T) {
		dir := tornSetup(t)
		verifyState(t, dir, true)
	})
	t.Run("first member torn", func(t *testing.T) {
		dir := tornSetup(t)
		recs := newestBatch(t, dir)
		recs[0].corrupt(t)
		verifyState(t, dir, false)
	})
	t.Run("middle member torn", func(t *testing.T) {
		dir := tornSetup(t)
		recs := newestBatch(t, dir)
		if len(recs) < 3 {
			t.Fatalf("batch has only %d members; commit B should span several pages", len(recs))
		}
		recs[len(recs)/2].corrupt(t)
		verifyState(t, dir, false)
	})
	t.Run("terminal member (metadata page) torn", func(t *testing.T) {
		dir := tornSetup(t)
		recs := newestBatch(t, dir)
		// The metadata page is written last, so the terminal member IS the
		// meta/root record: tearing it must drop the whole commit.
		recs[len(recs)-1].corrupt(t)
		verifyState(t, dir, false)
	})
}

// leafOf returns the id of the leaf that holds key, faulting only branches.
func leafOf(t *testing.T, db *DB, tr *Tree, key uint64) uint32 {
	t.Helper()
	id := tr.core.Root()
	for level := tr.core.Height(); level > 1; level-- {
		n, err := db.node(id)
		if err != nil {
			t.Fatal(err)
		}
		id = n.Kids[sort.Search(len(n.Keys), func(i int) bool { return n.Keys[i] > key })]
		db.pool.Release(n.Pin)
	}
	return id
}

// TestReadErrorIsNeverAMiss: a leaf whose record fails the store's check is
// an error to every reader — Tree.Get, Tree.Scan and Txn.Get — that wraps
// the store's, never an absent key. The record is corrupted on disk while
// the DB is open and the leaf is not resident, so each read faults it.
func TestReadErrorIsNeverAMiss(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 400; k++ {
		if err := tr.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopened, the DB has faulted no leaf.
	if db, err = Open(durableOpts(dir)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if tr, err = db.Tree("t"); err != nil {
		t.Fatal(err)
	}
	if h := tr.core.Height(); h < 2 {
		t.Fatalf("tree height %d: no branch above the leaf", h)
	}
	const key = 200
	leaf := leafOf(t, db, tr, key)
	newestRecord(t, dir, leaf).corrupt(t)
	_, want := db.st.ReadRecord(leaf, func(size int) []byte { return make([]byte, size) })
	if want == nil {
		t.Fatal("the store read the corrupted leaf without an error")
	}
	wraps := func(err error) bool {
		for ; err != nil; err = errors.Unwrap(err) {
			if err.Error() == want.Error() {
				return true
			}
		}
		return false
	}

	if v, ok, err := tr.Get(key); !wraps(err) || ok || v != nil {
		t.Errorf("Tree.Get = %q, %v, %v; want an error wrapping %q", v, ok, err, want)
	}
	visited := 0
	if err := tr.Scan(key, key+10, func(uint64, []byte) bool { visited++; return true }); !wraps(err) || visited != 0 {
		t.Errorf("Tree.Scan = %v after %d keys; want an error wrapping %q before any", err, visited, want)
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Rollback()
	if v, ok, err := txn.Get("t", key); !wraps(err) || ok || v != nil {
		t.Errorf("Txn.Get = %q, %v, %v; want an error wrapping %q", v, ok, err, want)
	}
}
