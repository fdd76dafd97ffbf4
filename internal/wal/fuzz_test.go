package wal

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzWALScan: whatever bytes follow a valid header, the scan does
// not panic, surfaces the seqs base+1, base+2, … and no others, and ends at a
// frame boundary; Open repairs the file to that boundary, and a scan of the
// repaired file gives the same transactions and finds no tear.
func FuzzWALScan(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for i, ops := range [][]Op{
		{{Kind: OpPut, Tree: "a", Key: 1, Value: []byte("one")}, {Kind: OpPut, Tree: "b", Key: 2, Value: nil}},
		{},
		{{Kind: OpDelete, Tree: "a", Key: 1}, {Kind: OpDelete, Tree: "b", Key: 2}, {Kind: OpPut, Tree: "b", Key: 3, Value: bytes.Repeat([]byte{7}, 200)}},
	} {
		if _, err := l.Append(uint64(i+1), ops); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(logPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	frames := data[headerSize:]
	f.Add(uint64(0), frames)
	f.Add(uint64(0), frames[:len(frames)-3])
	f.Add(uint64(5), frames) // the first frame's seq is not base+1
	flipped := bytes.Clone(frames)
	flipped[len(flipped)/2] ^= 1
	f.Add(uint64(0), flipped)
	f.Add(uint64(0), []byte{})
	// A checksummed frame after them whose entry has the unassigned kind 3
	// (on tree 1, which the first frame binds): the scan ends before it.
	f.Add(uint64(0), refFrame(bytes.Clone(frames), 4, 4, []byte{3, 1}))

	f.Fuzz(func(t *testing.T, base uint64, tail []byte) {
		base &= 1<<63 - 1 // seqs never wrap
		file := make([]byte, headerSize, headerSize+len(tail))
		encodeHeader(file, base)
		file = append(file, tail...)
		var txns []*Txn
		sc, err := scanFrames(file, base, func(txn *Txn) error {
			txns = append(txns, copyTxn(txn))
			return nil
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, txn := range txns {
			if txn.Seq != base+uint64(i)+1 {
				t.Fatalf("transaction %d has seq %d, want %d", i, txn.Seq, base+uint64(i)+1)
			}
		}
		if sc.lastSeq != base+uint64(len(txns)) {
			t.Fatalf("lastSeq %d after %d transactions from base %d", sc.lastSeq, len(txns), base)
		}
		off := headerSize
		for off < sc.tail {
			body, ok := nextFrame(file, off)
			if !ok {
				t.Fatalf("no frame at %d, short of the reported tail %d", off, sc.tail)
			}
			off += frameSize + len(body)
		}
		if off != sc.tail {
			t.Fatalf("the reported tail %d is inside the frame ending at %d", sc.tail, off)
		}

		dir := t.TempDir()
		path := logPath(dir)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(repaired) != sc.tail {
			t.Fatalf("repaired file is %d bytes, want the tail %d", len(repaired), sc.tail)
		}
		if got := collect(t, l, 0); !reflect.DeepEqual(got, txns) {
			t.Fatalf("the repaired file replays %d transactions, the scan gave %d", len(got), len(txns))
		}
		if sc2, err := scanFrames(repaired, base, nil, 0); err != nil || sc2.tail != len(repaired) {
			t.Fatalf("a re-scan of the repaired file stops at %d of %d (%v)", sc2.tail, len(repaired), err)
		}
	})
}
