package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk layout (format "PGWALOG3"). The log is one file, wal.log: a
// header and then one CRC-framed frame per transaction (little-endian):
//
//	header (20 bytes):
//	    magic "PGWALOG3" (8) | base commit seq (8) | crc (4)
//	frame:
//	    body length (4) | crc (4, CRC-32C over the body) |
//	    body: txnID (8) | commit seq (8) | entries
//
// An entry is a kind byte and then its fields (uvarints are
// encoding/binary's):
//
//	put:      1 | treeID uvarint | key (8) | valueLen uvarint | value
//	delete:   2 | treeID uvarint | key (8)
//	droptree: 3 | treeID uvarint
//	bind:     4 | treeID uvarint | nameLen uvarint | name
//
// A transaction is appended as one frame in ONE write under the log mutex,
// so only a physical tear at the file tail can split it. The frame is the
// transaction's durability marker: a frame that fails its length, checksum,
// seq or entry decoding ends the committed prefix (and Open truncates the
// file there), which is what makes a torn final transaction vanish as a
// unit. Tree names are interned per truncation: a bind entry, ahead of a
// tree's first use, maps the next compact tree id (1, 2, … in order) to its
// name, and Truncate, which empties the file in place under a new header,
// starts a fresh intern table, so the file is always self-describing.
//
// Truncation issues no fsync, so until the next one a crash can leave the
// new header over stale bytes of the frames it dropped. Their seqs are at or
// below the new base, so the scan ends at the first of them.
//
// The commit seq is the log's transaction clock: assigned at append time
// under the log mutex (so seq order is exactly apply order when the caller
// serializes Append with its own state mutation), one more than the
// previous frame's (the first frame's is one more than the header's base),
// and compared against the checkpoint watermark during replay.
const (
	logMagic     = "PGWALOG3"
	logMagicStem = "PGWALOG" // every version of the format starts with it
	headerSize   = 20

	entBind = 4 // the op entries' kind bytes are their OpKind

	frameSize = 8 // body length (4) + crc (4), ahead of the body

	// maxFrameBody bounds a frame's body; a length beyond it is treated as a
	// tear, so Append refuses a transaction that would exceed it.
	maxFrameBody = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpKind identifies a logical tree operation in the log.
type OpKind uint8

// The replayable operations.
const (
	OpPut OpKind = iota + 1
	OpDelete
	OpDropTree
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpDropTree:
		return "droptree"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one logical tree operation: the redo unit pagedb logs before
// mutating its trees. Value is only meaningful for OpPut; Key only for
// OpPut and OpDelete.
type Op struct {
	Kind  OpKind
	Tree  string
	Key   uint64
	Value []byte
}

// Txn is one committed transaction as the replay scan surfaces it: its ops
// in append (= apply) order plus the commit seq that orders it against the
// checkpoint watermark.
type Txn struct {
	ID  uint64
	Seq uint64
	Ops []Op
}

// encodeHeader writes the log file's header.
func encodeHeader(dst []byte, baseSeq uint64) {
	copy(dst[:8], logMagic)
	binary.LittleEndian.PutUint64(dst[8:16], baseSeq)
	binary.LittleEndian.PutUint32(dst[16:20], crc32.Checksum(dst[:16], castagnoli))
}

// decodeHeader parses the log file's header.
func decodeHeader(b []byte) (baseSeq uint64, ok bool) {
	if len(b) < headerSize || string(b[:8]) != logMagic {
		return 0, false
	}
	if crc32.Checksum(b[:16], castagnoli) != binary.LittleEndian.Uint32(b[16:20]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[8:16]), true
}

// Frame encoders. Append-side only: a frame is built in place at the end of
// buf — the log's retained staging buffer, one transaction, one write — so
// encoding allocates nothing once that buffer has grown.

// beginFrame opens a frame at the end of buf, reserving its length and
// checksum; endFrame fills them in over the body appended since.
func beginFrame(buf []byte, txnID, seq uint64) []byte {
	buf = append(buf, make([]byte, frameSize)...)
	buf = binary.LittleEndian.AppendUint64(buf, txnID)
	return binary.LittleEndian.AppendUint64(buf, seq)
}

func endFrame(buf []byte) []byte {
	body := buf[frameSize:]
	binary.LittleEndian.PutUint32(buf, uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(body, castagnoli))
	return buf
}

func appendBind(buf []byte, id uint32, name string) []byte {
	buf = binary.AppendUvarint(append(buf, entBind), uint64(id))
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	return append(buf, name...)
}

func appendOp(buf []byte, treeID uint32, op Op) []byte {
	if op.Kind < OpPut || op.Kind > OpDropTree {
		panic(fmt.Sprintf("wal: unencodable op kind %v", op.Kind))
	}
	buf = binary.AppendUvarint(append(buf, byte(op.Kind)), uint64(treeID))
	if op.Kind != OpDropTree {
		buf = binary.LittleEndian.AppendUint64(buf, op.Key)
	}
	if op.Kind == OpPut {
		buf = binary.AppendUvarint(buf, uint64(len(op.Value)))
		buf = append(buf, op.Value...)
	}
	return buf
}

// nextFrame returns the body of the frame at b[off:]. A short frame, an
// implausible length or a checksum mismatch returns ok=false: the scan
// treats the position as the tail tear.
func nextFrame(b []byte, off int) (body []byte, ok bool) {
	if off+frameSize > len(b) {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(b[off:]))
	if n < 16 || n > maxFrameBody || n > len(b)-off-frameSize { // 16: txnID + seq
		return nil, false
	}
	body = b[off+frameSize : off+frameSize+n]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[off+4:]) {
		return nil, false
	}
	return body, true
}

// decodeEntries decodes a frame's entries onto ops, against the tree names
// the file has bound so far (id i+1 is names[i]), and returns both
// with the frame's binds appended. ok=false means the entries are malformed
// or use a tree they have not bound; the caller's names are then as they
// were.
func decodeEntries(p []byte, names []string, ops []Op) ([]string, []Op, bool) {
	for len(p) > 0 {
		kind := OpKind(p[0])
		id, n := binary.Uvarint(p[1:])
		if n <= 0 {
			return nil, nil, false
		}
		p = p[1+n:]
		if kind == entBind {
			l, n := binary.Uvarint(p)
			if n <= 0 || id != uint64(len(names))+1 || l > uint64(len(p)-n) {
				return nil, nil, false
			}
			names = append(names, string(p[n:n+int(l)]))
			p = p[n+int(l):]
			continue
		}
		if id < 1 || id > uint64(len(names)) || kind < OpPut || kind > OpDropTree {
			return nil, nil, false
		}
		op := Op{Kind: kind, Tree: names[id-1]}
		if kind != OpDropTree {
			if len(p) < 8 {
				return nil, nil, false
			}
			op.Key = binary.LittleEndian.Uint64(p)
			p = p[8:]
		}
		if kind == OpPut {
			l, n := binary.Uvarint(p)
			if n <= 0 || l > uint64(len(p)-n) {
				return nil, nil, false
			}
			op.Value = p[n : n+int(l) : n+int(l)]
			p = p[n+int(l):]
		}
		ops = append(ops, op)
	}
	return names, ops, true
}
