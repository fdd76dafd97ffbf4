package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk layout (format "PGWALOG1"). The log is a sequence of generation
// files wal-<gen>.log, each an append-only run of CRC-framed records:
//
//	generation header (28 bytes):
//	    magic "PGWALOG1" (8) | generation (8) | base commit seq (8) | crc (4)
//	record:
//	    payload length (4) | crc (4, CRC-32C over type+payload) |
//	    type (1) | payload
//
// Record types and payloads (little-endian):
//
//	bind:     treeID (4) | nameLen (2) | name
//	put:      txnID (8) | treeID (4) | key (8) | value
//	delete:   txnID (8) | treeID (4) | key (8)
//	droptree: txnID (8) | treeID (4)
//	commit:   txnID (8) | commit seq (8) | op count (4)
//
// A transaction's records — any bind records its trees need, its ops, and
// the terminal commit record — are appended in ONE buffered write under the
// log mutex, so on disk they are contiguous and only a physical tear at the
// file tail can split them. The commit record is the transaction's
// durability marker: a scan that does not reach it discards the
// transaction's ops wholesale (and Open truncates them off the file), which
// is what makes a torn final transaction vanish as a unit. Tree names are
// interned per generation: a bind record maps a compact tree id to its
// name, and rotation (Truncate) starts a fresh intern table so a generation
// is always self-describing.
//
// The commit seq is the log's transaction clock: assigned at append time
// under the log mutex (so seq order is exactly apply order when the caller
// serializes Append with its own state mutation), monotone across
// generations, and compared against the checkpoint watermark during replay.
const (
	logMagic      = "PGWALOG1"
	genHeaderSize = 28

	recBind     = 1
	recPut      = 2
	recDelete   = 3
	recDropTree = 4
	recCommit   = 5

	recFrameSize = 8 // payload length (4) + crc (4)

	// maxRecordPayload bounds a single record (a put's value is capped far
	// lower by the page engines); a length beyond it is treated as a tear.
	maxRecordPayload = 1 << 26
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

// encodeGenHeader writes a generation file header.
func encodeGenHeader(dst []byte, gen, baseSeq uint64) {
	copy(dst[:8], logMagic)
	binary.LittleEndian.PutUint64(dst[8:16], gen)
	binary.LittleEndian.PutUint64(dst[16:24], baseSeq)
	binary.LittleEndian.PutUint32(dst[24:28], crc32.Checksum(dst[:24], castagnoli))
}

// decodeGenHeader parses a generation file header.
func decodeGenHeader(b []byte) (gen, baseSeq uint64, ok bool) {
	if len(b) < genHeaderSize || string(b[:8]) != logMagic {
		return 0, 0, false
	}
	if crc32.Checksum(b[:24], castagnoli) != binary.LittleEndian.Uint32(b[24:28]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[8:16]), binary.LittleEndian.Uint64(b[16:24]), true
}

// beginRecord opens a record of the given type at the end of buf: it reserves
// the frame and writes the type byte, and returns where the record starts. The
// caller appends the record's fields and closes it with endRecord.
func beginRecord(buf []byte, typ byte) ([]byte, int) {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0, typ), len(buf)
}

// endRecord fills in the frame of the record opened at start — its length
// and the checksum of the type byte and fields, where they lie.
func endRecord(buf []byte, start int) []byte {
	body := buf[start+recFrameSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, castagnoli))
	return buf
}

// record is one decoded frame: the type byte plus its raw payload.
type record struct {
	typ     byte
	payload []byte
}

// nextRecord decodes the record at b[off:]. A short frame, an implausible
// length, or a checksum mismatch returns ok=false: the scan treats the
// position as the tail tear.
func nextRecord(b []byte, off int) (rec record, end int, ok bool) {
	if off+recFrameSize > len(b) {
		return record{}, off, false
	}
	n := int(binary.LittleEndian.Uint32(b[off : off+4]))
	if n < 1 || n > maxRecordPayload || off+recFrameSize+n > len(b) {
		return record{}, off, false
	}
	crc := binary.LittleEndian.Uint32(b[off+4 : off+8])
	body := b[off+recFrameSize : off+recFrameSize+n]
	if crc32.Checksum(body, castagnoli) != crc {
		return record{}, off, false
	}
	return record{typ: body[0], payload: body[1:]}, off + recFrameSize + n, true
}

// Record encoders. Append-side only: each frames its record in place at the
// end of buf — the log's retained staging buffer, one transaction, one write
// — so encoding allocates nothing once that buffer has grown.

func appendBind(buf []byte, id uint32, name string) []byte {
	buf, at := beginRecord(buf, recBind)
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	return endRecord(buf, at)
}

func appendOp(buf []byte, txnID uint64, treeID uint32, op Op) []byte {
	var typ byte
	switch op.Kind {
	case OpPut:
		typ = recPut
	case OpDelete:
		typ = recDelete
	case OpDropTree:
		typ = recDropTree
	default:
		panic(fmt.Sprintf("wal: unencodable op kind %v", op.Kind))
	}
	buf, at := beginRecord(buf, typ)
	buf = binary.LittleEndian.AppendUint64(buf, txnID)
	buf = binary.LittleEndian.AppendUint32(buf, treeID)
	if typ != recDropTree {
		buf = binary.LittleEndian.AppendUint64(buf, op.Key)
	}
	if typ == recPut {
		buf = append(buf, op.Value...)
	}
	return endRecord(buf, at)
}

func appendCommit(buf []byte, txnID, seq uint64, opCount int) []byte {
	buf, at := beginRecord(buf, recCommit)
	buf = binary.LittleEndian.AppendUint64(buf, txnID)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(opCount))
	return endRecord(buf, at)
}
