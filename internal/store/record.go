package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk layout (format v3, "LSSEG003"). Each segment file is a
// fixed-capacity append log of variable-size records:
//
//	segment header (32 bytes):
//	    magic "LSSEG003" (8) | incarnation (8) | stream (4) | reserved (4) |
//	    commit watermark (8)
//	record (24-byte header + the page's bytes, 0..PageSize of them):
//	    pageID (4) | length<<8|flags (4) | seq (8) | crc (4) | batchPos (4) | payload
//
// A record stores exactly the bytes the writer handed over — a half-empty
// B-tree page costs half a page — and its length rides in the upper 24 bits
// of the flags word. The crc (CRC-32C) covers pageID, length, flags, seq,
// batchPos and the payload, so a torn or corrupt record is detected and
// treated as the end of the segment during recovery. seq is a global LSN:
// the record with the highest seq for a page is its current version. A
// tombstone (flagTombstone) marks a deletion and is a bare header.
//
// Batch commit markers: the records of a multi-record batch (Store.Apply)
// carry flagBatch and their position within the batch in batchPos; the
// final record additionally carries flagBatchLast. Batch records are
// appended under one lock hold, so their seqs are consecutive and the
// batch's full seq range is recoverable from any member: it starts at
// seq-batchPos and ends at the flagBatchLast member. Recovery surfaces a
// batch when every member is present, OR when the batch provably
// committed even though some members have since been garbage-collected:
// the header commit watermark is the highest seq known fully durable when
// the segment was opened (under DurSeal: the seq before the first batch with
// a member no fsync has covered), snapshotted under the engine lock so it
// cannot land mid-batch — a batch starting at or below the recovered
// watermark is committed. A torn batch (the commit was never acknowledged) is
// discarded wholesale, never partially.
//
// Any other "LSSEG…" format is refused loudly rather than silently
// recovered as empty.
const (
	segMagic         = "LSSEG003"
	segMagicStem     = "LSSEG" // every version of the format starts with it
	segHeaderSize    = 32
	RecordHeaderSize = 24 // the framing in front of every record's page bytes
	flagTombstone    = 1
	flagBatch        = 2
	flagBatchLast    = 4
	flagMask         = flagTombstone | flagBatch | flagBatchLast
	lenShift         = 8 // the payload length sits above the flag byte
	maxPageSize      = 1<<(32-lenShift) - 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type recordHeader struct {
	page  uint32
	flags uint32
	seq   uint64
	// pos is the record's position within its batch (flagBatch records
	// only; 0 otherwise).
	pos uint32
}

// encodeRecord makes a record of dst, whose payload is already in place past
// the first recHeaderSize bytes: it writes the header in front of it and the
// checksum over both.
func encodeRecord(dst []byte, h recordHeader) {
	binary.LittleEndian.PutUint32(dst[0:4], h.page)
	binary.LittleEndian.PutUint32(dst[4:8], h.flags|uint32(len(dst)-RecordHeaderSize)<<lenShift)
	binary.LittleEndian.PutUint64(dst[8:16], h.seq)
	binary.LittleEndian.PutUint32(dst[20:24], h.pos)
	binary.LittleEndian.PutUint32(dst[16:20], recordCRC(dst))
}

// recordCRC covers everything except the crc field itself: bytes [0,16)
// (page, length and flags, seq), [20,24) (batchPos) and the payload. The
// length and batchPos must be covered — recovery's walk and its
// batch-completeness accounting trust them.
func recordCRC(b []byte) uint32 {
	crc := crc32.Checksum(b[0:16], castagnoli)
	crc = crc32.Update(crc, castagnoli, b[20:24])
	return crc32.Update(crc, castagnoli, b[RecordHeaderSize:])
}

// decodeRecord parses and verifies the record at the head of b, which may
// run past it (recovery, which does not know the length, hands over the
// rest of the segment). The length is bounds-checked against
// pageSize and b before anything trusts it; a tombstone has no payload.
func decodeRecord(b []byte, pageSize int) (recordHeader, []byte, error) {
	var h recordHeader
	if len(b) < RecordHeaderSize {
		return h, nil, fmt.Errorf("store: record header truncated at %d bytes", len(b))
	}
	h.page = binary.LittleEndian.Uint32(b[0:4])
	word := binary.LittleEndian.Uint32(b[4:8])
	h.flags = word & (1<<lenShift - 1)
	h.seq = binary.LittleEndian.Uint64(b[8:16])
	h.pos = binary.LittleEndian.Uint32(b[20:24])
	n := int(word >> lenShift)
	if h.flags&^flagMask != 0 || n > pageSize || n > len(b)-RecordHeaderSize || n != 0 && h.flags&flagTombstone != 0 {
		return h, nil, fmt.Errorf("store: malformed record header (flags word %08x, %d bytes available)", word, len(b))
	}
	b = b[:RecordHeaderSize+n]
	stored := binary.LittleEndian.Uint32(b[16:20])
	if crc := recordCRC(b); stored != crc {
		return h, nil, fmt.Errorf("store: record crc mismatch (stored %08x, computed %08x)", stored, crc)
	}
	return h, b[RecordHeaderSize:], nil
}

func encodeSegHeader(dst []byte, incarnation uint64, stream int32, watermark uint64) {
	copy(dst[0:8], segMagic)
	binary.LittleEndian.PutUint64(dst[8:16], incarnation)
	binary.LittleEndian.PutUint32(dst[16:20], uint32(stream))
	binary.LittleEndian.PutUint32(dst[20:24], 0)
	binary.LittleEndian.PutUint64(dst[24:32], watermark)
}

func decodeSegHeader(b []byte) (incarnation uint64, stream int32, watermark uint64, ok bool) {
	if string(b[0:8]) != segMagic {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[8:16]), int32(binary.LittleEndian.Uint32(b[16:20])),
		binary.LittleEndian.Uint64(b[24:32]), true
}
