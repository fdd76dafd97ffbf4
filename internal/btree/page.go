package btree

import (
	"encoding/binary"
	"fmt"
)

// NodePage is the materialized (on-storage) form of one B+-tree node: the
// fixed-format page image that internal/pagedb writes to the log-structured
// store. The in-memory Tree of this package keeps its nodes as linked Go
// values and never serializes; a durable tree references children and leaf
// neighbors by page id and encodes every node into exactly one store page.
//
// Page image layout (little-endian), PageHeaderBytes of header then entries:
//
//	kind (1): 1 = leaf, 2 = branch
//	reserved (1)
//	count (2): number of keys
//	next (4): leaf chain successor page id; 0 = none (branch: 0)
//	leaf entries, sequential: key (8) | vlen (2) | value bytes
//	branch: count keys (8 each), then count+1 child page ids (4 each)
//
// Page id 0 is reserved as the nil link (pagedb stores its metadata there),
// so 0 can terminate the leaf chain.
type NodePage struct {
	Leaf bool
	Next uint32   // leaf chain successor (leaves only; 0 = none)
	Keys []uint64 // count keys, strictly increasing
	Vals [][]byte // leaf payloads (len == len(Keys))
	Kids []uint32 // branch children (len == len(Keys)+1)
}

// PageHeaderBytes is the page image header size.
const PageHeaderBytes = 8

const (
	kindLeaf   = 1
	kindBranch = 2
)

// leafEntryOverheadPage is the encoded per-entry leaf cost beyond the value
// bytes: key (8) plus value length (2).
const leafEntryOverheadPage = 10

// LeafEntryBytes is the encoded cost of one leaf entry: key, value length,
// value bytes.
func LeafEntryBytes(val []byte) int { return leafEntryOverheadPage + len(val) }

// BranchEntryBytes is the per-child budgeting cost of a branch entry.
// A branch with k children encodes k-1 keys and k child ids (12k-4 bytes);
// budgeting BranchEntryBytes per child over-reserves by 8 bytes, exactly
// like the in-memory tree's accounting, and keeps split logic symmetric.
const BranchEntryBytes = 12

// EncodedBytes returns the page image size of the node (header included).
func (p *NodePage) EncodedBytes() int {
	n := PageHeaderBytes
	if p.Leaf {
		for _, v := range p.Vals {
			n += LeafEntryBytes(v)
		}
	} else {
		n += 8*len(p.Keys) + 4*len(p.Kids)
	}
	return n
}

// EncodePage serializes the node into dst, which is EncodedBytes long or
// longer (any tail is zeroed). It fails if the node does not fit or is
// malformed.
func EncodePage(dst []byte, p *NodePage) error {
	if p.Leaf {
		if len(p.Vals) != len(p.Keys) {
			return fmt.Errorf("btree: leaf page with %d keys, %d values", len(p.Keys), len(p.Vals))
		}
	} else {
		if len(p.Kids) != len(p.Keys)+1 {
			return fmt.Errorf("btree: branch page with %d keys, %d children", len(p.Keys), len(p.Kids))
		}
		if p.Next != 0 {
			return fmt.Errorf("btree: branch page with leaf chain link %d", p.Next)
		}
	}
	if len(p.Keys) > 0xFFFF {
		return fmt.Errorf("btree: page with %d keys overflows the count field", len(p.Keys))
	}
	if need := p.EncodedBytes(); need > len(dst) {
		return fmt.Errorf("btree: page image needs %d bytes, page size is %d", need, len(dst))
	}
	kind := byte(kindBranch)
	if p.Leaf {
		kind = kindLeaf
	}
	dst[0], dst[1] = kind, 0
	binary.LittleEndian.PutUint16(dst[2:4], uint16(len(p.Keys)))
	binary.LittleEndian.PutUint32(dst[4:8], p.Next)
	off := PageHeaderBytes
	if p.Leaf {
		for i, k := range p.Keys {
			if len(p.Vals[i]) > 0xFFFF {
				return fmt.Errorf("btree: leaf value of %d bytes overflows the length field", len(p.Vals[i]))
			}
			binary.LittleEndian.PutUint64(dst[off:], k)
			binary.LittleEndian.PutUint16(dst[off+8:], uint16(len(p.Vals[i])))
			off += 10
			off += copy(dst[off:], p.Vals[i])
		}
	} else {
		for _, k := range p.Keys {
			binary.LittleEndian.PutUint64(dst[off:], k)
			off += 8
		}
		for _, kid := range p.Kids {
			binary.LittleEndian.PutUint32(dst[off:], kid)
			off += 4
		}
	}
	for i := off; i < len(dst); i++ {
		dst[i] = 0
	}
	return nil
}

// Page returns the node's serializable page image form.
func (n *Node) Page() *NodePage {
	return &NodePage{Leaf: n.Leaf, Next: n.Next, Keys: n.Keys, Vals: n.Vals, Kids: n.Kids}
}

// NodeOfPage materializes a page image as a Core node under the given
// Layout, rebuilding its byte accounting. The node shares the page's
// slices.
func NodeOfPage(id uint32, p *NodePage, l Layout) *Node {
	n := &Node{ID: id, Leaf: p.Leaf, Keys: p.Keys, Vals: p.Vals, Kids: p.Kids, Next: p.Next}
	if n.Leaf {
		for _, v := range n.Vals {
			n.NBytes += l.LeafEntry(v)
		}
	} else {
		n.NBytes = l.BranchEntryBytes * len(n.Kids)
	}
	return n
}

// EncodeNodeImage serializes a node into dst (see EncodePage).
func EncodeNodeImage(dst []byte, n *Node) error { return EncodePage(dst, n.Page()) }

// DecodeNodeImage parses a page image straight into a Core node under the
// given Layout.
func DecodeNodeImage(id uint32, src []byte, l Layout) (*Node, error) {
	p, err := DecodePage(src)
	if err != nil {
		return nil, err
	}
	return NodeOfPage(id, p, l), nil
}

// DecodePage parses a page image. Values are copied out of src, so the
// caller may reuse its buffer.
func DecodePage(src []byte) (*NodePage, error) {
	if len(src) < PageHeaderBytes {
		return nil, fmt.Errorf("btree: page image of %d bytes is shorter than the header", len(src))
	}
	kind := src[0]
	if kind != kindLeaf && kind != kindBranch {
		return nil, fmt.Errorf("btree: unknown page kind %d", kind)
	}
	count := int(binary.LittleEndian.Uint16(src[2:4]))
	p := &NodePage{
		Leaf: kind == kindLeaf,
		Next: binary.LittleEndian.Uint32(src[4:8]),
	}
	off := PageHeaderBytes
	if p.Leaf {
		p.Keys = make([]uint64, 0, count)
		p.Vals = make([][]byte, 0, count)
		for i := 0; i < count; i++ {
			if off+10 > len(src) {
				return nil, fmt.Errorf("btree: leaf page truncated at entry %d", i)
			}
			k := binary.LittleEndian.Uint64(src[off:])
			vlen := int(binary.LittleEndian.Uint16(src[off+8:]))
			off += 10
			if off+vlen > len(src) {
				return nil, fmt.Errorf("btree: leaf page value %d overruns the page", i)
			}
			p.Keys = append(p.Keys, k)
			p.Vals = append(p.Vals, append([]byte(nil), src[off:off+vlen]...))
			off += vlen
		}
		return p, nil
	}
	if off+8*count+4*(count+1) > len(src) {
		return nil, fmt.Errorf("btree: branch page with %d keys overruns the page", count)
	}
	p.Keys = make([]uint64, count)
	for i := range p.Keys {
		p.Keys[i] = binary.LittleEndian.Uint64(src[off:])
		off += 8
	}
	p.Kids = make([]uint32, count+1)
	for i := range p.Kids {
		p.Kids[i] = binary.LittleEndian.Uint32(src[off:])
		off += 4
	}
	return p, nil
}
