package btree

import (
	"encoding/binary"
	"fmt"
)

// A durable tree (internal/pagedb) references children and leaf neighbors by
// page id and keeps every node as exactly one store page: the page image
// below, written at its used length. The in-memory Tree of this package keeps
// its nodes as Go values and never serializes.
//
// Page image layout (little-endian), PageHeaderBytes of header then entries:
//
//	kind (1): 1 = leaf, 2 = branch
//	reserved (1): 0
//	count (2): number of keys
//	next (4): leaf chain successor page id; 0 = none (branch: 0)
//	leaf entries, sequential: key (8) | vlen (2) | value bytes
//	branch: count keys (8 each), then count+1 child page ids (4 each)
//
// Page id 0 is reserved as the nil link (pagedb stores its metadata there),
// so 0 can terminate the leaf chain.
//
// An image exists once on each side of storage: ParseNode turns the bytes a
// read produced into a node IN PLACE (a leaf's values are sub-slices of them),
// and EncodeNode writes a node straight into the bytes about to be written.

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

// ImageBytes returns the size of the node's page image (header included)
// after checking everything EncodeNode relies on: the node is well formed —
// the same rules ParseNode holds an image to, so whatever is written can be
// read back — every field fits its width, and the image fits pageSize.
func (n *Node) ImageBytes(pageSize int) (int, error) {
	if len(n.Keys) > 0xFFFF {
		return 0, fmt.Errorf("btree: page with %d keys overflows the count field", len(n.Keys))
	}
	for i := 1; i < len(n.Keys); i++ {
		if n.Keys[i-1] >= n.Keys[i] {
			return 0, fmt.Errorf("btree: page keys out of order at %d", i)
		}
	}
	size := PageHeaderBytes
	if n.Leaf {
		if len(n.Vals) != len(n.Keys) {
			return 0, fmt.Errorf("btree: leaf page with %d keys, %d values", len(n.Keys), len(n.Vals))
		}
		for _, v := range n.Vals {
			if len(v) > 0xFFFF {
				return 0, fmt.Errorf("btree: leaf value of %d bytes overflows the length field", len(v))
			}
			size += LeafEntryBytes(v)
		}
	} else {
		if len(n.Kids) != len(n.Keys)+1 {
			return 0, fmt.Errorf("btree: branch page with %d keys, %d children", len(n.Keys), len(n.Kids))
		}
		if n.Next != 0 {
			return 0, fmt.Errorf("btree: branch page with leaf chain link %d", n.Next)
		}
		size += 8*len(n.Keys) + 4*len(n.Kids)
	}
	if size > pageSize {
		return 0, fmt.Errorf("btree: page image needs %d bytes, page size is %d", size, pageSize)
	}
	return size, nil
}

// EncodeNode serializes n into dst, which is as long as ImageBytes said or
// longer (any tail is zeroed). It checks nothing: ImageBytes did.
func EncodeNode(dst []byte, n *Node) {
	kind := byte(kindBranch)
	if n.Leaf {
		kind = kindLeaf
	}
	dst[0], dst[1] = kind, 0
	binary.LittleEndian.PutUint16(dst[2:4], uint16(len(n.Keys)))
	binary.LittleEndian.PutUint32(dst[4:8], n.Next)
	off := PageHeaderBytes
	if n.Leaf {
		for i, k := range n.Keys {
			binary.LittleEndian.PutUint64(dst[off:], k)
			binary.LittleEndian.PutUint16(dst[off+8:], uint16(len(n.Vals[i])))
			off += leafEntryOverheadPage
			off += copy(dst[off:], n.Vals[i])
		}
	} else {
		for _, k := range n.Keys {
			binary.LittleEndian.PutUint64(dst[off:], k)
			off += 8
		}
		for _, kid := range n.Kids {
			binary.LittleEndian.PutUint32(dst[off:], kid)
			off += 4
		}
	}
	clear(dst[off:])
}

// ParseNode materializes the page image img as node id under the given
// Layout, in place: n's Keys, Vals and Kids arrays are reused where they are
// the right size (n is a zero Node or a recycled one), a leaf's Vals are
// cap-limited sub-slices of img — nothing is copied, so img is the node's
// memory from here on — and the byte accounting is rebuilt. n.Buf and n.Pin
// are the store's and stay as they are.
//
// The bytes come from storage, so nothing about them is trusted: an unknown
// kind, entries that overrun the image, non-zero bytes past the last entry
// and keys that are not strictly increasing are all errors, and n is then
// left in no particular state.
func ParseNode(n *Node, id uint32, img []byte, l Layout) error {
	if len(img) < PageHeaderBytes {
		return fmt.Errorf("btree: page image of %d bytes is shorter than the header", len(img))
	}
	kind := img[0]
	if kind != kindLeaf && kind != kindBranch || img[1] != 0 {
		return fmt.Errorf("btree: unknown page kind %d/%d", kind, img[1])
	}
	count := int(binary.LittleEndian.Uint16(img[2:4]))
	n.ID, n.Leaf, n.Next, n.Donor = id, kind == kindLeaf, binary.LittleEndian.Uint32(img[4:8]), false
	off := PageHeaderBytes
	if n.Leaf {
		if off+count*leafEntryOverheadPage > len(img) {
			return fmt.Errorf("btree: leaf page with %d keys overruns the page", count)
		}
		n.Keys, n.Vals, n.Kids = reuse(n.Keys, count), reuse(n.Vals, count), nil
		for i := 0; i < count; i++ {
			if off+leafEntryOverheadPage > len(img) {
				return fmt.Errorf("btree: leaf page truncated at entry %d", i)
			}
			vlen := int(binary.LittleEndian.Uint16(img[off+8:]))
			end := off + leafEntryOverheadPage + vlen
			if end > len(img) {
				return fmt.Errorf("btree: leaf page value %d overruns the page", i)
			}
			n.Keys = append(n.Keys, binary.LittleEndian.Uint64(img[off:]))
			n.Vals = append(n.Vals, img[off+leafEntryOverheadPage:end:end])
			off = end
		}
		n.NBytes = off - PageHeaderBytes + (l.LeafEntryOverhead-leafEntryOverheadPage)*count
	} else {
		if n.Next != 0 {
			return fmt.Errorf("btree: branch page with leaf chain link %d", n.Next)
		}
		if off+8*count+4*(count+1) > len(img) {
			return fmt.Errorf("btree: branch page with %d keys overruns the page", count)
		}
		n.Keys, n.Vals, n.Kids = reuse(n.Keys, count), nil, reuse(n.Kids, count+1)
		for i := 0; i < count; i++ {
			n.Keys = append(n.Keys, binary.LittleEndian.Uint64(img[off:]))
			off += 8
		}
		for i := 0; i <= count; i++ {
			n.Kids = append(n.Kids, binary.LittleEndian.Uint32(img[off:]))
			off += 4
		}
		n.NBytes = l.BranchEntryBytes * len(n.Kids)
	}
	for i := 1; i < count; i++ {
		if n.Keys[i-1] >= n.Keys[i] {
			return fmt.Errorf("btree: page keys out of order at %d", i)
		}
	}
	for _, b := range img[off:] {
		if b != 0 {
			return fmt.Errorf("btree: page image has data past its last entry (offset %d of %d)", off, len(img))
		}
	}
	return nil
}

// reuse returns s, emptied, if it has room for n elements and at most an
// eighth of it to spare, and a new array of exactly n otherwise: a node that
// is handed from page to page must not ratchet up to the largest page it ever
// held, nor carry a leaf's arrays as a branch.
func reuse[T any](s []T, n int) []T {
	if c := cap(s); n <= c && c-n <= c/8 {
		return s[:0]
	}
	return make([]T, 0, n)
}
