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
// A delta page carries what a based leaf (Node.Based) changed since its image:
//
//	kind (1): 3 | reserved (1): 0 | puts (2) | deletes (2) | reserved (2): 0
//	puts, each a leaf entry: key (8) | vlen (2) | value bytes
//	deletes, each a key (8)
//
// Read over the image (ApplyDelta), it gives the leaf as it was written.
//
// A leaf IS its image's entries: both stores keep them in this format, back
// to back in Node.Buf[Lo:], with Node.Offs[i] where entry i starts. So an
// image exists once on each side of storage: ParseNode validates the bytes a
// read produced and records where the entries lie, copying nothing, and
// EncodeNode writes the header and copies the entries once, straight into the
// bytes about to be written.

// PageHeaderBytes is the page image header size.
const PageHeaderBytes = 8

const (
	kindLeaf   = 1
	kindBranch = 2
	kindDelta  = 3
)

// leafEntryOverheadPage is the encoded per-entry leaf cost beyond the value
// bytes: key (8) plus value length (2).
const leafEntryOverheadPage = 10

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
	if n.count() > 0xFFFF {
		return 0, fmt.Errorf("btree: page with %d keys overflows the count field", n.count())
	}
	for i := 1; i < len(n.Keys); i++ {
		if n.Keys[i-1] >= n.Keys[i] {
			return 0, fmt.Errorf("btree: page keys out of order at %d", i)
		}
	}
	size := PageHeaderBytes
	if n.Leaf {
		if err := n.checkLeaf(); err != nil {
			return 0, err
		}
		size += len(n.Buf) - n.Lo
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

// checkLeaf checks that Offs lays out the entries back to back from Lo to the
// end of Buf, every one inside it, keys strictly increasing.
func (n *Node) checkLeaf() error {
	off := n.Lo
	for i, o := range n.Offs {
		if int(o) != off || off+leafEntryOverheadPage > len(n.Buf) {
			return fmt.Errorf("btree: leaf entry %d at %d, not where entry %d ends (%d of %d bytes)", i, o, i-1, off, len(n.Buf))
		}
		if i > 0 && n.key(i-1) >= n.key(i) {
			return fmt.Errorf("btree: page keys out of order at %d", i)
		}
		off += leafEntryOverheadPage + int(binary.LittleEndian.Uint16(n.Buf[off+8:]))
	}
	if off != len(n.Buf) {
		return fmt.Errorf("btree: leaf entries end at %d of %d bytes", off, len(n.Buf))
	}
	return nil
}

// EncodeNode serializes n into dst, which is as long as ImageBytes said or
// longer (any tail is zeroed). It checks nothing: ImageBytes did.
func EncodeNode(dst []byte, n *Node) {
	kind := byte(kindBranch)
	if n.Leaf {
		kind = kindLeaf
	}
	dst[0], dst[1] = kind, 0
	binary.LittleEndian.PutUint16(dst[2:4], uint16(n.count()))
	binary.LittleEndian.PutUint32(dst[4:8], n.Next)
	off := PageHeaderBytes
	if n.Leaf {
		off += copy(dst[off:], n.Buf[n.Lo:])
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

// DeltaBytes returns the size of leaf n's delta page (EncodeDelta): the
// current form of each entry its change set names, a deleted one as its key.
// It is 0 for a node that is not a based leaf.
func (n *Node) DeltaBytes() int {
	if !n.Leaf || !n.Based {
		return 0
	}
	size := PageHeaderBytes
	for _, k := range n.Changed[:n.NChanged] {
		if i, ok := n.find(k); ok {
			_, v := n.Entry(i)
			size += leafEntryOverheadPage + len(v)
		} else {
			size += 8
		}
	}
	return size
}

// EncodeDelta writes leaf n's delta page into dst, exactly DeltaBytes long:
// the puts from the front, the deletes from the back.
func EncodeDelta(dst []byte, n *Node) {
	off, end := PageHeaderBytes, len(dst)
	for _, k := range n.Changed[:n.NChanged] {
		if i, ok := n.find(k); ok {
			o := int(n.Offs[i])
			_, v := n.Entry(i)
			off += copy(dst[off:], n.Buf[o:o+leafEntryOverheadPage+len(v)])
		} else {
			end -= 8
			binary.LittleEndian.PutUint64(dst[end:], k)
		}
	}
	dst[0], dst[1] = kindDelta, 0
	binary.LittleEndian.PutUint16(dst[2:4], uint16(int(n.NChanged)-(len(dst)-end)/8))
	binary.LittleEndian.PutUint16(dst[4:6], uint16((len(dst)-end)/8))
	dst[6], dst[7] = 0, 0
}

// ApplyDelta applies delta page d over leaf n, just parsed from the image the
// delta was written against: each put is written as Core writes one (over an
// old value of its length, a copy) and each deleted key dropped, so n is the
// leaf as written, based, its change set the delta's keys. Buf grows only
// past its capacity. The bytes come from storage: a delta that is not one,
// overruns itself or leaves the leaf over its page's budget is an error, and
// n is then left in no particular state.
func ApplyDelta(n *Node, d []byte, l Layout, pageSize int) error {
	if len(d) < PageHeaderBytes || d[0] != kindDelta || d[1] != 0 || !n.Leaf {
		return fmt.Errorf("btree: not a delta page over a leaf")
	}
	puts, dels := int(binary.LittleEndian.Uint16(d[2:4])), int(binary.LittleEndian.Uint16(d[4:6]))
	end := len(d) - 8*dels
	if puts+dels > len(n.Changed) || end < PageHeaderBytes {
		return fmt.Errorf("btree: delta page with %d puts and %d deletes overruns the page", puts, dels)
	}
	n.Based = true
	off := PageHeaderBytes
	for ; puts > 0; puts-- {
		if off+leafEntryOverheadPage > end {
			return fmt.Errorf("btree: delta page truncated")
		}
		k, vlen := binary.LittleEndian.Uint64(d[off:]), int(binary.LittleEndian.Uint16(d[off+8:]))
		if off += leafEntryOverheadPage + vlen; off > end {
			return fmt.Errorf("btree: delta page value overruns the page")
		}
		n.set(k, d[off-vlen:off], l, l.Budget(pageSize))
	}
	if off != end {
		return fmt.Errorf("btree: delta page has data between its puts and deletes")
	}
	for ; off < len(d); off += 8 {
		k := binary.LittleEndian.Uint64(d[off:])
		if i, ok := n.find(k); ok {
			n.NBytes -= l.LeafEntryOverhead + n.drop(i)
		}
		n.changed(k)
	}
	if n.NBytes > l.Budget(pageSize) {
		return fmt.Errorf("btree: delta page leaves the leaf %d bytes, over the budget of %d", n.NBytes, l.Budget(pageSize))
	}
	return nil
}

// ParseNode materializes the page image n.Buf[lo:] as node id under the given
// Layout, in place: a leaf's entries stay where they lie (Lo, Offs), a
// branch's keys and children are decoded, the arrays n already has are
// reused where they are the right size (n is a zero Node or a recycled one),
// and the byte accounting is rebuilt. Buf ends where the entries do; its
// capacity past them is where a leaf's inserts grow. n.Pin is the store's and
// stays as it is.
//
// The bytes come from storage, so nothing about them is trusted: an unknown
// kind, entries that overrun the image, non-zero bytes past the last entry
// and keys that are not strictly increasing are all errors, and n is then
// left in no particular state.
func ParseNode(n *Node, id uint32, lo int, l Layout) error {
	img := n.Buf[lo:]
	if len(img) < PageHeaderBytes {
		return fmt.Errorf("btree: page image of %d bytes is shorter than the header", len(img))
	}
	kind := img[0]
	if kind != kindLeaf && kind != kindBranch || img[1] != 0 {
		return fmt.Errorf("btree: unknown page kind %d/%d", kind, img[1])
	}
	count := int(binary.LittleEndian.Uint16(img[2:4]))
	n.ID, n.Leaf, n.Next = id, kind == kindLeaf, binary.LittleEndian.Uint32(img[4:8])
	n.Based, n.NChanged = false, 0
	off := lo + PageHeaderBytes
	if n.Leaf {
		if count*leafEntryOverheadPage > len(img)-PageHeaderBytes {
			return fmt.Errorf("btree: leaf page with %d keys overruns the page", count)
		}
		n.Offs, n.Keys, n.Kids, n.Lo = reuse(n.Offs, count), nil, nil, off
		for i := 0; i < count; i++ {
			if off+leafEntryOverheadPage > len(n.Buf) {
				return fmt.Errorf("btree: leaf page truncated at entry %d", i)
			}
			n.Offs = append(n.Offs, uint32(off))
			if off += leafEntryOverheadPage + int(binary.LittleEndian.Uint16(n.Buf[off+8:])); off > len(n.Buf) {
				return fmt.Errorf("btree: leaf page value %d overruns the page", i)
			}
			if i > 0 && n.key(i-1) >= n.key(i) {
				return fmt.Errorf("btree: page keys out of order at %d", i)
			}
		}
		n.NBytes = off - n.Lo + (l.LeafEntryOverhead-leafEntryOverheadPage)*count
	} else {
		if n.Next != 0 {
			return fmt.Errorf("btree: branch page with leaf chain link %d", n.Next)
		}
		if 8*count+4*(count+1) > len(img)-PageHeaderBytes {
			return fmt.Errorf("btree: branch page with %d keys overruns the page", count)
		}
		n.Keys, n.Kids, n.Offs = reuse(n.Keys, count), reuse(n.Kids, count+1), nil
		for i := 0; i < count; i++ {
			n.Keys = append(n.Keys, binary.LittleEndian.Uint64(n.Buf[off:]))
			off += 8
			if i > 0 && n.Keys[i-1] >= n.Keys[i] {
				return fmt.Errorf("btree: page keys out of order at %d", i)
			}
		}
		for i := 0; i <= count; i++ {
			n.Kids = append(n.Kids, binary.LittleEndian.Uint32(n.Buf[off:]))
			off += 4
		}
		n.NBytes = l.BranchEntryBytes * len(n.Kids)
	}
	for _, b := range n.Buf[off:] {
		if b != 0 {
			return fmt.Errorf("btree: page image has data past its last entry (offset %d of %d)", off-lo, len(img))
		}
	}
	n.Buf = n.Buf[:off]
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

// count returns how many keys the node holds: a leaf has no Keys, a branch
// no Offs.
func (n *Node) count() int { return len(n.Keys) + len(n.Offs) }

// key returns leaf entry i's key.
func (n *Node) key(i int) uint64 { return binary.LittleEndian.Uint64(n.Buf[n.Offs[i]:]) }

// Entry returns leaf entry i: its key, and its value — a slice of Buf, capped
// at its length (see NodeStore on how long it stays valid).
func (n *Node) Entry(i int) (uint64, []byte) {
	o := int(n.Offs[i])
	end := o + leafEntryOverheadPage + int(binary.LittleEndian.Uint16(n.Buf[o+8:]))
	return binary.LittleEndian.Uint64(n.Buf[o:]), n.Buf[o+leafEntryOverheadPage : end : end]
}
