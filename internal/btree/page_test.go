package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/bufferpool"
)

// encode returns n's page image at its used length.
func encode(t testing.TB, n *Node, pageSize int) []byte {
	t.Helper()
	size, err := n.ImageBytes(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, size)
	EncodeNode(img, n)
	return img
}

// leafOf returns a leaf holding keys with vals, laid out as the Core lays
// out its leaves.
func leafOf(next uint32, keys []uint64, vals ...[]byte) *Node {
	n := &Node{Leaf: true, Next: next}
	for i, k := range keys {
		n.put(i, k, vals[i], 0, 0)
	}
	return n
}

func TestNodePageRoundTrip(t *testing.T) {
	keys, vals := []uint64{1, 5, 9}, [][]byte{[]byte("a"), {}, []byte("ccc")}
	img := encode(t, leafOf(42, keys, vals...), 256)
	// A recycled node, its record buffer holding the image behind a header of
	// its own: an offsets array of about the right size is reused, whatever it
	// held; a branch's arrays are let go.
	const hdr = 24
	got := &Node{Buf: append(make([]byte, hdr), img...), Offs: make([]uint32, 2, 3), Keys: []uint64{4}, Kids: []uint32{4, 4}, NBytes: 99}
	offs := &got.Offs[0]
	if err := ParseNode(got, 7, hdr, PageLayout); err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || !got.Leaf || got.Next != 42 || len(got.Offs) != 3 || got.Keys != nil || got.Kids != nil || got.Lo != hdr+PageHeaderBytes {
		t.Fatalf("leaf round trip: %+v", got)
	}
	if &got.Offs[0] != offs {
		t.Error("ParseNode did not reuse the node's offsets array")
	}
	want := 0
	for i := range keys {
		if k, v := got.Entry(i); k != keys[i] || !bytes.Equal(v, vals[i]) {
			t.Fatalf("leaf entry %d: %d/%q", i, k, v)
		}
		want += PageLayout.LeafEntry(vals[i])
	}
	if got.NBytes != want {
		t.Errorf("NBytes = %d, want %d", got.NBytes, want)
	}
	// Values ARE the image's bytes — nothing was copied — and each is capped,
	// so appending to one cannot run into the next entry.
	if _, v := got.Entry(2); &v[0] != &got.Buf[len(got.Buf)-3] || cap(v) != 3 {
		t.Error("a parsed value is not a capped slice of the image")
	}
	if _, v := got.Entry(1); len(v) != 0 || cap(v) != 0 {
		t.Error("empty value has capacity into the next entry")
	}
	// Under another layout the accounting follows that layout's costs.
	if err := ParseNode(got, 7, hdr, MemLayout); err != nil || got.NBytes != want+3*(MemLayout.LeafEntryOverhead-PageLayout.LeafEntryOverhead) {
		t.Errorf("MemLayout parse: NBytes %d, err %v", got.NBytes, err)
	}
	// An offsets array with more than an eighth to spare is let go.
	roomy := &Node{Buf: img, Offs: make([]uint32, 0, 8)}
	if err := ParseNode(roomy, 1, 0, PageLayout); err != nil || cap(roomy.Offs) != 3 {
		t.Errorf("an 8-entry offsets array was kept for 3 entries (cap %d, %v)", cap(roomy.Offs), err)
	}

	branch := &Node{Keys: []uint64{10, 20}, Kids: []uint32{3, 7, 11}}
	img = append(encode(t, branch, 256), 0, 0, 0) // zero padding past the entries is legal
	got.Buf = img
	if err := ParseNode(got, 8, 0, PageLayout); err != nil {
		t.Fatal(err)
	}
	if got.Leaf || len(got.Keys) != 2 || len(got.Kids) != 3 || got.Kids[1] != 7 || got.Offs != nil || got.NBytes != 3*BranchEntryBytes {
		t.Fatalf("branch round trip: %+v", got)
	}
	a, _ := got.ImageBytes(256)
	b, _ := branch.ImageBytes(256)
	if a != b || a != len(img)-3 {
		t.Errorf("ImageBytes drifted: %d vs %d", a, b)
	}
	// EncodeNode zeroes whatever tail it is given.
	dst := bytes.Repeat([]byte{0xEE}, len(img))
	EncodeNode(dst, got)
	if !bytes.Equal(dst, img) {
		t.Errorf("re-encoded branch %x, image %x", dst, img)
	}
}

func TestEncodePageRejectsMalformed(t *testing.T) {
	two := func(f func(n *Node)) *Node {
		n := leafOf(0, []uint64{1, 2}, []byte("xy"), []byte("z"))
		f(n)
		return n
	}
	for name, n := range map[string]*Node{
		"oversized leaf":                {Leaf: true, Buf: leafOf(0, []uint64{1}, make([]byte, 100)).Buf},
		"leaf entry off its offset":     two(func(n *Node) { n.Offs[1]++ }),
		"leaf with a missing offset":    two(func(n *Node) { n.Offs = n.Offs[:1] }),
		"leaf entries before Lo":        two(func(n *Node) { n.Lo = 1 }),
		"leaf value past its buffer":    two(func(n *Node) { n.Buf = n.Buf[:len(n.Buf)-1] }),
		"leaf keys out of order":        leafOf(0, []uint64{2, 2}, nil, nil),
		"branch with too few children":  {Keys: []uint64{1}, Kids: []uint32{2}},
		"branch with a leaf chain link": {Kids: []uint32{2}, Next: 9},
		"keys out of order":             {Keys: []uint64{2, 2}, Kids: []uint32{1, 2, 3}},
		"count over the count field":    {Keys: make([]uint64, 0x10000), Kids: make([]uint32, 0x10001)},
	} {
		pageSize := 64
		if n.count() > 100 {
			pageSize = 1 << 30 // only the field width is in the way
		}
		if _, err := n.ImageBytes(pageSize); err == nil {
			t.Errorf("%s passed ImageBytes", name)
		}
	}
}

func TestDecodePageRejectsCorrupt(t *testing.T) {
	parse := func(img []byte) error { return ParseNode(&Node{Buf: img}, 1, 0, PageLayout) }
	if err := parse(make([]byte, 4)); err == nil {
		t.Error("short image parsed")
	}
	leaf := encode(t, leafOf(0, []uint64{1, 4}, []byte("xy"), []byte("z")), 64)
	branch := encode(t, &Node{Keys: []uint64{3, 8}, Kids: []uint32{5, 6, 7}}, 64)
	if parse(leaf) != nil || parse(branch) != nil {
		t.Fatal("intact images rejected")
	}
	mutate := func(img []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), img...)
		f(b)
		return b
	}
	for name, img := range map[string][]byte{
		"unknown kind":               mutate(leaf, func(b []byte) { b[0] = 99 }),
		"reserved byte set":          mutate(leaf, func(b []byte) { b[1] = 1 }),
		"leaf count overruns":        mutate(leaf, func(b []byte) { b[2] = 0xFF }),
		"leaf value overruns":        mutate(leaf, func(b []byte) { b[PageHeaderBytes+8] = 200 }),
		"leaf cut inside an entry":   leaf[:len(leaf)-1],
		"leaf keys equal":            mutate(leaf, func(b []byte) { b[PageHeaderBytes+12] = 1 }),
		"data past the last entry":   append(append([]byte(nil), leaf...), 0, 7),
		"count short of the entries": mutate(leaf, func(b []byte) { b[2] = 1 }),
		"branch count overruns":      mutate(branch, func(b []byte) { b[2] = 3 }),
		"branch keys decreasing":     mutate(branch, func(b []byte) { b[PageHeaderBytes] = 9 }),
		"branch with a leaf link":    mutate(branch, func(b []byte) { b[4] = 2 }),
		"branch cut inside a child":  branch[:len(branch)-2],
		"branch data past its kids":  append(append([]byte(nil), branch...), 1),
	} {
		if err := parse(img); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

// TestCheckPageTree builds a tiny two-level page tree by hand and verifies
// the checker accepts it and rejects broken variants.
func TestCheckPageTree(t *testing.T) {
	const pageSize = 128
	pages := map[uint32]*Node{
		1: {Keys: []uint64{10}, Kids: []uint32{2, 3}},
		2: leafOf(3, []uint64{1, 5}, []byte("a"), []byte("b")),
		3: leafOf(0, []uint64{10, 20}, []byte("c"), []byte("d")),
	}
	setFirst := func(k uint64) { binary.LittleEndian.PutUint64(pages[3].Buf[pages[3].Offs[0]:], k) }
	fetch := func(id uint32) ([]byte, error) {
		p, ok := pages[id]
		if !ok {
			return nil, errNotFound(id)
		}
		return encode(t, p, pageSize), nil
	}
	if err := CheckPageTree(fetch, 1, 2, 4, pageSize); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if err := CheckPageTree(fetch, 1, 2, 5, pageSize); err == nil {
		t.Error("wrong count accepted")
	}
	if err := CheckPageTree(fetch, 1, 3, 4, pageSize); err == nil {
		t.Error("wrong height accepted")
	}
	setFirst(9) // below the separator bound
	if err := CheckPageTree(fetch, 1, 2, 4, pageSize); err == nil {
		t.Error("bound violation accepted")
	}
	setFirst(10)
	pages[2].Next = 0 // break the chain
	if err := CheckPageTree(fetch, 1, 2, 4, pageSize); err == nil {
		t.Error("broken leaf chain accepted")
	}
	pages[2].Next = 3
	pages[3].Next = 2 // cycle
	if err := CheckPageTree(fetch, 1, 2, 4, pageSize); err == nil {
		t.Error("leaf chain cycle accepted")
	}
}

// CheckPageTree validates the invariants of a PAGE-ID based tree given only
// a way to read page images. It adapts fetch into a read-only NodeStore that
// parses each image (ParseNode, in place) and runs the one shared
// checker under PageLayout, so NBytes <= budget implies every image fits
// pageSize.
func CheckPageTree(fetch func(id uint32) ([]byte, error), root uint32, height, count, pageSize int) error {
	return LoadCore(pageFetchStore{fetch}, pageSize, PageLayout, root, height, count).Check()
}

// pageFetchStore is the read-only NodeStore behind CheckPageTree.
type pageFetchStore struct {
	fetch func(id uint32) ([]byte, error)
}

func (s pageFetchStore) Alloc() (uint32, error) {
	return 0, fmt.Errorf("btree: read-only page store cannot allocate")
}

func (s pageFetchStore) Fetch(id uint32) (*Node, error) {
	img, err := s.fetch(id)
	if err != nil {
		return nil, err
	}
	n := &Node{Buf: img}
	return n, ParseNode(n, id, 0, PageLayout)
}

func (s pageFetchStore) Release(*Node) {}

func (s pageFetchStore) MarkDirty(*Node) {}

func (s pageFetchStore) Touch(*Node) {}

func (s pageFetchStore) Free(uint32) error {
	return fmt.Errorf("btree: read-only page store cannot free")
}

type errNotFound uint32

func (e errNotFound) Error() string { return "page not found" }

// FuzzParseNode: ParseNode over arbitrary bytes never panics, and whatever it
// accepts is a node the Core's own per-node checks pass, and which encodes back
// to exactly the bytes it came from.
// Seeded with real images: the leaves and branches of a grown tree.
func FuzzParseNode(f *testing.F) {
	const pageSize = 256
	tr := New(bufferpool.New(64), pageSize)
	for k := uint64(0); k < 300; k++ {
		tr.Insert(k*7%300, bytes.Repeat([]byte{byte(k)}, int(k%23)))
	}
	for _, n := range tr.store.nodes {
		if n != nil {
			f.Add(encode(f, n, pageSize))
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, PageHeaderBytes))
	check := LoadCore(nil, pageSize, PageLayout, 0, 1, 0)
	n := new(Node) // reused across inputs, like a recycled node
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > pageSize {
			img = img[:pageSize]
		}
		orig := append([]byte(nil), img...)
		n.Buf = img
		if err := ParseNode(n, 9, 0, PageLayout); err != nil {
			return
		}
		if !bytes.Equal(img, orig) {
			t.Fatal("ParseNode wrote to the image")
		}
		if err := check.checkNode(n); err != nil {
			t.Fatalf("parsed node fails the Core's checks: %v", err)
		}
		size, err := n.ImageBytes(pageSize)
		if err != nil || size > len(img) {
			t.Fatalf("parsed node of a %d-byte image: ImageBytes = %d, %v", len(img), size, err)
		}
		dst := bytes.Repeat([]byte{0xEE}, len(img))
		EncodeNode(dst, n)
		if !bytes.Equal(dst, orig) {
			t.Fatalf("re-encoded to %x, parsed from %x", dst, orig)
		}
	})
}

// FuzzLeafImage: a stream of inserts, overwrites with a new length and deletes,
// decoded from the input, on a tree of small pages against a map oracle. After
// every operation the tree passes Check, every leaf encodes to exactly the
// image built from the oracle's entries it holds, and that image, parsed
// behind a record header into a recycled node, encodes back to itself.
func FuzzLeafImage(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewPCG(seed, seed))
		ops := make([]byte, 400)
		for i := range ops {
			ops[i] = byte(r.Uint32())
		}
		f.Add(ops)
	}
	const pageSize, hdr = 256, 24
	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := New(bufferpool.New(1<<10), pageSize)
		oracle := make(map[uint64][]byte)
		recycled := new(Node)
		for i := 0; i+1 < len(ops) && i < 600; i += 2 {
			k := uint64(ops[i] >> 2) // 64 keys: a few dozen leaves
			if ops[i]&3 == 3 {
				_, ok := oracle[k]
				if tr.Delete(k) != ok {
					t.Fatalf("op %d: Delete(%d) = %v", i/2, k, !ok)
				}
				delete(oracle, k)
			} else {
				oracle[k] = bytes.Repeat(ops[i+1:i+2], int(ops[i+1])%41)
				tr.Insert(k, oracle[k])
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			keys := slices.Sorted(maps.Keys(oracle))
			id := tr.core.Root()
			for n := tr.store.nodes[id]; !n.Leaf; n = tr.store.nodes[id] {
				id = n.Kids[0]
			}
			for ; id != 0; id = tr.store.nodes[id].Next {
				n := tr.store.nodes[id]
				if len(keys) < len(n.Offs) {
					t.Fatalf("op %d: the leaves hold more entries than the oracle", i/2)
				}
				want := make([]byte, PageHeaderBytes)
				want[0] = kindLeaf
				binary.LittleEndian.PutUint16(want[2:], uint16(len(n.Offs)))
				binary.LittleEndian.PutUint32(want[4:], n.Next)
				for _, k := range keys[:len(n.Offs)] {
					want = binary.LittleEndian.AppendUint64(want, k)
					want = binary.LittleEndian.AppendUint16(want, uint16(len(oracle[k])))
					want = append(want, oracle[k]...)
				}
				keys = keys[len(n.Offs):]
				if got := encode(t, n, pageSize); !bytes.Equal(got, want) {
					t.Fatalf("op %d: leaf %d encodes to %x, its oracle entries to %x", i/2, id, got, want)
				}
				recycled.Buf = append(append(recycled.Buf[:0], make([]byte, hdr)...), want...)
				if err := ParseNode(recycled, id, hdr, MemLayout); err != nil || recycled.NBytes != n.NBytes {
					t.Fatalf("op %d: leaf %d's image parses to %d bytes, not %d (%v)", i/2, id, recycled.NBytes, n.NBytes, err)
				}
				if got := encode(t, recycled, pageSize); !bytes.Equal(got, want) {
					t.Fatalf("op %d: leaf %d's image parses and encodes to %x", i/2, id, got)
				}
			}
			if len(keys) != 0 {
				t.Fatalf("op %d: %d oracle entries in no leaf", i/2, len(keys))
			}
		}
	})
}
