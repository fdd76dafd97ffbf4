package btree

import (
	"bytes"
	"fmt"
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

func TestNodePageRoundTrip(t *testing.T) {
	leaf := &Node{
		Leaf: true,
		Next: 42,
		Keys: []uint64{1, 5, 9},
		Vals: [][]byte{[]byte("a"), {}, []byte("ccc")},
	}
	img := encode(t, leaf, 256)
	// A recycled node: arrays of the right size are reused, whatever they
	// held; one that is far too large (or a branch's, in a leaf) is let go.
	got := &Node{Keys: make([]uint64, 3), Vals: make([][]byte, 2, 3), Kids: []uint32{4, 4}, Donor: true, NBytes: 99}
	keys, vals := &got.Keys[0], &got.Vals[0]
	if err := ParseNode(got, 7, img, PageLayout); err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || !got.Leaf || got.Next != 42 || len(got.Keys) != 3 || got.Kids != nil || got.Donor {
		t.Fatalf("leaf round trip: %+v", got)
	}
	if &got.Keys[0] != keys || &got.Vals[0] != vals {
		t.Error("ParseNode did not reuse the node's arrays")
	}
	want := 0
	for i := range leaf.Keys {
		if got.Keys[i] != leaf.Keys[i] || !bytes.Equal(got.Vals[i], leaf.Vals[i]) {
			t.Fatalf("leaf entry %d: %d/%q", i, got.Keys[i], got.Vals[i])
		}
		want += PageLayout.LeafEntry(leaf.Vals[i])
	}
	if got.NBytes != want {
		t.Errorf("NBytes = %d, want %d", got.NBytes, want)
	}
	// Parsed values ARE the image — nothing was copied — and each is capped,
	// so appending to one cannot run into the next entry.
	if v := got.Vals[2]; &v[0] != &img[len(img)-3] || cap(v) != 3 {
		t.Error("parsed value is not a capped sub-slice of the image")
	}
	if v := got.Vals[1]; len(v) != 0 || cap(v) != 0 {
		t.Error("empty value has capacity into the next entry")
	}
	// Under another layout the accounting follows that layout's costs.
	if err := ParseNode(got, 7, img, MemLayout); err != nil || got.NBytes != want+3*(MemLayout.LeafEntryOverhead-PageLayout.LeafEntryOverhead) {
		t.Errorf("MemLayout parse: NBytes %d, err %v", got.NBytes, err)
	}

	branch := &Node{Keys: []uint64{10, 20}, Kids: []uint32{3, 7, 11}}
	img = append(encode(t, branch, 256), 0, 0, 0) // zero padding past the entries is legal
	if err := ParseNode(got, 8, img, PageLayout); err != nil {
		t.Fatal(err)
	}
	if got.Leaf || len(got.Keys) != 2 || len(got.Kids) != 3 || got.Kids[1] != 7 || got.Vals != nil || got.NBytes != 3*BranchEntryBytes {
		t.Fatalf("branch round trip: %+v", got)
	}
	if &got.Keys[0] == keys || cap(got.Keys) != 2 {
		t.Errorf("a 3-key array was kept for 2 keys (cap %d)", cap(got.Keys))
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
	for name, n := range map[string]*Node{
		"oversized leaf":                   {Leaf: true, Keys: []uint64{1}, Vals: [][]byte{make([]byte, 100)}},
		"leaf with a missing value":        {Leaf: true, Keys: []uint64{1, 2}, Vals: [][]byte{nil}},
		"leaf value over the length field": {Leaf: true, Keys: []uint64{1}, Vals: [][]byte{make([]byte, 0x10000)}},
		"branch with too few children":     {Keys: []uint64{1}, Kids: []uint32{2}},
		"branch with a leaf chain link":    {Kids: []uint32{2}, Next: 9},
		"keys out of order":                {Keys: []uint64{2, 2}, Kids: []uint32{1, 2, 3}},
		"count over the count field":       {Keys: make([]uint64, 0x10000), Kids: make([]uint32, 0x10001)},
	} {
		pageSize := 64
		if len(n.Keys) > 100 || len(n.Vals) == 1 && len(n.Vals[0]) > 100 {
			pageSize = 1 << 30 // only the field width is in the way
		}
		if _, err := n.ImageBytes(pageSize); err == nil {
			t.Errorf("%s passed ImageBytes", name)
		}
	}
}

func TestDecodePageRejectsCorrupt(t *testing.T) {
	parse := func(img []byte) error { return ParseNode(new(Node), 1, img, PageLayout) }
	if err := parse(make([]byte, 4)); err == nil {
		t.Error("short image parsed")
	}
	leaf := encode(t, &Node{Leaf: true, Keys: []uint64{1, 4}, Vals: [][]byte{[]byte("xy"), []byte("z")}}, 64)
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
		2: {Leaf: true, Next: 3, Keys: []uint64{1, 5}, Vals: [][]byte{[]byte("a"), []byte("b")}},
		3: {Leaf: true, Keys: []uint64{10, 20}, Vals: [][]byte{[]byte("c"), []byte("d")}},
	}
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
	pages[3].Keys[0] = 9 // below the separator bound
	if err := CheckPageTree(fetch, 1, 2, 4, pageSize); err == nil {
		t.Error("bound violation accepted")
	}
	pages[3].Keys[0] = 10
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
// parses each image (ParseNode, which may alias it) and runs the one shared
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
	n := new(Node)
	return n, ParseNode(n, id, img, PageLayout)
}

func (s pageFetchStore) Release(*Node) {}

func (s pageFetchStore) MarkDirty(*Node) {}

func (s pageFetchStore) Free(uint32) error {
	return fmt.Errorf("btree: read-only page store cannot free")
}

type errNotFound uint32

func (e errNotFound) Error() string { return "page not found" }

// FuzzParseNode: ParseNode over arbitrary bytes never panics, and whatever it
// accepts is a node the Core's own per-node checks pass, whose values lie
// inside the image, and which encodes back to exactly the bytes it came from.
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
		if err := ParseNode(n, 9, img, PageLayout); err != nil {
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
