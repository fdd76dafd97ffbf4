package btree

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/bufferpool"
)

func newTree(t *testing.T, pageSize int) *Tree {
	t.Helper()
	return New(bufferpool.New(1<<20), pageSize)
}

func val(k uint64, n int) []byte {
	v := make([]byte, n)
	v[0] = byte(k)
	return v
}

func TestInsertGet(t *testing.T) {
	tr := newTree(t, 4096)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		tr.Insert(i*7%n, val(i*7%n, 40))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := tr.Get(i)
		if !ok || v[0] != byte(i) {
			t.Fatalf("Get(%d) = %v,%v", i, v, ok)
		}
	}
	if _, ok := tr.Get(n + 5); ok {
		t.Error("Get of absent key succeeded")
	}
	if tr.Height() < 2 {
		t.Errorf("height %d suspiciously small for %d entries", tr.Height(), n)
	}
}

func TestInsertReplace(t *testing.T) {
	tr := newTree(t, 1024)
	tr.Insert(5, val(5, 10))
	tr.Insert(5, val(5, 300))
	if tr.Len() != 1 {
		t.Fatalf("replace changed Len to %d", tr.Len())
	}
	v, ok := tr.Get(5)
	if !ok || len(v) != 300 {
		t.Fatalf("Get after replace = %d bytes, %v", len(v), ok)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertCopiesValue: the tree owns its values' memory. Mutating the
// caller's slice after an Insert, after a replace by a value of the same length
// and after one of another length leaves the stored value as inserted. The
// same-length replace writes over the old value's bytes; the other moves bytes
// inside the leaf, and the value is still a slice of the leaf's buffer.
func TestInsertCopiesValue(t *testing.T) {
	tr := newTree(t, 1024)
	get := func() []byte {
		t.Helper()
		v, ok := tr.Get(7)
		if !ok {
			t.Fatal("key 7 is missing")
		}
		return v
	}
	v := []byte("first value")
	tr.Insert(7, v)
	v[0] = 'X'
	if string(get()) != "first value" {
		t.Fatalf("after an insert, mutating the caller's slice changed the tree's value to %q", get())
	}
	old := get()
	w := []byte("other value")
	tr.Insert(7, w)
	w[0] = 'X'
	if string(get()) != "other value" {
		t.Fatalf("after a same-length replace, mutating the caller's slice changed the tree's value to %q", get())
	}
	if &get()[0] != &old[0] {
		t.Error("a same-length replace did not write over the old value's bytes")
	}
	u := []byte("a longer value")
	tr.Insert(7, u)
	u[0] = 'X'
	leaf := tr.store.nodes[tr.core.Root()]
	if string(get()) != "a longer value" || &get()[0] != &leaf.Buf[leaf.Offs[0]+leafEntryOverheadPage] {
		t.Fatalf("after a length change the tree holds %q, in its leaf's buffer: %v", get(), &get()[0] == &leaf.Buf[leaf.Offs[0]+leafEntryOverheadPage])
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 1024)
	const n = 5000
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, val(i, 30))
	}
	// Delete every other key, then the rest.
	for i := uint64(0); i < n; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	for i := uint64(0); i < n; i++ {
		_, ok := tr.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) = %v, want %v", i, ok, want)
		}
	}
	if tr.Delete(0) {
		t.Error("deleting absent key returned true")
	}
	for i := uint64(1); i < n; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if tr.Height() != 1 {
		t.Errorf("height = %d after deleting everything, want 1", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	tr := newTree(t, 1024)
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(i*3, val(i*3, 24))
	}
	var got []uint64
	tr.Scan(30, 90, func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d (%v)", len(got), len(want), got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Early stop.
	n := 0
	tr.Scan(0, 1<<62, func(uint64, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early-stop scan visited %d", n)
	}
	// Empty range.
	tr.Scan(31, 32, func(k uint64, _ []byte) bool {
		t.Errorf("empty-range scan visited %d", k)
		return true
	})
}

func TestVariableSizeValues(t *testing.T) {
	tr := newTree(t, 2048)
	r := rand.New(rand.NewPCG(1, 1))
	sizes := make(map[uint64]int)
	for i := 0; i < 4000; i++ {
		k := uint64(r.IntN(2000))
		sz := 8 + r.IntN(400)
		tr.Insert(k, val(k, sz))
		sizes[k] = sz
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, sz := range sizes {
		v, ok := tr.Get(k)
		if !ok || len(v) != sz {
			t.Fatalf("Get(%d) = %d bytes,%v; want %d", k, len(v), ok, sz)
		}
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	tr := newTree(t, 512) // tiny pages force frequent splits/merges
	oracle := make(map[uint64][]byte)
	r := rand.New(rand.NewPCG(7, 9))
	for step := 0; step < 60000; step++ {
		k := uint64(r.IntN(3000))
		switch r.IntN(3) {
		case 0, 1:
			v := val(k, 8+r.IntN(48))
			tr.Insert(k, v)
			oracle[k] = v
		case 2:
			want := oracle[k] != nil
			got := tr.Delete(k)
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, got, want)
			}
			delete(oracle, k)
		}
		if step%10000 == 9999 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if tr.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", tr.Len(), len(oracle))
	}
	for k, v := range oracle {
		got, ok := tr.Get(k)
		if !ok || len(got) != len(v) {
			t.Fatalf("Get(%d) mismatch", k)
		}
	}
}

func TestQuickSortedTraversal(t *testing.T) {
	// Property: for any key set, an unbounded scan yields sorted keys and
	// exactly the distinct inserted keys.
	err := quick.Check(func(keys []uint16) bool {
		tr := New(bufferpool.New(1<<20), 512)
		distinct := make(map[uint64]bool)
		for _, k := range keys {
			tr.Insert(uint64(k), val(uint64(k), 12))
			distinct[uint64(k)] = true
		}
		var prev int64 = -1
		n := 0
		okScan := true
		tr.Scan(0, 1<<62, func(k uint64, _ []byte) bool {
			if int64(k) <= prev || !distinct[k] {
				okScan = false
				return false
			}
			prev = int64(k)
			n++
			return true
		})
		return okScan && n == len(distinct) && tr.CheckInvariants() == nil
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestPoolSeesTraffic(t *testing.T) {
	pool := bufferpool.New(64) // small cache forces evictions
	tr := New(pool, 1024)
	for i := uint64(0); i < 20000; i++ {
		tr.Insert(i, val(i, 32))
	}
	st := pool.Stats()
	if st.DirtyEvictions == 0 {
		t.Error("sequential load through a small pool should evict dirty pages")
	}
	if len(pool.Writes()) == 0 {
		t.Error("no write trace recorded")
	}
	// Reads of cold pages must miss.
	before := pool.Stats().Misses
	for i := uint64(0); i < 20000; i += 100 {
		tr.Get(i)
	}
	if pool.Stats().Misses == before {
		t.Error("cold reads did not miss")
	}
}

func TestOversizeValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for oversized value")
		}
	}()
	tr := newTree(t, 512)
	tr.Insert(1, make([]byte, 400))
}

func TestPageSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for tiny page size")
		}
	}()
	New(bufferpool.New(10), 64)
}

// BenchmarkTreePut/Get/Scan measure the in-memory instantiation of the
// unified core (internal/pagedb mirrors them for the durable one), guarding
// the cost of the NodeStore indirection on the hot path.

func BenchmarkTreePut(b *testing.B) {
	pool := bufferpool.New(1 << 20)
	tr := New(pool, 4096)
	v := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(uint64(i), v)
	}
}

func BenchmarkTreeGet(b *testing.B) {
	pool := bufferpool.New(1 << 20)
	tr := New(pool, 4096)
	v := make([]byte, 64)
	for i := uint64(0); i < 100000; i++ {
		tr.Insert(i, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(uint64(i) % 100000)
	}
}

func BenchmarkTreeScan(b *testing.B) {
	pool := bufferpool.New(1 << 20)
	tr := New(pool, 4096)
	v := make([]byte, 64)
	for i := uint64(0); i < 100000; i++ {
		tr.Insert(i, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.Scan(0, ^uint64(0), func(uint64, []byte) bool {
			n++
			return n < 1000
		})
	}
}

func ExampleTree() {
	pool := bufferpool.New(1024)
	tr := New(pool, 4096)
	tr.Insert(42, []byte("answer"))
	v, ok := tr.Get(42)
	fmt.Println(string(v), ok)
	// Output: answer true
}
