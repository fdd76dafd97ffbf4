package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bufferpool"
)

// runEntry is one insert of a run.
type runEntry struct {
	key uint64
	val []byte
}

// runShapes builds the runs TestInsertRunMatchesInserts applies: each draws
// its keys near the tree's existing ones (keys, sorted), so runs overwrite as
// well as insert, and some cross many leaves.
var runShapes = []struct {
	name string
	gen  func(r *rand.Rand, keys []uint64) []runEntry
}{
	{"ascending", func(r *rand.Rand, keys []uint64) []runEntry {
		return stepRun(r, r.Uint64N(4096), 1+r.IntN(300), 1+r.Uint64N(3), false)
	}},
	{"descending", func(r *rand.Rand, keys []uint64) []runEntry {
		return stepRun(r, 1000+r.Uint64N(4096), 1+r.IntN(300), 1+r.Uint64N(3), true)
	}},
	{"shuffled", func(r *rand.Rand, keys []uint64) []runEntry {
		run := stepRun(r, r.Uint64N(4096), 1+r.IntN(200), 1, false)
		r.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
		return run
	}},
	{"repeated key", func(r *rand.Rand, keys []uint64) []runEntry {
		run := stepRun(r, r.Uint64N(4096), 2+r.IntN(100), 1, false)
		for range 1 + r.IntN(8) {
			at, k := r.IntN(len(run)), run[r.IntN(len(run))].key
			run = slices.Insert(run, at, runEntry{k, runValue(r, r.IntN(60))})
		}
		return run
	}},
	{"length changes", func(r *rand.Rand, keys []uint64) []runEntry {
		if len(keys) == 0 {
			return stepRun(r, 0, 50, 1, false)
		}
		at := r.IntN(len(keys))
		run := make([]runEntry, 0, 100)
		for _, k := range keys[at:min(len(keys), at+100)] {
			run = append(run, runEntry{k, runValue(r, r.IntN(60))})
		}
		return run
	}},
	{"splits every few entries", func(r *rand.Rand, keys []uint64) []runEntry {
		run := stepRun(r, r.Uint64N(4096), 1+r.IntN(60), 1+r.Uint64N(2), false)
		for i := range run {
			run[i].val = runValue(r, 100+r.IntN(50))
		}
		return run
	}},
	{"across many leaves", func(r *rand.Rand, keys []uint64) []runEntry {
		run := stepRun(r, 0, 100+r.IntN(200), 10+r.Uint64N(40), false)
		if r.IntN(4) == 0 { // Insert's error part way: both paths stop at it
			run[r.IntN(len(run))].val = runValue(r, 400)
		}
		return run
	}},
}

// stepRun returns n entries from key from, step apart, in ascending order or
// descending.
func stepRun(r *rand.Rand, from uint64, n int, step uint64, down bool) []runEntry {
	run := make([]runEntry, n)
	for i := range run {
		k := from + uint64(i)*step
		if down {
			k = from - min(from, uint64(i)*step)
		}
		run[i] = runEntry{k, runValue(r, 8+r.IntN(40))}
	}
	return run
}

func runValue(r *rand.Rand, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(r.Uint32())
	}
	return v
}

// refInsert is the reference TestInsertRunMatchesInserts holds InsertRun to:
// one insert by recursion, which fetches each node on the way down, writes
// the leaf (place), splits a node over budget on the way back up and grows the
// root — a walk of its own, sharing only place and the two node splits with
// the Core.
func refInsert(c *Core, key uint64, value []byte) (added bool, err error) {
	if err := c.layout.CheckValue(value, c.pageSize); err != nil {
		return false, err
	}
	count := c.count
	split, sep, err := refInsertAt(c, c.root, key, value)
	if added = c.count > count; err != nil || split == 0 {
		return added, err
	}
	root, err := c.alloc(false)
	if err != nil {
		return added, err
	}
	root.Keys = []uint64{sep}
	root.Kids = []uint32{c.root, split}
	root.NBytes = c.layout.BranchEntryBytes * 2
	c.root = root.ID
	c.height++
	c.store.MarkDirty(root)
	c.store.Release(root)
	return added, nil
}

// refInsertAt inserts into node id's subtree and returns the new right
// sibling's id and separator if the node split (split == 0 if not).
func refInsertAt(c *Core, id uint32, key uint64, value []byte) (split uint32, sep uint64, err error) {
	n, err := c.store.Fetch(id)
	if err != nil {
		return 0, 0, err
	}
	defer c.store.Release(n)
	if n.Leaf {
		c.store.MarkDirty(n)
		if i := c.place(n, key, value); n.NBytes > c.budget {
			split, sep, err = c.splitLeaf(n, i)
		}
		return split, sep, err
	}
	ci := n.childIndex(key)
	childSplit, childSep, err := refInsertAt(c, n.Kids[ci], key, value)
	if err != nil || childSplit == 0 {
		return 0, 0, err
	}
	c.store.MarkDirty(n)
	n.NBytes += c.layout.BranchEntryBytes
	spare := spare(c.budget, n.NBytes, c.layout.BranchEntryBytes)
	n.Keys = insertAt(n.Keys, ci, childSep, spare)
	n.Kids = insertAt(n.Kids, ci+1, childSplit, spare)
	if n.NBytes > c.budget {
		split, sep, err = c.splitBranch(n)
	}
	return split, sep, err
}

// TestInsertRunMatchesInserts applies the same random runs to two Cores on
// the in-memory store, through InsertRun on one and one refInsert per entry
// on the other, and after each run requires the same trees to the byte:
// count, height, root, and every node's image, accounting and buffer
// capacities, the pages marked dirty, and what each call reported.
// BTREE_RUN_SEEDS=n sweeps n seeds (default 8).
func TestInsertRunMatchesInserts(t *testing.T) {
	const pageSize = 512
	seeds := 8
	if s := os.Getenv("BTREE_RUN_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("BTREE_RUN_SEEDS=%q: %v", s, err)
		}
		seeds = n
	}
	newCore := func() (*Core, *memStore) {
		s := &memStore{pool: bufferpool.New(1 << 20)} // never evicts: FlushDirty names every page marked dirty
		c, err := NewCore(s, pageSize, PageLayout)
		if err != nil {
			t.Fatal(err)
		}
		return c, s
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(seed), 53))
			run, runStore := newCore()
			each, eachStore := newCore()
			var keys []uint64
			for round := range 60 {
				shape := runShapes[r.IntN(len(runShapes))]
				entries := shape.gen(r, keys)
				added, runErr := run.InsertRun(len(entries), func(i int) (uint64, []byte) {
					return entries[i].key, entries[i].val
				})
				want, applied := 0, len(entries)
				var eachErr error
				for i, e := range entries {
					isNew, err := refInsert(each, e.key, e.val)
					if isNew {
						want++
						keys = append(keys, e.key)
					}
					if err != nil {
						eachErr, applied = err, i
						break
					}
				}
				slices.Sort(keys)
				where := fmt.Sprintf("round %d (%s, %d entries, %d applied)", round, shape.name, len(entries), applied)
				if added != want || (runErr == nil) != (eachErr == nil) {
					t.Fatalf("%s: InsertRun added %d (err %v), refInsert %d (err %v)", where, added, runErr, want, eachErr)
				}
				sameCores(t, where, pageSize, run, runStore, each, eachStore)
			}
		})
	}
}

// sameCores fails unless the two trees pass Check and are the same to the
// byte, and the same pages were marked dirty since the last call.
func sameCores(t *testing.T, where string, pageSize int, a *Core, as *memStore, b *Core, bs *memStore) {
	t.Helper()
	for _, c := range []*Core{a, b} {
		if err := c.Check(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	if a.Len() != b.Len() || a.Height() != b.Height() || a.Root() != b.Root() {
		t.Fatalf("%s: count/height/root %d/%d/%d, want %d/%d/%d", where, a.Len(), a.Height(), a.Root(), b.Len(), b.Height(), b.Root())
	}
	if len(as.nodes) != len(bs.nodes) {
		t.Fatalf("%s: %d node ids, want %d", where, len(as.nodes), len(bs.nodes))
	}
	for id, x := range as.nodes {
		y := bs.nodes[id]
		if x == nil || y == nil {
			if x != y {
				t.Fatalf("%s: node %d exists in one tree only", where, id)
			}
			continue
		}
		if got, want := encode(t, x, pageSize), encode(t, y, pageSize); !bytes.Equal(got, want) {
			t.Fatalf("%s: node %d encodes to\n%x\nwant\n%x", where, id, got, want)
		}
		if x.NBytes != y.NBytes || x.Lo != y.Lo || cap(x.Buf) != cap(y.Buf) || cap(x.Offs) != cap(y.Offs) ||
			cap(x.Keys) != cap(y.Keys) || cap(x.Kids) != cap(y.Kids) {
			t.Fatalf("%s: node %d's accounting or buffers differ: NBytes %d/%d Lo %d/%d caps %d,%d,%d,%d / %d,%d,%d,%d", where, id,
				x.NBytes, y.NBytes, x.Lo, y.Lo, cap(x.Buf), cap(x.Offs), cap(x.Keys), cap(x.Kids), cap(y.Buf), cap(y.Offs), cap(y.Keys), cap(y.Kids))
		}
	}
	as.pool.FlushDirty()
	bs.pool.FlushDirty()
	if !slices.Equal(as.pool.Writes(), bs.pool.Writes()) {
		t.Fatalf("%s: pages marked dirty differ", where)
	}
}

// countingStore is memStore with the pins a pool would hold counted per node
// — Fetch takes one, Release drops one, Free discards the node's — and with
// its Fetches and Allocs counted; the fail-th of those calls, counting both,
// fails with errInjected.
type countingStore struct {
	*memStore
	pins                  map[uint32]int
	fetches, allocs, fail int
}

var errInjected = errors.New("injected store failure")

func newCountingStore() *countingStore {
	return &countingStore{memStore: &memStore{pool: bufferpool.New(1 << 20)}, pins: map[uint32]int{}}
}

func (s *countingStore) Alloc() (uint32, error) {
	if s.allocs++; s.fetches+s.allocs == s.fail {
		return 0, errInjected
	}
	return s.memStore.Alloc()
}

func (s *countingStore) Fetch(id uint32) (*Node, error) {
	if s.fetches++; s.fetches+s.allocs == s.fail {
		return nil, errInjected
	}
	n, err := s.memStore.Fetch(id)
	if err == nil {
		s.pins[id]++
	}
	return n, err
}

// Release of a freed node is a no-op by contract, like one of a node the
// store no longer holds a pin on.
func (s *countingStore) Release(n *Node) {
	if s.pins[n.ID] > 0 {
		s.pins[n.ID]--
	}
}

func (s *countingStore) Free(id uint32) error {
	delete(s.pins, id)
	return s.memStore.Free(id)
}

// TestFailedOperationsReleaseEveryPin fails each Fetch or Alloc an operation
// makes in turn, the k-th for every k it reaches, and requires that no node
// holds a pin once the call has returned: an Insert through a root split, an
// InsertRun across leaves with splits, and Deletes through merges and a root
// collapse. Each failure point starts from the same tree.
func TestFailedOperationsReleaseEveryPin(t *testing.T) {
	const pageSize = 256
	value := make([]byte, 8)
	grow := func(c *Core, keys []uint64) {
		for _, k := range keys {
			if _, err := c.Insert(k, value); err != nil {
				t.Fatal(err)
			}
		}
	}
	var before []uint64 // the tree's keys before a root split: found below
	for c, k := mustCore(t, newCountingStore(), pageSize), uint64(0); c.Height() < 3; k++ {
		before = append(before, k)
		grow(c, []uint64{k})
	}
	before = before[:len(before)-1]
	even := make([]uint64, 300)
	for i := range even {
		even[i] = uint64(2 * i)
	}
	cases := []struct {
		name  string
		setup []uint64
		op    func(c *Core) error
		// did reports, after the op ran without a failure, what it failed to
		// exercise, if anything.
		did func(c *Core, s *countingStore, height, nodes int) string
	}{
		{"Insert through a root split", before, func(c *Core) error {
			_, err := c.Insert(uint64(len(before)), value)
			return err
		}, func(c *Core, s *countingStore, height, nodes int) string {
			if c.Height() != height+1 || height < 2 {
				return fmt.Sprintf("height %d -> %d: no root split above a branch", height, c.Height())
			}
			return ""
		}},
		{"InsertRun across leaves with splits", even, func(c *Core) error {
			_, err := c.InsertRun(250, func(i int) (uint64, []byte) { return uint64(2*i + 1), value })
			return err
		}, func(c *Core, s *countingStore, height, nodes int) string {
			if len(s.nodes)-nodes < 10 {
				return fmt.Sprintf("%d nodes -> %d: too few splits", nodes, len(s.nodes))
			}
			return ""
		}},
		{"Deletes through merges and a root collapse", even, func(c *Core) error {
			for _, k := range even {
				if _, err := c.Delete(k); err != nil {
					return err
				}
			}
			return nil
		}, func(c *Core, s *countingStore, height, nodes int) string {
			if height < 3 || c.Height() != 1 || len(s.pool.FreeList()) < 10 {
				return fmt.Sprintf("height %d -> %d, %d pages freed: no merges through a root collapse", height, c.Height(), len(s.pool.FreeList()))
			}
			return ""
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for k := 1; ; k++ {
				s := newCountingStore()
				c := mustCore(t, s, pageSize)
				grow(c, tc.setup)
				height, nodes := c.Height(), len(s.nodes)
				s.fail = s.fetches + s.allocs + k
				err := tc.op(c)
				for id, pins := range s.pins {
					if pins != 0 {
						t.Fatalf("failure point %d (err %v): node %d holds %d pins", k, err, id, pins)
					}
				}
				if err == nil {
					if missing := tc.did(c, s, height, nodes); missing != "" {
						t.Fatal(missing)
					}
					t.Logf("%d failure points", k-1)
					return
				}
				if !errors.Is(err, errInjected) {
					t.Fatalf("failure point %d: %v", k, err)
				}
			}
		})
	}
}

func mustCore(t *testing.T, s NodeStore, pageSize int) *Core {
	t.Helper()
	c, err := NewCore(s, pageSize, PageLayout)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestInsertRunDescendsOncePerLeaf applies ascending runs of 1,000 entries,
// as a bulk load's transactions would, and bounds the Fetches they make by
// one descent per run and per leaf split — a split splits with the path the
// run holds, and the next entry descends anew — plus the Fetch of each node
// allocated.
func TestInsertRunDescendsOncePerLeaf(t *testing.T) {
	const runs, per = 40, 1000
	s := newCountingStore()
	c := mustCore(t, s, 4096)
	value := make([]byte, 16)
	s.fetches, s.allocs = 0, 0
	for r := range runs {
		if _, err := c.InsertRun(per, func(i int) (uint64, []byte) { return uint64(r*per + i), value }); err != nil {
			t.Fatal(err)
		}
	}
	leaves := 0
	for _, n := range s.nodes {
		if n != nil && n.Leaf {
			leaves++
		}
	}
	if bound := c.Height()*(runs+leaves-1) + s.allocs; s.fetches > bound {
		t.Fatalf("%d runs into %d leaves at height %d: %d fetches, over %d (%d allocations)", runs, leaves, c.Height(), s.fetches, bound, s.allocs)
	}
}

// TestWrongHeightIsAnError loads a tree under a height one too low and one too
// high: an insert or a delete, which hold the path they descend, returns an
// error with no pin held instead of walking off its path.
func TestWrongHeightIsAnError(t *testing.T) {
	s := newCountingStore()
	c := mustCore(t, s, 256)
	for k := uint64(0); c.Height() < 3; k++ {
		if _, err := c.Insert(k, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	for _, height := range []int{c.Height() - 1, c.Height() + 1} {
		wrong := LoadCore(s, 256, PageLayout, c.Root(), height, c.Len())
		if _, err := wrong.Insert(1, nil); err == nil {
			t.Errorf("height %d: Insert succeeded", height)
		}
		if _, err := wrong.Delete(1); err == nil {
			t.Errorf("height %d: Delete succeeded", height)
		}
		for id, pins := range s.pins {
			if pins != 0 {
				t.Fatalf("height %d: node %d holds %d pins", height, id, pins)
			}
		}
	}
}

// TestDeleteFetchesItsPathOnce: a Delete that finds its key and rebalances
// nothing Fetches each node on its path once — the root's collapse check uses
// the pin the path holds — and one of a missing key the same.
func TestDeleteFetchesItsPathOnce(t *testing.T) {
	s := newCountingStore()
	c := mustCore(t, s, 256)
	for k := uint64(0); c.Height() < 3; k++ {
		if _, err := c.Insert(2*k, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []uint64{0, 1, 12, 13} { // the first leaf's, present and missing
		s.fetches = 0
		deleted, err := c.Delete(k)
		if err != nil || deleted != (k%2 == 0) {
			t.Fatalf("Delete(%d) = %v, %v", k, deleted, err)
		}
		if s.fetches != c.Height() {
			t.Errorf("Delete(%d) made %d fetches in a tree of height %d", k, s.fetches, c.Height())
		}
	}
}
