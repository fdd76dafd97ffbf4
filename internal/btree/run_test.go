package btree

import (
	"bytes"
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

// TestInsertRunMatchesInserts applies the same random runs to two Cores on
// the in-memory store, through InsertRun on one and one Insert per entry on
// the other, and after each run requires the same trees to the byte: count,
// height, root, and every node's image, accounting and buffer capacities,
// the pages marked dirty, and what each call reported. BTREE_RUN_SEEDS=n
// sweeps n seeds (default 8).
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
					isNew, err := each.Insert(e.key, e.val)
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
					t.Fatalf("%s: InsertRun added %d (err %v), Inserts %d (err %v)", where, added, runErr, want, eachErr)
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
