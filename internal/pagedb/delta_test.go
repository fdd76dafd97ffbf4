package pagedb

import (
	"bytes"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/btree"
	"repro/internal/store"
)

// deltaCounters are the delta pages written, applied by faults, and the leaves
// rebased (written in full over one): pagedb.delta.{pages,applies,rebases}.
var deltaCounters = [...]string{"pagedb.delta.pages", "pagedb.delta.applies", "pagedb.delta.rebases"}

// tally adds db's delta counters to sum.
func tally(db *DB, sum *[len(deltaCounters)]uint64) {
	for i, name := range deltaCounters {
		sum[i] += db.Obs().Counter(name).Value()
	}
}

// TestLeafDeltasMatchModel drives seeded random transactions — puts of values
// of varied lengths and deletes on two trees, now and then one that deletes
// every key of the second — through a cache far smaller than the trees, with
// checkpoints at random points, so leaves are written as delta pages, faulted
// back through them, rebased, and freed with them. At random points it reopens after Close,
// or opens a kill image (a copy of the directory taken while the DB is open:
// under DurCommit every committed transaction is in it), and checks it against
// a map model. Over the seeds on 256-byte pages, delta writes, applies and
// rebases must each happen, and so must a freed leaf's delta page be
// tombstoned. Each seed then runs again on 1 KiB pages, where a leaf's delta
// may take more keys: over those runs a delta page of more than four keys and
// a rebase the rule decided must each happen (deltaShapes).
// PAGEDB_DELTA_SEEDS sets the seed count (default 8).
func TestLeafDeltasMatchModel(t *testing.T) {
	seeds := 8
	if s := os.Getenv("PAGEDB_DELTA_SEEDS"); s != "" {
		var err error
		if seeds, err = strconv.Atoi(s); err != nil {
			t.Fatal(err)
		}
	}
	var sum [len(deltaCounters)]uint64
	freed := 0
	for seed := range seeds {
		freed += leafDeltaRun(t, uint64(seed), 256, &sum, new(deltaShapes))
	}
	t.Logf("%d seeds: %v = %v; %d freed leaves' delta pages tombstoned", seeds, deltaCounters, sum, freed)
	for i, n := range sum {
		if n == 0 {
			t.Errorf("no %s", deltaCounters[i])
		}
	}
	if freed == 0 {
		t.Error("no freed leaf had a delta page")
	}
	var shapes deltaShapes
	for seed := range seeds {
		leafDeltaRun(t, uint64(seed), 1024, new([len(deltaCounters)]uint64), &shapes)
	}
	t.Logf("1 KiB pages: %+v", shapes)
	shapes.require(t)
}

// leafDeltaRun is one seed of TestLeafDeltasMatchModel, on pages of pageSize
// bytes. It returns how many freed leaves' delta pages its checkpoints
// tombstoned.
func leafDeltaRun(t *testing.T, seed uint64, pageSize int, sum *[len(deltaCounters)]uint64, shapes *deltaShapes) (freed int) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.CachePages = 12
	opts.Store.PageSize = pageSize
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	rng := rand.New(rand.NewPCG(seed, 57))
	model := map[string]map[uint64][]byte{"a": {}, "b": {}}
	check := func(db *DB, when string) {
		t.Helper()
		for name, m := range model {
			if len(m) == 0 {
				continue // never written, or emptied
			}
			tr, err := db.Tree(name)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(m) {
				t.Fatalf("seed %d, %s: tree %s holds %d keys, the model %d", seed, when, name, tr.Len(), len(m))
			}
			for k, want := range m {
				if got, ok, err := tr.Get(k); err != nil || !ok || !bytes.Equal(got, want) {
					t.Fatalf("seed %d, %s: %s.Get(%d) = %x, %v, %v; want %x", seed, when, name, k, got, ok, err, want)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, when, err)
			}
		}
		if err := checkDirtyTable(db); err != nil {
			t.Fatalf("seed %d, %s: %v", seed, when, err)
		}
	}
	for step := 0; step < 1000; step++ {
		switch r := rng.IntN(100); {
		case r < 80:
			x, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for n := 1 + rng.IntN(3); n > 0; n-- {
				name, k := "a", uint64(rng.IntN(600))
				if rng.IntN(3) == 0 {
					name = "b"
				}
				if _, ok := model[name][k]; ok && rng.IntN(4) == 0 {
					if _, err := x.Delete(name, k); err != nil {
						t.Fatal(err)
					}
					delete(model[name], k)
					continue
				}
				v := make([]byte, 1+rng.IntN(60))
				for i := range v {
					v[i] = byte(rng.Uint32())
				}
				if err := x.Put(name, k, v); err != nil {
					t.Fatal(err)
				}
				model[name][k] = v
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
		case r < 82 && len(model["b"]) > 0:
			x, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range slices.Sorted(maps.Keys(model["b"])) {
				if _, err := x.Delete("b", k); err != nil {
					t.Fatal(err)
				}
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			model["b"] = map[uint64][]byte{}
		case r < 95:
			deltas := freedDeltas(db)
			if err := shapes.commit(db); err != nil {
				t.Fatal(err)
			}
			for _, id := range deltas {
				if db.st.Has(id | deltaBit) {
					t.Fatalf("seed %d: page %d was freed, but its delta page outlived the checkpoint", seed, id)
				}
			}
			freed += len(deltas)
		case r < 97:
			tally(db, sum)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(opts); err != nil {
				t.Fatalf("seed %d, step %d: reopen: %v", seed, step, err)
			}
			check(db, "reopened after Close")
		default:
			killed := filepath.Join(t.TempDir(), "killed")
			if err := os.CopyFS(killed, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			kopts := opts
			kopts.Store.Dir = killed
			kdb, err := Open(kopts)
			if err != nil {
				t.Fatalf("seed %d, step %d: opening the kill image: %v", seed, step, err)
			}
			check(kdb, "kill image")
			tally(kdb, sum)
			if err := kdb.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check(db, "end")
	tally(db, sum)
	return freed
}

// deltaShapes tallies what checkpoints decided for based leaves with keys
// changed: the most keys a delta page they wrote carries (a delta page holds
// the leaf's whole change set), and the leaves the rule wrote in full with
// room left in the set.
type deltaShapes struct{ maxKeys, ruleRebases int }

// require fails t unless a delta page of more than four keys was written, and
// a leaf rebased by the rule, not by a full change set.
func (s deltaShapes) require(t *testing.T) {
	t.Helper()
	if s.maxKeys <= 4 || s.ruleRebases == 0 {
		t.Errorf("delta pages of at most %d keys; %d leaves rebased by the rule", s.maxKeys, s.ruleRebases)
	}
}

// commit runs a checkpoint and adds its decisions to s.
func (s *deltaShapes) commit(db *DB) error {
	db.mu.Lock()
	based := make(map[uint32]int)
	for id, n := range db.dirty {
		if n != nil && n.Based && n.NChanged > 0 {
			based[id] = int(n.NChanged)
		}
	}
	db.mu.Unlock()
	if err := db.Commit(); err != nil {
		return err
	}
	for id, keys := range based {
		switch {
		case db.st.Has(id | deltaBit):
			s.maxKeys = max(s.maxKeys, keys)
		case keys < len(btree.Node{}.Changed):
			s.ruleRebases++
		}
	}
	return nil
}

// freedDeltas returns the pages freed since the last checkpoint whose delta
// page the store holds: the next checkpoint must tombstone it.
func freedDeltas(db *DB) []uint32 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var ids []uint32
	for id, n := range db.dirty {
		if n == nil && db.st.Has(id|deltaBit) {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestRebaseTombstonesTheDeltaPage: a leaf written as a delta page and then
// in full, its changes grown past what the rule lets a delta take, never
// faults back through the old delta page — the checkpoint that writes the
// image tombstones it. Key k's value goes out in the delta page, and the image
// holds k deleted, so a stale delta page would bring it back.
func TestRebaseTombstonesTheDeltaPage(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64][]byte)
	for k := uint64(0); k < 300; k++ {
		oracle[k] = val(k, 1)
		if err := tr.Put(k, oracle[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	const k = 150
	leaf := leafOf(t, db, tr, k)
	var same []uint64 // the leaf's other keys
	for j := uint64(0); j < 300; j++ {
		if j != k && leafOf(t, db, tr, j) == leaf {
			same = append(same, j)
		}
	}
	counter := func(name string) uint64 { return db.Obs().Counter(name).Value() }
	oracle[k] = val(k, 2)
	if err := tr.Put(k, oracle[k]); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if !db.st.Has(leaf|deltaBit) || counter("pagedb.delta.pages") != 1 {
		t.Fatalf("one put: %d delta pages written, the leaf's held %v", counter("pagedb.delta.pages"), db.st.Has(leaf|deltaBit))
	}
	if _, err := tr.Delete(k); err != nil {
		t.Fatal(err)
	}
	delete(oracle, k)
	for _, j := range same[:3] {
		oracle[j] = val(j, 3)
		if err := tr.Put(j, oracle[j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.st.Has(leaf|deltaBit) || counter("pagedb.delta.rebases") != 1 {
		t.Fatalf("four changes: %d rebases, the leaf's delta page held %v", counter("pagedb.delta.rebases"), db.st.Has(leaf|deltaBit))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(durableOpts(dir)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkOracle(t, db, oracle)
}

// TestDeltaRuleFollowsTheCostModel checks where the checkpoint stops writing a
// leaf's delta page, at the row sizes of the benchmark's workloads, on a tree
// of one 4 KiB leaf: a cumulative delta of n keys, d bytes, over an image of
// s goes out while (n+1)·d ≤ 2·s. One more key changes at each checkpoint, a
// same-length overwrite, until one writes the image; then one key is
// rewritten at every checkpoint, which never rebases.
func TestDeltaRuleFollowsTheCostModel(t *testing.T) {
	for _, c := range []struct {
		name        string
		value, rows int
		deltas      uint64 // delta pages before the rebase
	}{
		{"kv 100-byte values", 100, 20, 5},               // 2,208-byte image: 6·558 ≤ 4,416 < 7·668
		{"stock 306-byte rows, half full", 306, 6, 2},    // 1,904: 3·640 ≤ 3,808 < 4·956
		{"customer 655-byte rows, half full", 655, 3, 1}, // 2,003: 2·673 ≤ 4,006 < 3·1,338
	} {
		t.Run(c.name, func(t *testing.T) {
			db, err := Open(Options{Store: store.Options{PageSize: 4096, SegmentPages: 16, MaxSegments: 64}, CachePages: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tr, err := db.Tree("t")
			if err != nil {
				t.Fatal(err)
			}
			row := func(k uint64, version byte) []byte { return bytes.Repeat([]byte{byte(k) + version}, c.value) }
			for k := range uint64(c.rows) {
				if err := tr.Put(k, row(k, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
			if tr.core.Height() != 1 {
				t.Fatalf("%d rows make a tree of height %d", c.rows, tr.core.Height())
			}
			counter := func(name string) uint64 { return db.Obs().Counter(name).Value() }
			for k := uint64(0); counter("pagedb.delta.rebases") == 0; k++ {
				if k == uint64(c.rows) {
					t.Fatalf("all %d rows changed, %d delta pages written, no rebase", c.rows, counter("pagedb.delta.pages"))
				}
				if err := tr.Put(k, row(k, 1)); err != nil {
					t.Fatal(err)
				}
				if err := db.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			deltas := counter("pagedb.delta.pages")
			if deltas != c.deltas {
				t.Errorf("%d delta pages before the rebase, want %d", deltas, c.deltas)
			}
			for v := range byte(10) {
				if err := tr.Put(0, row(0, 2+v)); err != nil {
					t.Fatal(err)
				}
				if err := db.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if got := counter("pagedb.delta.pages") - deltas; got != 10 || counter("pagedb.delta.rebases") != 1 {
				t.Errorf("one key rewritten at 10 checkpoints: %d delta pages, %d rebases in all", got, counter("pagedb.delta.rebases"))
			}
		})
	}
}
