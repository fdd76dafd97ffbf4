package pagedb

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"testing"
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
// of varied lengths and deletes on two trees, now and then a DropTree of the
// second — through a cache far smaller than the trees, with checkpoints at
// random points, so leaves are written as delta pages, faulted back through
// them, rebased, and freed with them. At random points it reopens after Close,
// or opens a kill image (a copy of the directory taken while the DB is open:
// under DurCommit every committed transaction is in it), and checks it against
// a map model. Delta writes, applies and rebases must each happen, and so must
// a freed leaf's delta page be tombstoned. PAGEDB_DELTA_SEEDS sets the seed
// count (default 8).
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
		freed += leafDeltaRun(t, uint64(seed), &sum)
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
}

// leafDeltaRun is one seed of TestLeafDeltasMatchModel. It returns how many
// freed leaves' delta pages its checkpoints tombstoned.
func leafDeltaRun(t *testing.T, seed uint64, sum *[len(deltaCounters)]uint64) (freed int) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.CachePages = 12
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
				continue // never written, or dropped
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
			if err := x.DropTree("b"); err != nil {
				t.Fatal(err)
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			model["b"] = map[uint64][]byte{}
		case r < 95:
			deltas := freedDeltas(db)
			if err := db.Commit(); err != nil {
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
// in full, its changes grown past a quarter of its image, never faults back
// through the old delta page — the checkpoint that writes the image
// tombstones it. Key k's value goes out in the delta page, and the image
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
