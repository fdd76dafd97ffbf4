package pagedb

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/bufferpool"
)

// This file replays one random operation sequence against the THREE
// implementations of the same visible contract — the unified B+-tree core
// under its in-memory instantiation (btree.Tree), the same core under the
// pagedb instantiation (store-backed NodeStore, different Layout, commits
// interleaved), and a plain map oracle — and requires identical visible
// state plus clean structural invariants on both trees. It runs both as a
// seeded property test and as a Go fuzz target (FuzzTreeDifferential).

// diffKeySpace keeps keys colliding hard so splits, merges, borrows and
// overwrites all fire within a few hundred ops on 256-byte pages.
const diffKeySpace = 128

// applyDifferentialOps interprets data as an op stream and replays it, with
// pagedb on pages of pageSize bytes, and adds the delta pages its checkpoints
// wrote, applied and rebased to sum and the shapes of its checkpoints' delta
// decisions to shapes. On 1 KiB pages, where a delta page may take more than
// four keys, the key space fills about ten leaves, so the cache shrinks to 8
// pages to keep leaves faulting back through their delta pages.
func applyDifferentialOps(t *testing.T, data []byte, pageSize int, sum *[len(deltaCounters)]uint64, shapes *deltaShapes) {
	t.Helper()
	mem := btree.New(bufferpool.New(1<<16), 256)
	opts := memOpts()
	opts.Store.Dir = t.TempDir() // the log a reopen replays needs a directory
	opts.Store.MaxSegments = 1024
	opts.Store.PageSize = pageSize
	if pageSize > 256 {
		opts.CachePages = 8
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	tr, err := db.Tree("diff")
	if err != nil {
		t.Fatal(err)
	}
	// oracle is the visible state; durable is what a reopen finds: the state at
	// the last commit, then the transactions since, which the log replays.
	// Direct Tree writes are not logged: a reopen loses the ones since then.
	oracle, durable := make(map[uint64][]byte), make(map[uint64][]byte)

	// A put's value is as long as its key's usual length four times in five —
	// an overwrite is then mostly a same-length one, written in place — and of
	// a length set by its step otherwise.
	diffVal := func(key uint64, step int, usual bool) []byte {
		n := 8 + (step*7)%40
		if usual {
			n = 8 + int(key*7)%40
		}
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(key) ^ byte(step+i)
		}
		return v
	}

	for step := 0; step+1 < len(data); step += 2 {
		op, key := data[step]%12, uint64(data[step+1])%diffKeySpace
		switch {
		case op <= 4: // Put
			v := diffVal(key, step, op < 4)
			mem.Insert(key, v)
			if err := tr.Put(key, v); err != nil {
				t.Fatalf("step %d: pagedb Put(%d): %v", step, key, err)
			}
			// Both trees copy v, so scribbling over it must change neither;
			// the oracle keeps the copy taken first.
			oracle[key] = append([]byte(nil), v...)
			for i := range v {
				v[i] ^= 0xFF
			}
		case op <= 6: // Delete
			_, want := oracle[key]
			if got := mem.Delete(key); got != want {
				t.Fatalf("step %d: mem Delete(%d) = %v, oracle says %v", step, key, got, want)
			}
			got, err := tr.Delete(key)
			if err != nil {
				t.Fatalf("step %d: pagedb Delete(%d): %v", step, key, err)
			}
			if got != want {
				t.Fatalf("step %d: pagedb Delete(%d) = %v, oracle says %v", step, key, got, want)
			}
			delete(oracle, key)
		case op == 7: // Get
			mv, mok := mem.Get(key)
			dv, dok, err := tr.Get(key)
			if err != nil {
				t.Fatalf("step %d: pagedb Get(%d): %v", step, key, err)
			}
			ov, want := oracle[key]
			if mok != want || dok != want {
				t.Fatalf("step %d: Get(%d) presence mem=%v pagedb=%v oracle=%v", step, key, mok, dok, want)
			}
			if want && (!bytes.Equal(mv, ov) || !bytes.Equal(dv, ov)) {
				t.Fatalf("step %d: Get(%d) values diverge from oracle", step, key)
			}
		case op == 8: // Scan a window and compare the two trees pairwise
			from, to := key, key+diffKeySpace/4
			var memGot, dbGot []string
			mem.Scan(from, to, func(k uint64, v []byte) bool {
				memGot = append(memGot, fmt.Sprintf("%d:%x", k, v))
				return true
			})
			if err := tr.Scan(from, to, func(k uint64, v []byte) bool {
				dbGot = append(dbGot, fmt.Sprintf("%d:%x", k, v))
				return true
			}); err != nil {
				t.Fatalf("step %d: pagedb Scan: %v", step, err)
			}
			if fmt.Sprint(memGot) != fmt.Sprint(dbGot) {
				t.Fatalf("step %d: Scan[%d,%d] diverges:\nmem    %v\npagedb %v", step, from, to, memGot, dbGot)
			}
		case op == 10: // A transaction: a run of puts near key, committed together
			x, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			n := 2 + int(data[step+1])%13
			for j := 0; j < n; j++ {
				k := (key + uint64(j)) % diffKeySpace
				if j%4 == 3 { // a key the run has put already
					k = (key + uint64(j-2)) % diffKeySpace
				}
				if j == n/2 && step%3 == 0 { // a delete cuts the run in two
					if _, err := x.Delete("diff", k); err != nil {
						t.Fatal(err)
					}
					mem.Delete(k)
					delete(oracle, k)
					delete(durable, k)
					continue
				}
				v := diffVal(k, step+j, (step+j)%5 != 0)
				if err := x.Put("diff", k, v); err != nil {
					t.Fatal(err)
				}
				mem.Insert(k, v)
				oracle[k], durable[k] = v, v
			}
			if err := x.Commit(); err != nil {
				t.Fatalf("step %d: Txn.Commit: %v", step, err)
			}
			agree(t, step, mem, tr, oracle)
		case op == 11 && key%4 == 0: // Reopen: the log replays every transaction since the last commit
			tally(db, sum)
			db.crash()
			if err := errors.Join(db.wal.Close(), db.st.Close()); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(opts); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			if tr, err = db.Tree("diff"); err != nil {
				t.Fatal(err)
			}
			oracle = maps.Clone(durable)
			mem = btree.New(bufferpool.New(1<<16), 256)
			for k, v := range oracle {
				mem.Insert(k, v)
			}
			agree(t, step, mem, tr, oracle)
		default: // Commit the durable engine mid-stream
			if err := shapes.commit(db); err != nil {
				t.Fatalf("step %d: Commit: %v", step, err)
			}
			durable = maps.Clone(oracle)
		}
	}

	// Final: identical visible state across all three, invariants clean.
	agree(t, len(data), mem, tr, oracle)
	// And the durable half survives a real commit + reload cycle intact.
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("pagedb invariants after final commit: %v", err)
	}
	tally(db, sum)
}

// agree fails unless the mem tree, the pagedb tree and the oracle hold the
// same keys and values, and both trees pass their invariant checks.
func agree(t *testing.T, step int, mem *btree.Tree, tr *Tree, oracle map[uint64][]byte) {
	t.Helper()
	if mem.Len() != len(oracle) || tr.Len() != len(oracle) {
		t.Fatalf("step %d: Len diverged: mem %d, pagedb %d, oracle %d", step, mem.Len(), tr.Len(), len(oracle))
	}
	keys := slices.Sorted(maps.Keys(oracle))
	check := func(name string, scan func(func(uint64, []byte) bool)) {
		i := 0
		scan(func(k uint64, v []byte) bool {
			if i >= len(keys) || k != keys[i] || !bytes.Equal(v, oracle[k]) {
				t.Fatalf("step %d: %s scan diverges from oracle at position %d (key %d)", step, name, i, k)
			}
			i++
			return true
		})
		if i != len(keys) {
			t.Fatalf("step %d: %s scan visited %d of %d oracle keys", step, name, i, len(keys))
		}
	}
	check("mem", func(fn func(uint64, []byte) bool) { mem.Scan(0, ^uint64(0), fn) })
	check("pagedb", func(fn func(uint64, []byte) bool) {
		if err := tr.Scan(0, ^uint64(0), fn); err != nil {
			t.Fatal(err)
		}
	})
	if err := mem.CheckInvariants(); err != nil {
		t.Fatalf("step %d: mem invariants: %v", step, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("step %d: pagedb invariants: %v", step, err)
	}
}

// TestDifferentialAgainstOracle is the seeded property test: many random op
// sequences, each replayed through applyDifferentialOps on 256-byte pages,
// then more on 1 KiB ones.
func TestDifferentialAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(2024, 7))
	rounds, bigRounds, opBytes := 25, 10, 4000
	if testing.Short() {
		rounds, bigRounds = 5, 2
	}
	stream := func() []byte {
		data := make([]byte, opBytes)
		for i := range data {
			data[i] = byte(r.UintN(256))
		}
		return data
	}
	var sum [len(deltaCounters)]uint64
	for round := 0; round < rounds; round++ {
		data := stream()
		t.Run(fmt.Sprintf("round-%d", round), func(t *testing.T) {
			applyDifferentialOps(t, data, 256, &sum, new(deltaShapes))
		})
	}
	// The op streams reach the delta path that FuzzTreeDifferential shares.
	for i, n := range sum {
		if n == 0 {
			t.Errorf("no %s", deltaCounters[i])
		}
	}
	// On 1 KiB pages they reach deltas of more than four keys and the rule.
	var shapes deltaShapes
	for round := 0; round < bigRounds; round++ {
		data := stream()
		t.Run(fmt.Sprintf("1KiB-round-%d", round), func(t *testing.T) {
			applyDifferentialOps(t, data, 1024, new([len(deltaCounters)]uint64), &shapes)
		})
	}
	shapes.require(t)
}

// FuzzTreeDifferential lets the fuzzer drive the op stream directly (wired
// into CI with -fuzztime 10s).
func FuzzTreeDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 5, 1}) // put, overwrite, delete the same key
	seed := make([]byte, 600)
	for i := range seed {
		seed[i] = byte(i * 13)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			// Bound one exec's work so the fuzzer explores sequences rather
			// than grinding a few giant ones.
			data = data[:4096]
		}
		for _, pageSize := range []int{256, 1024} {
			applyDifferentialOps(t, data, pageSize, new([len(deltaCounters)]uint64), new(deltaShapes))
		}
	})
}
