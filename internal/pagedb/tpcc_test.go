package pagedb

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tpcc"
)

// tpccBackend wires a DB into the TPC-C engine.
func tpccBackend(db *DB) tpcc.Backend { return tpcc.NewBackend(db.Tree, db.Commit) }

// TestTPCCPagedbMatchesMemoryEngine runs the identical seeded TPC-C
// workload on the in-memory trace engine and on a pagedb-backed engine and
// requires the resulting databases to agree table by table: same
// transaction logic, same data, different storage.
func TestTPCCPagedbMatchesMemoryEngine(t *testing.T) {
	cfg := tpcc.Config{
		Warehouses:               2,
		CustomersPerDistrict:     60,
		Items:                    400,
		InitialOrdersPerDistrict: 40,
		CheckpointEveryTx:        300,
		Seed:                     7,
	}
	const txs = 1200

	mem := tpcc.NewEngine(cfg)
	mem.Run(txs)
	if err := mem.Err(); err != nil {
		t.Fatal(err)
	}

	db, err := Open(Options{
		Store:      store.Options{PageSize: 4096, SegmentPages: 64, MaxSegments: 256},
		CachePages: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng, err := tpcc.NewEngineOn(cfg, tpccBackend(db))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(txs)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}

	if ms, ds := mem.Stats(), eng.Stats(); ms.TxCounts != ds.TxCounts {
		t.Fatalf("transaction mixes diverged: mem %v vs pagedb %v", ms.TxCounts, ds.TxCounts)
	}
	for _, name := range []string{"warehouse", "district", "customer", "custName",
		"orders", "orderCust", "newOrder", "orderLine", "history", "item", "stock"} {
		mt, err := mem.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		dt, err := db.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		if mt.Len() != dt.Len() {
			t.Errorf("table %s: mem has %d rows, pagedb %d", name, mt.Len(), dt.Len())
		}
		// Key sets must match exactly, not just counts.
		var memKeys []uint64
		mt.Scan(0, ^uint64(0), func(k uint64, _ []byte) bool {
			memKeys = append(memKeys, k)
			return true
		})
		i, mismatch := 0, false
		dt.Scan(0, ^uint64(0), func(k uint64, _ []byte) bool {
			if i >= len(memKeys) || memKeys[i] != k {
				mismatch = true
				return false
			}
			i++
			return true
		})
		if mismatch || i != len(memKeys) {
			t.Errorf("table %s: key sets diverge (at position %d of %d)", name, i, len(memKeys))
		}
		if err := dt.CheckInvariants(); err != nil {
			t.Errorf("table %s invariants: %v", name, err)
		}
	}
	if st := db.Stats(); st.Commits == 0 {
		t.Error("pagedb engine never committed")
	}
}

// TestTPCCConcurrentOnPagedb drives concurrent TPC-C transactions through
// one pagedb database (background cleaning) — the -race
// acceptance suite for the durable engine.
func TestTPCCConcurrentOnPagedb(t *testing.T) {
	db, err := Open(Options{
		Store: store.Options{
			PageSize:        4096,
			SegmentPages:    64,
			MaxSegments:     256,
			BackgroundClean: true,
		},
		CachePages: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tpcc.Config{
		Warehouses:               2,
		CustomersPerDistrict:     30,
		Items:                    200,
		InitialOrdersPerDistrict: 30,
		CheckpointEveryTx:        150,
		Seed:                     11,
	}
	eng, err := tpcc.NewEngineOn(cfg, tpccBackend(db))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunConcurrent(2400, 4); err != nil {
		t.Fatal(err)
	}
	if got := txTotal(eng.Stats()); got != 2400 {
		t.Errorf("ran %d transactions, want 2400", got)
	}
	for _, name := range []string{"orders", "orderLine", "newOrder", "customer", "stock"} {
		tr, err := db.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("table %s after concurrent run: %v", name, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTPCCCommittedTransactionsSurviveCrash is the acceptance crash test:
// with a commit per transaction, every completed transaction survives a
// crash, while a transaction whose commit batch was torn vanishes
// wholesale.
func TestTPCCCommittedTransactionsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Store: store.Options{
			Dir:          dir,
			PageSize:     2048,
			SegmentPages: 16,
			MaxSegments:  256,
			Durability:   core.DurCommit,
		},
		CachePages: 64,
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tpcc.Config{
		Warehouses:               1,
		CustomersPerDistrict:     12,
		Items:                    50,
		InitialOrdersPerDistrict: 12,
		CheckpointEveryTx:        1, // one commit batch per transaction
		Seed:                     3,
	}
	eng, err := tpcc.NewEngineOn(cfg, tpccBackend(db))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(59)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil { // settle any read-only tail
		t.Fatal(err)
	}
	snap := snapshotTables(t, db)

	// The 60th "transaction": a write plus its commit, which the crash will
	// tear below.
	orders, err := db.Tree("orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := orders.Put(^uint64(0)-1, make([]byte, 24)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	db.crash()

	// Crash with the final commit intact: everything survives.
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := db2.Tree("orders")
	if _, ok, _ := o2.Get(^uint64(0) - 1); !ok {
		t.Fatal("intact committed transaction lost")
	}
	db2.crash()

	// Tear the final commit's batch: that transaction vanishes wholesale
	// and the 59 committed ones are untouched.
	recs := newestBatch(t, dir)
	recs[0].corrupt(t)
	db3, err := Open(opts)
	if err != nil {
		t.Fatalf("recovery after torn commit: %v", err)
	}
	defer db3.Close()
	o3, _ := db3.Tree("orders")
	if _, ok, _ := o3.Get(^uint64(0) - 1); ok {
		t.Fatal("torn transaction surfaced after recovery")
	}
	compareSnapshot(t, db3, snap)
	for _, name := range db3.TreeNames() {
		tr, _ := db3.Tree(name)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("table %s after torn-commit recovery: %v", name, err)
		}
	}
}

type tableSnap map[string][]uint64

func snapshotTables(t *testing.T, db *DB) tableSnap {
	t.Helper()
	snap := tableSnap{}
	for _, name := range db.TreeNames() {
		tr, err := db.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		var keys []uint64
		if err := tr.Scan(0, ^uint64(0), func(k uint64, _ []byte) bool {
			keys = append(keys, k)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		snap[name] = keys
	}
	return snap
}

func compareSnapshot(t *testing.T, db *DB, snap tableSnap) {
	t.Helper()
	if got, want := len(db.TreeNames()), len(snap); got != want {
		t.Fatalf("recovered %d tables, want %d", got, want)
	}
	for name, want := range snap {
		tr, err := db.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		tr.Scan(0, ^uint64(0), func(k uint64, _ []byte) bool {
			got = append(got, k)
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("table %s diverged after recovery: %d keys vs %d", name, len(got), len(want))
		}
	}
}

// txTotal sums the per-type transaction counts of a Stats snapshot.
func txTotal(s tpcc.Stats) uint64 {
	var n uint64
	for _, c := range s.TxCounts {
		n += c
	}
	return n
}
