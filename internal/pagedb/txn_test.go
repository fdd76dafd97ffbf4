package pagedb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/tpcc"
)

// TestTxnOverlaySemantics exercises the transaction's private read view:
// own writes shadow committed state, tombstones hide base keys, DropTree
// masks a whole tree, and nothing is visible outside until Commit.
func TestTxnOverlaySemantics(t *testing.T) {
	db, err := Open(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10; k++ {
		if err := tr.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
	}

	x, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Own write shadows the committed value.
	if err := x.Put("t", 3, val(3, 9)); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := x.Get("t", 3); !ok || !bytes.Equal(v, val(3, 9)) {
		t.Fatalf("txn read own write: ok=%v v=%x", ok, v)
	}
	// Tombstone hides the base key; Delete reports prior existence through
	// the overlay.
	if existed, err := x.Delete("t", 4); err != nil || !existed {
		t.Fatalf("delete base key: existed=%v err=%v", existed, err)
	}
	if _, ok, _ := x.Get("t", 4); ok {
		t.Fatal("tombstoned key visible inside txn")
	}
	if existed, _ := x.Delete("t", 4); existed {
		t.Fatal("second delete of same key reported it existing")
	}
	// New key beyond the base range, plus a nil value (valid, distinct from
	// deleted).
	if err := x.Put("t", 100, nil); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := x.Get("t", 100); !ok || len(v) != 0 {
		t.Fatalf("nil-value put: ok=%v v=%x", ok, v)
	}
	// Merge scan: base keys 0..9 minus tombstone 4, key 3 rewritten, 100
	// appended from the overlay past the base.
	var keys []uint64
	if err := x.Scan("t", 0, ^uint64(0), func(k uint64, v []byte) bool {
		keys = append(keys, k)
		if k == 3 && !bytes.Equal(v, val(3, 9)) {
			t.Errorf("scan saw stale value for rewritten key 3: %x", v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 2, 3, 5, 6, 7, 8, 9, 100}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("txn scan keys %v, want %v", keys, want)
	}

	// Nothing leaked to the shared tree pre-commit.
	if _, ok, _ := tr.Get(100); ok {
		t.Fatal("uncommitted write visible outside the transaction")
	}
	if _, ok, _ := tr.Get(4); !ok {
		t.Fatal("uncommitted delete visible outside the transaction")
	}

	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Get(100); !ok {
		t.Fatal("committed write missing from shared tree")
	}
	if _, ok, _ := tr.Get(4); ok {
		t.Fatal("committed delete missing from shared tree")
	}
	// Finished transactions refuse everything.
	if err := x.Put("t", 1, nil); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Put after Commit: %v", err)
	}
	if err := x.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double Commit: %v", err)
	}

	// DropTree masks the base for the transaction's own reads, and writes
	// after it recreate the tree at Commit.
	x2, _ := db.Begin()
	if err := x2.DropTree("t"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := x2.Get("t", 0); ok {
		t.Fatal("dropped tree still readable inside txn")
	}
	if err := x2.Put("t", 7, val(7, 5)); err != nil {
		t.Fatal(err)
	}
	n := 0
	x2.Scan("t", 0, ^uint64(0), func(uint64, []byte) bool { n++; return true })
	if n != 1 {
		t.Fatalf("post-drop txn scan saw %d keys, want 1", n)
	}
	if err := x2.Commit(); err != nil {
		t.Fatal(err)
	}
	tr2, _ := db.Tree("t")
	if tr2.Len() != 1 {
		t.Fatalf("recreated tree has %d keys, want 1", tr2.Len())
	}

	// Rollback discards everything; a read-only commit is free.
	x3, _ := db.Begin()
	x3.Put("t", 999, nil)
	if err := x3.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr2.Get(999); ok {
		t.Fatal("rolled-back write committed")
	}
	before := db.Stats().WAL.Seq
	x4, _ := db.Begin()
	if _, _, err := x4.Get("t", 7); err != nil {
		t.Fatal(err)
	}
	if err := x4.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := db.Stats().WAL.Seq; after != before {
		t.Fatalf("read-only commit advanced the WAL: %d -> %d", before, after)
	}
}

// dbState collects every tree's full key->value contents — the equality
// basis for the replay-idempotence checks.
func dbState(t *testing.T, db *DB) map[string]map[uint64]string {
	t.Helper()
	state := map[string]map[uint64]string{}
	for _, name := range db.TreeNames() {
		tr, err := db.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		m := map[uint64]string{}
		if err := tr.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
			m[k] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("tree %s invariants: %v", name, err)
		}
		state[name] = m
	}
	return state
}

func sameState(a, b map[string]map[uint64]string) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestTxnCommitsReplayAfterCrashBeforeCheckpoint is the core WAL promise:
// transactions acknowledged by Txn.Commit survive a crash even though no
// checkpoint (DB.Commit) ever ran — Open replays the log tail. And the
// replay is idempotent: crashing and reopening again, still without a
// checkpoint, reaches the identical state.
func TestTxnCommitsReplayAfterCrashBeforeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// A checkpointed base the replay must redo on top of.
	tr, _ := db.Tree("base")
	for k := uint64(0); k < 20; k++ {
		if err := tr.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint transactions: overwrite, delete, a fresh tree, a
	// dropped-and-recreated tree. No DB.Commit after any of them.
	x1, _ := db.Begin()
	x1.Put("base", 5, val(5, 2))
	x1.Delete("base", 6)
	x1.Put("extra", 1, val(1, 3))
	if err := x1.Commit(); err != nil {
		t.Fatal(err)
	}
	x2, _ := db.Begin()
	x2.DropTree("extra")
	x2.Put("extra", 2, val(2, 4))
	x2.Put("base", 21, val(21, 2))
	if err := x2.Commit(); err != nil {
		t.Fatal(err)
	}
	want := dbState(t, db)
	db.crash()

	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen with WAL tail: %v", err)
	}
	if got := dbState(t, db2); !sameState(got, want) {
		t.Fatalf("replayed state diverged:\n got %v\nwant %v", got, want)
	}
	if st := db2.Stats(); st.Txns != 2 {
		t.Errorf("replay applied %d transactions, want 2", st.Txns)
	}
	// New transaction ids must not collide with replayed ones.
	x3, err := db2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if x3.ID() <= 2 {
		t.Errorf("post-replay txn id %d collides with the replayed tail", x3.ID())
	}
	x3.Rollback()
	db2.crash()

	// Second crash, still no checkpoint: same tail replays to the same
	// state (idempotence), and a clean Close then persists it for good.
	db3, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := dbState(t, db3); !sameState(got, want) {
		t.Fatalf("second replay diverged from first")
	}
	if err := db3.Close(); err != nil {
		t.Fatal(err)
	}
	db4, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db4.Close()
	if got := dbState(t, db4); !sameState(got, want) {
		t.Fatalf("state after checkpointing the replayed tail diverged")
	}
	// The Close checkpoint covered the tail, so nothing replayed this time.
	if st := db4.Stats(); st.Txns != 0 {
		t.Errorf("reopen after checkpoint replayed %d transactions, want 0", st.Txns)
	}
}

// walTail returns the newest WAL generation file under the DB dir.
func walTail(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no wal generation files in %s: %v", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// TestTornFinalWALTxnRollsBackExactlyOne tears bytes off the physical WAL
// tail after a crash: the final transaction must vanish wholesale — never
// partially — while every earlier committed transaction and the
// checkpointed base survive intact.
func TestTornFinalWALTxnRollsBackExactlyOne(t *testing.T) {
	for _, cut := range []int64{1, 7, 23} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			opts := durableOpts(dir)
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tr, _ := db.Tree("t")
			for k := uint64(0); k < 10; k++ {
				tr.Put(k, val(k, 1))
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
			// Survivor transaction, then the victim the tear will erase.
			x1, _ := db.Begin()
			for k := uint64(100); k < 105; k++ {
				x1.Put("t", k, val(k, 2))
			}
			if err := x1.Commit(); err != nil {
				t.Fatal(err)
			}
			want := dbState(t, db)
			x2, _ := db.Begin()
			for k := uint64(200); k < 205; k++ {
				x2.Put("t", k, val(k, 3))
			}
			x2.Delete("t", 3) // tear must undo this too — wholesale rollback
			if err := x2.Commit(); err != nil {
				t.Fatal(err)
			}
			db.crash()

			tail := walTail(t, dir)
			fi, err := os.Stat(tail)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() <= cut {
				t.Fatalf("wal tail only %d bytes, cannot cut %d", fi.Size(), cut)
			}
			if err := os.Truncate(tail, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}

			db2, err := Open(opts)
			if err != nil {
				t.Fatalf("recovery after torn wal tail: %v", err)
			}
			defer db2.Close()
			if got := dbState(t, db2); !sameState(got, want) {
				t.Fatalf("torn-tail recovery diverged from pre-victim state:\n got %v\nwant %v", got, want)
			}
			tr2, _ := db2.Tree("t")
			if _, ok, _ := tr2.Get(200); ok {
				t.Fatal("torn transaction's write surfaced after recovery")
			}
			if _, ok, _ := tr2.Get(3); !ok {
				t.Fatal("torn transaction's delete was applied — partial rollback")
			}
		})
	}
}

// TestTxnHammerConcurrent is the -race acceptance hammer: committing
// transaction writers race point readers and snapshot (View) readers. Each
// transaction rewrites a whole batch of keys with one version stamp, so a
// View observing mixed versions inside a batch proves a torn (non-atomic)
// apply. Afterwards the log must show group-commit coalescing: fewer fsync
// rounds than commits.
func TestTxnHammerConcurrent(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.Store.PageSize = 512
	opts.CachePages = 128
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		txnsPer = 30
		batch   = 8
		readers = 3
		keySpan = 1 << 10 // per-writer key stride
	)
	tr, err := db.Tree("h")
	if err != nil {
		t.Fatal(err)
	}
	// Seed version 1 so readers always find the keys.
	for w := 0; w < writers; w++ {
		for i := 0; i < batch; i++ {
			k := uint64(w*keySpan + i)
			if err := tr.Put(k, mkval(k, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, writers+readers+1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 2; v < 2+txnsPer; v++ {
				x, err := db.Begin()
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < batch; i++ {
					k := uint64(w*keySpan + i)
					if err := x.Put("h", k, mkval(k, byte(v))); err != nil {
						errs <- err
						return
					}
				}
				if err := x.Commit(); err != nil {
					errs <- fmt.Errorf("writer %d txn %d: %w", w, v, err)
					return
				}
			}
		}(w)
	}
	// Point readers: values must never be torn.
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			buf := []byte(nil)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64((i % writers * keySpan) + i%batch)
				v, ok, err := tr.GetInto(k, buf)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					errs <- fmt.Errorf("reader lost key %d", k)
					return
				}
				if err := checkVal(k, v); err != nil {
					errs <- err
					return
				}
				buf = v
			}
		}(r)
	}
	// Snapshot reader: within one View, a writer's whole batch must carry a
	// single version stamp — a committing transaction is all-or-nothing.
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := db.View(func(v *View) error {
				for w := 0; w < writers; w++ {
					var ver byte
					for i := 0; i < batch; i++ {
						k := uint64(w*keySpan + i)
						val, ok, err := v.Get("h", k)
						if err != nil || !ok {
							return fmt.Errorf("view lost key %d: %v", k, err)
						}
						if err := checkVal(k, val); err != nil {
							return err
						}
						if i == 0 {
							ver = val[8]
						} else if val[8] != ver {
							return fmt.Errorf("writer %d batch torn inside a View: key %d at version %d, batch at %d", w, k, val[8], ver)
						}
					}
				}
				return nil
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := db.Stats()
	if st.WAL.Commits != writers*txnsPer {
		t.Errorf("wal committed %d transactions, want %d", st.WAL.Commits, writers*txnsPer)
	}
	if st.WAL.Rounds >= st.WAL.Commits {
		t.Errorf("no group-commit coalescing: %d fsync rounds for %d commits", st.WAL.Rounds, st.WAL.Commits)
	}
	t.Logf("group commit: %d commits over %d fsync rounds (%.2f rounds/commit)",
		st.WAL.Commits, st.WAL.Rounds, float64(st.WAL.Rounds)/float64(st.WAL.Commits))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Final values must be each writer's last committed version everywhere.
	want := dbState(t, db)
	db.crash()
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dbState(t, db2); !sameState(got, want) {
		t.Fatal("state after crash+replay diverged from the live state at quiesce")
	}
	if p := db2.pool.Pinned(); p != 0 {
		t.Errorf("%d pages still pinned after recovery", p)
	}
}

// TestTPCCConcurrentTxnBackend drives concurrent TPC-C through the
// per-transaction WAL path (NewTxnBackend → db.Begin per transaction) and
// then crashes: with every transaction individually durable, the reopened
// database must match the quiesced state exactly — no checkpoint needed.
func TestTPCCConcurrentTxnBackend(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Store:      durableOpts(dir).Store,
		CachePages: 256,
	}
	opts.Store.PageSize = 2048
	opts.Store.SegmentPages = 16
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tpcc.Config{
		Warehouses:               2,
		CustomersPerDistrict:     20,
		Items:                    100,
		InitialOrdersPerDistrict: 20,
		CheckpointEveryTx:        200,
		Seed:                     19,
		Obs:                      db.Obs(), // one registry for the whole stack, as a benchmark run has
	}
	eng, err := tpcc.NewEngineOn(cfg, tpcc.NewTxnBackend(db.Tree, db.Commit, db.Begin))
	if err != nil {
		t.Fatal(err)
	}
	const total, workers = 800, 4
	if err := eng.RunConcurrent(total, workers); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().TxTotal(); got != total {
		t.Errorf("ran %d transactions, want %d", got, total)
	}
	st := db.Stats()
	if st.WAL.Commits == 0 {
		t.Fatal("txn backend never touched the WAL — transactions ran in batch mode")
	}
	if st.WAL.Rounds >= st.WAL.Commits {
		t.Errorf("tpcc group commit did not coalesce: %d rounds for %d commits", st.WAL.Rounds, st.WAL.Commits)
	}
	t.Logf("tpcc: %d wal commits, %d fsync rounds (%.2f rounds/commit), %d truncations",
		st.WAL.Commits, st.WAL.Rounds, float64(st.WAL.Rounds)/float64(st.WAL.Commits), st.WAL.Truncations)
	// The commit path is instrumented end to end: every leg recorded, and the
	// registry's group-commit counters are the ones Stats reports.
	snap := db.Obs().Snapshot()
	for _, name := range []string{"wal.append.ns", "wal.fsync.ns", "wal.commit.ns",
		"pagedb.commit.ns", "store.commit.ns", "tpcc.tx.NewOrder.ns"} {
		t.Run(name, func(t *testing.T) {
			if snap.Histograms[name].Count == 0 {
				t.Errorf("histogram %q recorded nothing", name)
			}
		})
	}
	commits, rounds := snap.Counters["wal.commit.commits"], snap.Counters["wal.commit.rounds"]
	if commits != st.WAL.Commits || rounds != st.WAL.Rounds {
		t.Errorf("registry says %d commits / %d rounds, Stats().WAL says %d / %d",
			commits, rounds, st.WAL.Commits, st.WAL.Rounds)
	}
	if rounds == 0 || rounds > commits {
		t.Errorf("incoherent group commit: %d fsync rounds for %d commits", rounds, commits)
	}

	want := dbState(t, db)
	db.crash()
	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen after tpcc crash: %v", err)
	}
	defer db2.Close()
	if got := dbState(t, db2); !sameState(got, want) {
		t.Fatal("committed TPC-C transactions lost or mutated across the crash")
	}
}
