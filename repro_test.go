package repro

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pagedb"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vlog"
	"repro/internal/workload"
)

// These tests drive each layer end to end through its own package, the way
// the examples and README's quick start use them. They keep the names they had
// when a root facade re-exported those packages.

func TestFacadeSimulation(t *testing.T) {
	cfg := sim.Config{SegmentPages: 32, NumSegments: 256, FillFactor: 0.8,
		FreeLowWater: 4, CleanBatch: 8, WriteBufferSegs: 4}
	gen := workload.NewZipf(cfg.UserPages(), 0.99, 1)
	res, err := sim.Run(cfg, core.MDC(), gen, sim.RunOptions{UpdateMultiple: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wamp <= 0 || math.IsNaN(res.Wamp) {
		t.Fatalf("bogus Wamp %v", res.Wamp)
	}
}

func TestFacadeAnalysis(t *testing.T) {
	e := analysis.FixpointE(0.8)
	if math.Abs(e-0.3714) > 0.001 {
		t.Errorf("analysis.FixpointE(0.8) = %v", e)
	}
	if math.Abs(analysis.CostSeg(e)-2/e) > 1e-12 {
		t.Errorf("CleaningCost inconsistent")
	}
	if math.Abs(analysis.Wamp(e)-(1-e)/e) > 1e-12 {
		t.Errorf("WriteAmplification inconsistent")
	}
	if c := analysis.HotColdCost(0.8, 0.8, 0.5); math.Abs(c-4.0) > 0.1 {
		t.Errorf("analysis.HotColdCost(0.8,0.8,0.5) = %v, paper 4.00", c)
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	names := map[string]bool{}
	for _, a := range append(core.Figure5Set(), core.CostBenefitLiteral(), core.MDCNoSepUser(), core.MDCNoSepUserGC()) {
		names[a.Name] = true
	}
	if len(names) != 10 {
		t.Errorf("%d distinct algorithm names, want 10: %v", len(names), names)
	}
	if alg := core.MDC(); alg.Name != "MDC" || alg.Policy.Name() != "MDC" {
		t.Fatalf("core.MDC() = %v, policy %q", alg, alg.Policy.Name())
	}
	m := core.SegmentMeta{Capacity: 100, Free: 50, Live: 5}
	m.Up2 = 10
	if p := core.DecliningCost(&m, 100); p <= 0 {
		t.Errorf("DecliningCost = %v", p)
	}
}

func TestFacadeStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, PageSize: 256, SegmentPages: 16, MaxSegments: 32,
		Durability: core.DurCommit})
	if err != nil {
		t.Fatal(err)
	}
	pg := make([]byte, 256)
	for i := range pg {
		pg[i] = byte(i)
	}
	if err := st.WritePage(1, pg); err != nil {
		t.Fatal(err)
	}
	// The batched write path with group commit.
	if err := st.Apply(store.NewBatch().Write(2, pg).Write(3, pg).Delete(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := st.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadPage(2, got); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadPage(99, got); err != store.ErrNotFound {
		t.Errorf("missing page error = %v", err)
	}
	s := st.Stats()
	if s.Durability != "commit" || s.Commits == 0 {
		t.Errorf("durability stats not surfaced: %+v", s)
	}
	if len(s.Streams) != 2 || s.Streams[0].Segments == 0 {
		t.Errorf("stream occupancy not surfaced: %+v", s.Streams)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePageDB(t *testing.T) {
	dir := t.TempDir()
	opts := pagedb.Options{
		Store: store.Options{Dir: dir, PageSize: 512, SegmentPages: 16, MaxSegments: 64,
			Durability: core.DurCommit, Algorithm: core.MDC()},
		CachePages: 32,
	}
	db, err := pagedb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	users, err := db.Tree("users")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 300; k++ {
		if err := users.Put(k, []byte("profile")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := users.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Commits == 0 || st.Store.LivePages == 0 {
		t.Errorf("pagedb stats not surfaced: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery.
	db2, err := pagedb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	users2, err := db2.Tree("users")
	if err != nil {
		t.Fatal(err)
	}
	if users2.Len() != 300 {
		t.Fatalf("recovered %d keys, want 300", users2.Len())
	}
	v, ok, err := users2.Get(7)
	if err != nil || !ok || string(v) != "profile" {
		t.Fatalf("Get after reopen: %q %v %v", v, ok, err)
	}
	// Per-transaction durability: a committed transaction is visible to the tree.
	txn, err := db2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Put("users", 1000, []byte("txn")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := users2.Get(1000); err != nil || !ok || string(got) != "txn" {
		t.Fatalf("read after txn commit: %q %v %v", got, ok, err)
	}
	if st := db2.Stats(); st.Txns != 1 || st.WAL.Commits != 1 {
		t.Errorf("txn stats not surfaced: txns=%d wal=%+v", st.Txns, st.WAL)
	}
}

func TestFacadeKV(t *testing.T) {
	kv, err := vlog.New(vlog.Options{SegmentBytes: 4096, MaxSegments: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Commit(vlog.NewBatch().Put("k2", []byte("v2")).Delete("k")); err != nil {
		t.Fatal(err)
	}
	v, ok := kv.Get("k2")
	if !ok || string(v) != "v2" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := kv.Get("k"); ok {
		t.Error("batched delete did not apply")
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Delete("k2"); err == nil {
		t.Error("Delete after Close returned nil; use-after-Close must be observable")
	}
}

func TestScaleConstants(t *testing.T) {
	for _, s := range []experiments.Scale{experiments.ScaleSmall, experiments.ScaleMedium, experiments.ScalePaper} {
		cfg := s.SimConfig(0.8)
		if cfg.NumSegments == 0 || cfg.SegmentPages == 0 {
			t.Errorf("scale %v config empty", s)
		}
	}
}
