package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/vlog"
)

// TestGoldenDeterminism pins the exact cleaning behaviour of the store,
// directly and under the vlog key index: a seeded foreground workload (Zipf and hot/cold page choice,
// single-op and batched writes, deletes, delete-then-re-put inside one
// batch) must reproduce, digit for digit, the counters recorded in
// goldenRows (which says what commit each row was recorded at, and why).
// Foreground cleaning is single-threaded and seeded, so every number is a
// pure function of the code: any change to victim choice, GC ordering,
// seal order, reservation or (durable rows) sync points
// shows up here as a diff rather than as "within noise".
//
// GOLDEN_PRINT=1 prints the rows instead of comparing them.
func TestGoldenDeterminism(t *testing.T) {
	algs := []core.Algorithm{core.MDC(), core.Greedy(), core.CostBenefit()}
	var rows []string
	for _, alg := range algs {
		rows = append(rows, "store/"+alg.Name+" "+runGolden(t, 24000, func() goldenEngine {
			return openPageEngine(t, store.Options{PageSize: 64, SegmentPages: 16, MaxSegments: 128, Algorithm: alg})
		}, nil, true))
	}
	for _, alg := range algs {
		rows = append(rows, "vlog/"+alg.Name+" "+runGolden(t, 24000, func() goldenEngine {
			s, err := vlog.New(vlog.Options{SegmentBytes: 2048, MaxSegments: 128, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			return &kvEngine{s: s}
		}, nil, true))
	}
	// Durable rows: the same workload on disk, closed and recovered half
	// way, with every backend fsync counted — recovery's seal ordering and
	// every sync point are part of the pinned behaviour.
	for _, dur := range []core.Durability{core.DurSeal, core.DurCommit} {
		row, _, _ := durableRow(t, dur, true, 0)
		rows = append(rows, fmt.Sprintf("store/MDC/%s %s", dur, row))
	}
	// Delete-free rows: every record is a full-length page, so these two pin
	// the store's placement, sealing and cleaning independently of how a
	// tombstone or a short page is framed — in memory, and on disk through a
	// close and recovery half way.
	rows = append(rows, "store/MDC/nodelete "+runGolden(t, 24000, func() goldenEngine {
		return openPageEngine(t, store.Options{PageSize: 64, SegmentPages: 16, MaxSegments: 128, Algorithm: core.MDC()})
	}, nil, false))
	row, _, _ := durableRow(t, core.DurSeal, false, 0)
	rows = append(rows, "store/MDC/seal/nodelete "+row)
	got := strings.Join(rows, "\n")
	if os.Getenv("GOLDEN_PRINT") != "" {
		fmt.Println(got)
		return
	}
	if got != goldenRows {
		g, w := strings.Split(got, "\n"), strings.Split(goldenRows, "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				want := "<none>"
				if i < len(w) {
					want = w[i]
				}
				t.Errorf("row %d differs\n got: %s\nwant: %s", i, g[i], want)
			}
		}
	}
}

// TestGoldenSealRowsRepeatWithSlowFsyncs runs the DurSeal rows of
// TestGoldenDeterminism again with each seal's fsync delayed 1 ms, so the
// writer fills its next segment while the last one syncs: every count of the
// row, and the sync points a backing victim forced, equal the undelayed run's.
func TestGoldenSealRowsRepeatWithSlowFsyncs(t *testing.T) {
	for _, deletes := range []bool{true, false} {
		row, forced, _ := durableRow(t, core.DurSeal, deletes, 0)
		slow, slowForced, waits := durableRow(t, core.DurSeal, deletes, time.Millisecond)
		if slow != row || slowForced != forced || waits == 0 {
			t.Errorf("deletes %v, seal fsyncs delayed (%d waits for one):\n got: %s (forced %d)\nwant: %s (forced %d)", deletes, waits, slow, slowForced, row, forced)
		}
	}
}

// durableRow runs the golden workload on disk under MDC at dur, closed and
// recovered half way, each seal fsync delayed by delay, and returns the row
// (with the first half's fsyncs when there are deletes), the sync points a
// backing victim forced in both halves and the waits for a seal's fsync.
func durableRow(t *testing.T, dur core.Durability, deletes bool, delay time.Duration) (row string, forced, waits uint64) {
	dir := t.TempDir()
	var opened []*store.Store
	open := func() goldenEngine {
		e := openPageEngine(t, store.Options{Dir: dir, PageSize: 64, SegmentPages: 16, MaxSegments: 128,
			Algorithm: core.MDC(), Durability: dur})
		if delay > 0 {
			store.DelaySealFsyncs(e.s, delay)
		}
		opened = append(opened, e.s)
		return e
	}
	var fsyncs uint64
	row = runGolden(t, 8000, open, func(e goldenEngine) goldenEngine {
		fsyncs = e.(*pageEngine).fsyncs()
		if err := e.close(); err != nil {
			t.Fatal(err)
		}
		return open()
	}, deletes)
	for _, s := range opened {
		forced += s.Obs().Counter("store.backing.syncs").Value()
		waits += s.Obs().Histogram("store.seal.wait.ns").Count()
	}
	if deletes {
		row = fmt.Sprintf("firstHalfFsyncs=%d %s", fsyncs, row)
	}
	return row, forced, waits
}

// goldenRows was captured with GOLDEN_PRINT=1: the two nodelete rows from
// commit 6674dae (the parent of variable-size page records), unchanged since.
// The vlog rows were re-recorded when vlog became a key index over a
// memory-backed page store (they had stood since commit d54c8da): every
// record now carries the store's 24-byte framing in place of a 6-byte header
// and the key, a delete writes a 24-byte tombstone where it used to append
// nothing, and records go where the store places them — so byte counts, GC
// writes and victim choice all move; MDC keeps the lowest byte write-amp of
// the five algorithms then pinned (gcBytes/userBytes 0.211, was 0.188). The seven store rows with
// deletes were re-recorded once, when page records became variable-size: a
// tombstone shrank from a full slot to a bare 24-byte header, and a rewrite
// of a deleted page now credits the dropped tombstone's segment (it used to
// go on counting it live), so segments empty sooner and victim choice moves.
// (Those counts include the routed rows, since dropped: see below.)
// The fsync counts of the two DurSeal rows — firstHalfFsyncs / fsyncs of
// store/MDC/seal (737 / 855 → 680 / 743) and fsyncs of store/MDC/seal/nodelete
// (896 → 770), no other field of any row — were re-recorded when a segment a
// cycle fills with relocated copies stopped being fsynced at its seal and again
// at the cycle's sync point: it is fsynced there once (one unsynced ledger);
// and again (680 / 743 → 672 / 726, and 770 → 743) when a cycle stopped
// fsyncing its open GC tail, leaving it to the cycle that seals it, so a GC
// segment is fsynced once (victims with copies in the tail stay backing).
// store/MDC/commit, the durable DurCommit row, was recorded at commit 528db52
// beside store/MDC-routed/commit, which it replaced when routed placement left
// the live engine; the MDC-routed and multi-log rows of both engines went with
// it, and no other row moved.
// All ten rows were re-recorded when a batch stopped appending absorbed ops
// (an op a later op on its page supersedes, or a Delete of a page the batch
// created), and the rows gained the absorbed count: the workload's batches
// repeat pages — Zipf and hot picks collide inside a batch of 2 to 12 ops, and
// the delete-then-re-put pairs (the vlog rows re-put under a fresh id, so only
// their collisions absorb) — so user writes, the update clock and with them
// every cleaning decision move; no row's oracle check changed.
// The vlog/MDC row alone (gc 11524 → 11433, gcBytes 1508071 → 1497652,
// cleaned 4248 → 4244) was re-recorded when WritePage and DeletePage became
// one-op Applies: a single write now cleans before it seals its full open
// segment, as every Apply does, where it used to seal first, so the segment it
// sealed could be a victim of that same cleaning. A segment seals inside
// appendRecord as soon as no header fits, so the orders differ only where an
// open segment with room for a header cannot take the next record: often with
// vlog's records, whose lengths do not divide a segment, seldom with the store
// rows' full-length pages and bare tombstones. Every other row is unchanged.
// The three durable rows that reopen half way (store/MDC/seal,
// store/MDC/commit, store/MDC/seal/nodelete) were re-recorded when a cycle
// began truncating the victims it releases: the first halves are unchanged
// (firstHalfFsyncs too), but the reopened store no longer finds the victims
// released before the close as segments full of dead records, so it no longer
// re-seals them and cleans them at E = 1 — gc 1809 → 1818 and fsyncs 690 →
// 694 (seal), 4442 → 4438 (commit); gc 2063 → 2043, cleaned 688 → 680 and
// fsyncs 732 → 738 (seal/nodelete). Every other row is unchanged.
// The six MDC rows were re-recorded when an Apply began appending its records
// coldest first under MDC (SortUser): gc 12006 → 12151 (store/MDC), 11433 →
// 11365 (vlog/MDC), 1818 → 1811 (store/MDC/seal and /commit), 13068 → 12996
// (nodelete), 2043 → 2013 (seal/nodelete). The workload's batches are 2 to 12
// ops, too few to separate much: appending them in reverse batch order, which
// carries no information, moves the same rows as far (store/MDC 12178,
// nodelete 13059), so store/MDC's rise is the reordering, not the key. The
// greedy and cost-benefit rows keep batch order and are unchanged.
// The three rows that reopen half way were re-recorded when the CHECKPOINT
// file went (first halves, firstHalfFsyncs included, unchanged). A reopened
// segment's up2 is now its newest record's seq, where the Close's checkpoint
// restored it: that alone moves store/MDC/seal/nodelete gc 2013 → 2015 and
// fsyncs 739 → 733, and store/MDC/seal gc 1811 → 1810. Tombstones are now
// relocated where the checkpoint let the reopened store drop them: store/MDC/seal
// and /commit gc 1811 → 1865, free 13 → 11, fsyncs 698 → 699 and 4443 → 4450.
// A released victim's wait on unsynced user records (DurSeal) moves no row.
const goldenRows = `store/MDC errFull=0 user=49446 gc=12151 unow=54356 cleaned=3872 meanE=0.8183153526483736 free=14 live=899 tomb=100 batches=5299 absorbed=4583 commits=0 rounds=0 syncs=0 fsyncs=0 streams: 0:42/243 1:72/756
store/greedy errFull=0 user=49446 gc=15112 unow=54356 cleaned=4040 meanE=0.7843384338433712 free=11 live=899 tomb=100 batches=5299 absorbed=4583 commits=0 rounds=0 syncs=0 fsyncs=0 streams: 0:28/209 1:89/790
store/cost-benefit errFull=0 user=49446 gc=15667 unow=54356 cleaned=4088 meanE=0.7764952299412803 free=15 live=899 tomb=100 batches=5299 absorbed=4583 commits=0 rounds=0 syncs=0 fsyncs=0 streams: 0:58/283 1:55/716
vlog/MDC errFull=0 user=49446 gc=11365 userBytes=7096352 gcBytes=1490065 liveBytes=123807 cleaned=4244 meanE=0.8285648443022502 free=7 keys=899 commits=5300 absorbed=1229 streams: 0:45/219 1:76/697
vlog/greedy errFull=0 user=49446 gc=15777 userBytes=7096352 gcBytes=2062558 liveBytes=123807 cleaned=4532 meanE=0.7777783763377096 free=6 keys=899 commits=5300 absorbed=1229 streams: 0:26/180 1:96/736
vlog/cost-benefit errFull=0 user=49446 gc=14707 userBytes=7096352 gcBytes=2000018 liveBytes=123807 cleaned=4500 meanE=0.7829841579861111 free=7 keys=899 commits=5300 absorbed=1229 streams: 0:64/263 1:57/653
store/MDC/seal firstHalfFsyncs=643 errFull=0 user=8000 gc=1865 unow=18686 cleaned=640 meanE=0.8306551846590906 free=11 live=871 tomb=69 batches=856 absorbed=760 commits=0 rounds=0 syncs=0 fsyncs=699 streams: 0:50/273 1:67/667
store/MDC/commit firstHalfFsyncs=4351 errFull=0 user=8000 gc=1865 unow=18686 cleaned=640 meanE=0.8306551846590906 free=11 live=871 tomb=69 batches=856 absorbed=760 commits=3963 rounds=3963 syncs=4261 fsyncs=4450 streams: 0:50/273 1:67/667
store/MDC/nodelete errFull=0 user=54577 gc=12996 unow=54577 cleaned=4112 meanE=0.8024683852140078 free=15 live=999 tomb=0 batches=5299 absorbed=1289 commits=0 rounds=0 syncs=0 fsyncs=0 streams: 0:37/225 1:76/774
store/MDC/seal/nodelete errFull=0 user=8855 gc=2015 unow=18860 cleaned=680 meanE=0.8147977941176471 free=14 live=943 tomb=0 batches=856 absorbed=217 commits=0 rounds=0 syncs=0 fsyncs=733 streams: 0:43/255 1:71/688`

// goldenOp is one workload operation against either engine.
type goldenOp struct {
	id  uint32
	ver uint32
	del bool
}

type goldenEngine interface {
	put(id, ver uint32) error
	del(id uint32) error
	batch(ops []goldenOp) error
	get(id uint32) (ver uint32, ok bool, err error)
	summary() string
	close() error
}

// runGolden drives n operations (with midway, if set, swapping the engine
// half way — close and recover) and returns the engine's summary row. A
// shadow map tracks what must be readable at the end. With deletes false
// every delete the workload would issue is a put instead (the random stream
// is consumed identically either way).
func runGolden(t *testing.T, n int, open func() goldenEngine, midway func(goldenEngine) goldenEngine, deletes bool) string {
	t.Helper()
	const universe = 1000
	e := open()
	r := rand.New(rand.NewPCG(2021, 37))
	zipf := rand.NewZipf(r, 1.2, 4, universe-1)
	shadow := map[uint32]uint32{}
	pick := func() uint32 {
		if r.IntN(2) == 0 {
			return uint32(zipf.Uint64())
		}
		if r.IntN(10) < 9 { // hot 10% of the ids gets 90% of these writes
			return uint32(r.IntN(universe / 10))
		}
		return uint32(universe/10 + r.IntN(universe-universe/10))
	}
	errFull := 0
	note := func(err error) {
		if errors.Is(err, store.ErrFull) || errors.Is(err, vlog.ErrFull) {
			errFull++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		if midway != nil && i == n/2 {
			e = midway(e)
		}
		ver := uint32(i)
		switch k := r.IntN(100); {
		case k < 70 || !deletes && k < 78:
			id := pick()
			if err := e.put(id, ver); err != nil {
				note(err)
			} else {
				shadow[id] = ver
			}
		case k < 78:
			id := pick()
			if _, ok := shadow[id]; ok {
				if err := e.del(id); err != nil {
					note(err)
				} else {
					delete(shadow, id)
				}
			}
		default:
			var ops []goldenOp
			pending := map[uint32]uint32{} // 0 = deleted in this batch
			exists := func(id uint32) bool {
				if v, ok := pending[id]; ok {
					return v != 0
				}
				_, ok := shadow[id]
				return ok
			}
			for j, m := 0, 2+r.IntN(11); j < m; j++ {
				id := pick()
				switch c := r.IntN(10); {
				case deletes && c == 0 && exists(id):
					ops = append(ops, goldenOp{id: id, del: true})
					pending[id] = 0
				case deletes && c == 1 && exists(id): // delete then re-put: routes as history-free
					ops = append(ops, goldenOp{id: id, del: true}, goldenOp{id: id, ver: ver})
					pending[id] = ver
				default:
					ops = append(ops, goldenOp{id: id, ver: ver})
					pending[id] = ver
				}
			}
			if err := e.batch(ops); err != nil {
				note(err)
			} else {
				for id, v := range pending {
					if v == 0 {
						delete(shadow, id)
					} else {
						shadow[id] = v
					}
				}
			}
		}
	}
	for id := uint32(0); id < universe; id++ {
		got, ok, err := e.get(id)
		if err != nil {
			t.Fatal(err)
		}
		if want, live := shadow[id]; ok != live || got != want {
			t.Fatalf("id %d: got version %d (present %v), want %d (present %v)", id, got, ok, want, live)
		}
	}
	row := fmt.Sprintf("errFull=%d %s", errFull, e.summary())
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	return row
}

func streamRow(ss []core.StreamStats) string {
	var b strings.Builder
	for i, s := range ss {
		if s.Segments != 0 || s.Live != 0 {
			fmt.Fprintf(&b, " %d:%d/%d", i, s.Segments, s.Live)
		}
	}
	return b.String()
}

type pageEngine struct {
	s   *store.Store
	buf []byte
}

func openPageEngine(t *testing.T, o store.Options) *pageEngine {
	t.Helper()
	s, err := store.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return &pageEngine{s: s, buf: make([]byte, o.PageSize)}
}

func (e *pageEngine) page(id, ver uint32) []byte {
	binary.LittleEndian.PutUint32(e.buf[0:], id)
	binary.LittleEndian.PutUint32(e.buf[4:], ver)
	return e.buf
}

func (e *pageEngine) put(id, ver uint32) error { return e.s.WritePage(id, e.page(id, ver)) }
func (e *pageEngine) del(id uint32) error      { return e.s.DeletePage(id) }
func (e *pageEngine) close() error             { return e.s.Close() }

// fsyncs counts the backend's fsyncs once the seal fsync in flight, if any,
// has returned (CheckInvariants settles it).
func (e *pageEngine) fsyncs() uint64 {
	_ = e.s.CheckInvariants()
	return e.s.Obs().Histogram("store.fsync.ns").Count()
}

func (e *pageEngine) batch(ops []goldenOp) error {
	b := store.NewBatch()
	for _, op := range ops {
		if op.del {
			b.Delete(op.id)
		} else {
			b.Write(op.id, e.page(op.id, op.ver))
		}
	}
	return e.s.Apply(b)
}

func (e *pageEngine) get(id uint32) (uint32, bool, error) {
	err := e.s.ReadPage(id, e.buf)
	if errors.Is(err, store.ErrNotFound) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if got := binary.LittleEndian.Uint32(e.buf[0:]); got != id {
		return 0, false, fmt.Errorf("page %d holds page %d's bytes", id, got)
	}
	return binary.LittleEndian.Uint32(e.buf[4:]), true, nil
}

func (e *pageEngine) summary() string {
	if err := e.s.CheckInvariants(); err != nil {
		return "INVARIANT: " + err.Error()
	}
	st := e.s.Stats()
	return fmt.Sprintf("user=%d gc=%d unow=%d cleaned=%d meanE=%v free=%d live=%d tomb=%d batches=%d absorbed=%d commits=%d rounds=%d syncs=%d fsyncs=%d streams:%s",
		st.UserWrites, st.GCWrites, st.UpdateClock, st.SegmentsCleaned, st.MeanEAtClean, st.FreeSegments,
		st.LivePages, st.Tombstones, st.BatchesApplied, st.AbsorbedWrites, st.Commits, st.FsyncRounds, st.Fsyncs, e.fsyncs(), streamRow(st.Streams))
}

type kvEngine struct{ s *vlog.Store }

func kvKey(id uint32) string { return fmt.Sprintf("key-%05d", id) }

// kvValue is a variable-size value (16..215 bytes) stamped with id and ver.
func kvValue(id, ver uint32) []byte {
	v := bytes.Repeat([]byte{byte(id)}, 16+int(id*7+ver)%200)
	binary.LittleEndian.PutUint32(v[0:], id)
	binary.LittleEndian.PutUint32(v[4:], ver)
	return v
}

func (e *kvEngine) put(id, ver uint32) error { return e.s.Put(kvKey(id), kvValue(id, ver)) }
func (e *kvEngine) del(id uint32) error      { return e.s.Delete(kvKey(id)) }
func (e *kvEngine) close() error             { return e.s.Close() }

func (e *kvEngine) batch(ops []goldenOp) error {
	b := vlog.NewBatch()
	for _, op := range ops {
		if op.del {
			b.Delete(kvKey(op.id))
		} else {
			b.Put(kvKey(op.id), kvValue(op.id, op.ver))
		}
	}
	return e.s.Commit(b)
}

func (e *kvEngine) get(id uint32) (uint32, bool, error) {
	v, ok := e.s.Get(kvKey(id))
	if !ok {
		return 0, false, nil
	}
	ver := binary.LittleEndian.Uint32(v[4:])
	if !bytes.Equal(v, kvValue(id, ver)) {
		return 0, false, fmt.Errorf("key %d holds a corrupt value", id)
	}
	return ver, true, nil
}

func (e *kvEngine) summary() string {
	if err := e.s.CheckInvariants(); err != nil {
		return "INVARIANT: " + err.Error()
	}
	st := e.s.Stats()
	return fmt.Sprintf("user=%d gc=%d userBytes=%d gcBytes=%d liveBytes=%d cleaned=%d meanE=%v free=%d keys=%d commits=%d absorbed=%d streams:%s",
		st.UserWrites, st.GCWrites, st.UserBytes, st.GCBytes, st.LiveBytes, st.SegmentsCleaned, st.MeanEAtClean,
		st.FreeSegments, st.Keys, st.Commits, e.s.Obs().Counter("store.user.absorbed").Value(), streamRow(st.Streams))
}
