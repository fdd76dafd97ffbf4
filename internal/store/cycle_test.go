package store

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// The cleaning cycle's decisions (cleanUntil's stop rules, victim checks,
// abort, batch reservation) tested on a store whose victims a scripted
// policy names. Unless a test says otherwise the geometry is 8-byte pages,
// ten to a segment: ten full-length pages fill a segment exactly (it seals
// itself), so a full segment holds no garbage and cleaning it nets nothing.

// scripted is a Policy that returns pre-arranged victims, one script entry
// per call; with an empty script and auto set it picks the lowest sealed
// segment. It counts the cycles it served.
type scripted struct {
	script [][]int32
	auto   bool
	calls  int
}

func (p *scripted) Name() string { return "scripted" }

func (p *scripted) Victims(v core.View, max int, dst []int32) []int32 {
	p.calls++
	if len(p.script) > 0 {
		dst = append(dst, p.script[0]...)
		p.script = p.script[1:]
		return dst
	}
	for i := range v.Segs {
		if p.auto && v.Segs[i].State == core.SegSealed {
			return append(dst, int32(i))
		}
	}
	return dst
}

// scriptedStore is a store run by a scripted policy. Tests name their pages;
// id interns a name as the page's id.
type scriptedStore struct {
	*Store
	names map[string]uint32
}

// openScripted opens a store over o (in memory unless o.Dir is set) with the
// cycle tests' defaults filled in: the geometry above, p as the policy (nil:
// o's algorithm), one victim per cycle and low-water mark 2 unless o sets them.
func openScripted(t *testing.T, p *scripted, o Options) *scriptedStore {
	t.Helper()
	if o.PageSize == 0 {
		o.PageSize, o.SegmentPages = 8, 10
	}
	if p != nil {
		o.Algorithm = core.Algorithm{Name: "scripted", Policy: p}
	}
	o.CleanBatch, o.FreeLowWater = cmp.Or(o.CleanBatch, 1), cmp.Or(o.FreeLowWater, 2)
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return &scriptedStore{Store: s, names: map[string]uint32{}}
}

func (s *scriptedStore) id(name string) uint32 {
	id, ok := s.names[name]
	if !ok {
		id = uint32(len(s.names)) + 1
		s.names[name] = id
	}
	return id
}

// put writes an n-byte page under name; del deletes it.
func (s *scriptedStore) put(t *testing.T, name string, n int) {
	t.Helper()
	if err := s.WritePage(s.id(name), make([]byte, n)); err != nil {
		t.Fatalf("put %s: %v", name, err)
	}
}

func (s *scriptedStore) del(t *testing.T, name string) {
	t.Helper()
	if err := s.DeletePage(s.id(name)); err != nil {
		t.Fatalf("delete %s: %v", name, err)
	}
}

func (s *scriptedStore) check(t *testing.T) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// fillSegments writes one sealed user segment per kind: "full" is a
// segment's worth of live full-length pages (no garbage: cleaning it nets
// nothing), "half" the same with half of them deleted afterwards (their
// tombstones go to the segment written next). It returns the segment ids.
func (s *scriptedStore) fillSegments(t *testing.T, kinds []string) []int32 {
	t.Helper()
	var ids []int32
	for i, kind := range kinds {
		for j := 0; j < s.opts.SegmentPages; j++ {
			s.put(t, fmt.Sprintf("%s%d-%d", kind, i, j), s.opts.PageSize)
		}
		seg := s.table[s.id(fmt.Sprintf("%s%d-0", kind, i))].seg
		if s.meta[seg].State != core.SegSealed {
			t.Fatalf("segment %d is %s after a segment's worth of pages", seg, s.meta[seg].State)
		}
		ids = append(ids, seg)
	}
	for i, kind := range kinds {
		for j := 0; kind == "half" && j < s.opts.SegmentPages/2; j++ {
			s.del(t, fmt.Sprintf("%s%d-%d", kind, i, j))
		}
	}
	return ids
}

// TestCleanUntilStopsWhenCleaningCannotHelp drives cleanUntil at a target
// it can never reach and checks which rule ends it, after how many cycles.
func TestCleanUntilStopsWhenCleaningCannotHelp(t *testing.T) {
	for _, tc := range []struct {
		name       string
		kinds      []string // victims in selection order
		waste      bool     // 7-byte pages: each segment seals with 10 bytes of tail waste, so every cycle nets 10 bytes, forever
		wantCycles int
		wantErr    string
	}{
		{name: "nothing sealed", wantCycles: 1, wantErr: "store: capacity exhausted"},
		{name: "two dry cycles", kinds: []string{"full", "full", "half"}, wantCycles: 2, wantErr: "physical capacity"},
		{name: "positive net resets the dry counter", kinds: []string{"full", "half", "full", "half", "full", "full", "half"},
			wantCycles: 6, wantErr: "physical capacity"},
		{name: "cycle guard", waste: true, wantCycles: 4*16 + 1, wantErr: "cannot reach 17 free segments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &scripted{auto: tc.waste}
			s := openScripted(t, p, Options{MaxSegments: 16})
			for _, seg := range s.fillSegments(t, tc.kinds) {
				p.script = append(p.script, []int32{seg})
			}
			for i := 0; tc.waste && i < 60; i++ {
				s.put(t, fmt.Sprintf("w%d", i), 7) // ten 31-byte records seal a 320-byte segment
			}
			p.calls = 0 // foreground cleaning during the fill does not count
			err := s.cleanUntil(17)
			if !errors.Is(err, ErrFull) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("cleanUntil = %v, want ErrFull mentioning %q", err, tc.wantErr)
			}
			if p.calls != tc.wantCycles {
				t.Errorf("ran %d cycles, want %d", p.calls, tc.wantCycles)
			}
			s.check(t)
		})
	}
}

// TestNonSealedVictimRejected: a policy breaking the sealed-victims contract
// fails the cycle before anything is marked.
func TestNonSealedVictimRejected(t *testing.T) {
	p := &scripted{}
	s := openScripted(t, p, Options{MaxSegments: 8})
	sealed := s.fillSegments(t, []string{"half"})[0]
	s.put(t, "open", 8)
	open, free := s.open[userStream].seg, s.free[0]
	for _, victims := range [][]int32{{open}, {sealed, open}, {free}} {
		p.script = [][]int32{victims, victims}
		if n, _, err := s.cleanCycle(); err == nil || n != 0 {
			t.Errorf("cleanCycle with victims %v = %d, %v; want an error", victims, n, err)
		}
		if got := newCleaner(s.Store).selectVictims(2); got != nil {
			t.Errorf("selectVictims with victims %v = %v, want nil", victims, got)
		}
		if s.meta[sealed].State != core.SegSealed || len(s.pendingE) != 0 {
			t.Errorf("victims %v: segment %d left %s with %d pending victims", victims, sealed, s.meta[sealed].State, len(s.pendingE))
		}
	}
	s.check(t)
}

var errReadInjected = errors.New("injected read failure")

// TestAbortReleasesDrainedVictims: after a failed relocation abort releases
// the victims that hold nothing any more — behind the durability point —
// and re-seals the rest; if the durability point fails, everything is
// re-sealed. The relocation fails at a victim's read, so the victims before
// it are drained and the rest untouched, or at a write of relocated copies.
// A victim holds 17 live records, one install chunk and one record: a
// failed second write leaves one record in the first victim. The store is
// on disk under DurCommit: a memory store owes no fsync, so its durability
// point could not fail. syncs counts the fsyncs abort begins.
func TestAbortReleasesDrainedVictims(t *testing.T) {
	for _, tc := range []struct {
		name      string
		failRead  int   // the victim whose read fails (-1: none)
		failWrite int   // the relocation's backend write that fails (0: none)
		syncErr   error // the durability point's answer inside abort
		wantFree  []bool
		wantSyncs int
	}{
		{name: "first victim drained", failRead: 1, wantFree: []bool{true, false}, wantSyncs: 1},
		{name: "drained but sync fails", failRead: 1, syncErr: errSyncInjected, wantFree: []bool{false, false}, wantSyncs: 1},
		{name: "nothing drained", failRead: -1, failWrite: 2, wantFree: []bool{false, false}, wantSyncs: 0},
		// The relocation's own sync point already covered every copy (they
		// filled, and sealed, one GC segment), so abort's has none to fsync.
		{name: "both drained", failRead: -1, wantFree: []bool{true, true}, wantSyncs: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &scripted{}
			s := openScripted(t, p, Options{Dir: t.TempDir(), PageSize: 8, SegmentPages: 34, MaxSegments: 12, Durability: core.DurCommit})
			defer s.Close()
			cb := count(s.Store)
			victims := s.fillSegments(t, []string{"half", "half"}) // 17 live records each
			p.script = [][]int32{victims}
			tg := newCleaner(s.Store)
			if got := tg.selectVictims(2); len(got) != 2 {
				t.Fatalf("selectVictims = %v", got)
			}
			cb.failRead = func(seg int, _ int64) error {
				if tc.failRead >= 0 && seg == int(victims[tc.failRead]) {
					return errReadInjected
				}
				return nil
			}
			writes := 0
			cb.failWrite = func(int, int64) error {
				if writes++; writes == tc.failWrite {
					return errInjected
				}
				return nil
			}
			_, err := tg.relocate()
			cb.failRead, cb.failWrite = nil, nil
			faulty := tc.failRead >= 0 || tc.failWrite > 0
			if faulty != (err != nil) || err != nil && !errors.Is(err, errReadInjected) && !errors.Is(err, errInjected) {
				t.Fatalf("relocate = %v, want an injected failure: %v", err, faulty)
			}
			if tc.syncErr != nil {
				cb.failSync = func(int) error { return tc.syncErr }
			}
			syncs := func() (n int) {
				for _, e := range cb.events {
					if e.op == 's' {
						n++
					}
				}
				return n
			}
			before, free := syncs(), len(s.free)
			tg.abort(victims)
			cb.failSync = nil
			for i, v := range victims {
				want := core.SegSealed
				if tc.wantFree[i] {
					want = core.SegFree
					free++
				}
				if got := s.meta[v].State; got != want {
					t.Errorf("victim %d is %s after abort, want %s", i, got, want)
				}
			}
			if len(s.free) != free || int(s.freeCount.Load()) != free {
				t.Errorf("free pool %d (count %d), want %d", len(s.free), s.freeCount.Load(), free)
			}
			if n := syncs() - before; n != tc.wantSyncs || len(s.pendingE) != 0 {
				t.Errorf("abort began %d fsyncs (want %d), left %d pending victims", n, tc.wantSyncs, len(s.pendingE))
			}
			s.check(t)
		})
	}
}

// TestBatchReservationIsExact plans batches of mixed record sizes —
// including a delete followed by a re-put of the same page, and pages written
// twice, whose absorbed ops append nothing — and checks that
// the apply opens exactly the planned number of segments, in foreground mode
// also after the reservation cleaned first. Pages are up to 64 bytes, two
// full-length ones to a segment, so a segment holds two to four records.
func TestBatchReservationIsExact(t *testing.T) {
	s := openScripted(t, nil, Options{PageSize: 64, SegmentPages: 2, MaxSegments: 48, Algorithm: core.Greedy()})
	for round := 0; round < 40; round++ {
		for _, k := range []string{"hot-a", "hot-b"} {
			s.put(t, k, 30)
		}
		if round%8 == 0 {
			s.put(t, fmt.Sprintf("cool-%d", round%16), 45)
		}
		s.put(t, fmt.Sprintf("cold-%d", round), 25)
	}
	live := func(name string) bool { _, ok := s.table[s.id(name)]; return ok }
	cleanedFirst := 0
	for round := 0; round < 30; round++ {
		b := NewBatch()
		put := func(name string) { b.Write(s.id(name), make([]byte, 20+(round*7+b.Len()*13)%30)) }
		for j := 0; j < 2+round%4; j++ {
			put("hot-a")
			put(fmt.Sprintf("cool-%d", (round+j)%16))
			put(fmt.Sprintf("new-%d-%d", round, j))
			if round > 0 && j < 2+(round-1)%4 {
				b.Delete(s.id(fmt.Sprintf("new-%d-%d", round-1, j))) // bounds the live data
			}
			b.Delete(s.id("hot-b"))
			put("hot-b")
			if cold := fmt.Sprintf("cold-%d", (round*3+j)%40); j%2 == 0 && live(cold) {
				b.Delete(s.id(cold))
			}
		}
		if _, err := s.prepare(b); err != nil { // sizes the ops as Apply does, absorbed ones 0
			t.Fatalf("round %d: prepare: %v", round, err)
		}
		cleaned := s.cleanedSegs
		if err := s.reserve(b); err != nil {
			t.Fatalf("round %d: reserve: %v", round, err)
		}
		if s.cleanedSegs > cleaned {
			cleanedFirst++
		}
		newSegs, free := s.plan(b), len(s.free)
		if free < s.opts.FreeLowWater+newSegs-1 && newSegs > 0 {
			t.Fatalf("round %d: reserve left %d free for %d new segments at low water %d", round, free, newSegs, s.opts.FreeLowWater)
		}
		// Apply reserves again, which the pool now covers without cleaning.
		if err := s.Apply(b); err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}
		if opened := free - len(s.free); opened != newSegs {
			t.Errorf("round %d: apply opened %d segments, plan said %d", round, opened, newSegs)
		}
		s.check(t)
	}
	if cleanedFirst < 5 {
		t.Errorf("only %d of 30 reservations cleaned first; the workload is miscalibrated", cleanedFirst)
	}
}

// TestBatchReservedWritesFillAtApply: a reserved write carries its length and
// nothing else — the arena does not grow for it — and copyData hands the
// store's own bytes to the fill function with the operation's position, while
// a Write next to it is still served from the arena; both survive Reset as the
// batch's retained capacity and its fill.
func TestBatchReservedWritesFillAtApply(t *testing.T) {
	b := NewBatch()
	var filled []int
	b.SetFill(func(i int, dst []byte) {
		filled = append(filled, i)
		for j := range dst {
			dst[j] = byte('a' + i)
		}
	})
	for round := 0; round < 2; round++ {
		b.Write(1, []byte("xyz")).Reserve(2, 4).Delete(3).Reserve(4, 0)
		if len(b.buf) != 3 {
			t.Fatalf("arena holds %d bytes, want only the Write's 3", len(b.buf))
		}
		for i, want := range []struct {
			n        int
			reserved bool
			data     string
		}{{3, false, "xyz"}, {4, true, "bbbb"}, {0, false, ""}, {0, true, ""}} {
			op := &b.ops[i]
			if op.n != want.n || (op.off < 0) != want.reserved {
				t.Fatalf("op %d: length %d reserved %v", i, op.n, op.off < 0)
			}
			dst := bytes.Repeat([]byte{0xEE}, want.n+1)
			b.copyData(i, dst[:want.n])
			if string(dst[:want.n]) != want.data || dst[want.n] != 0xEE {
				t.Fatalf("op %d: copyData produced %q", i, dst)
			}
		}
		if len(filled) != 2 || filled[0] != 1 || filled[1] != 3 {
			t.Fatalf("fill called for ops %v, want [1 3]", filled)
		}
		filled = filled[:0]
		b.Reset()
		if b.Len() != 0 || b.fill == nil {
			t.Fatal("Reset must empty the batch and keep its fill")
		}
	}
}

// TestBackgroundReservationRule: with a background cleaner a batch is
// admitted iff the pool covers its new segments plus the one segment user
// appends must leave for GC output (free ≥ newSegs + need − 1, need = 2) —
// and it fails fast with ErrFull otherwise, cleaning nothing itself. Two
// full-length (64-byte) pages fill a segment, so n fresh segments take 2n−1
// or 2n of them.
func TestBackgroundReservationRule(t *testing.T) {
	p := &scripted{auto: true}
	s := openScripted(t, p, Options{PageSize: 64, SegmentPages: 2, MaxSegments: 12})
	s.fillSegments(t, []string{"half", "half"})
	// Background mode; the cleaner's goroutine is never started.
	s.cl = newCleaner(s.Store)
	s.put(t, "tail", 64) // after the two tombstones, the open user segment has 40 bytes left
	pool := s.free
	for _, tc := range []struct{ free, records, wantSegs int }{
		{free: 0, records: 0, wantSegs: 0}, {free: 1, records: 0, wantSegs: 0},
		{free: 1, records: 1, wantSegs: 1}, {free: 2, records: 1, wantSegs: 1},
		{free: 3, records: 5, wantSegs: 3}, {free: 4, records: 6, wantSegs: 3}, {free: 4, records: 7, wantSegs: 4},
	} {
		b := NewBatch().Write(s.id("tiny"), make([]byte, 16)) // a 40-byte record: fits the open segment
		for i := 0; i < tc.records; i++ {
			b.Write(s.id(fmt.Sprintf("big-%d", i)), make([]byte, 64))
		}
		for i := range b.ops {
			b.ops[i].size = int64(RecordHeaderSize + b.ops[i].n)
		}
		s.free = pool[:tc.free]
		if got := s.plan(b); got != tc.wantSegs {
			t.Fatalf("plan = %d new segments, want %d", got, tc.wantSegs)
		}
		err := s.reserve(b)
		if want := tc.free >= tc.wantSegs+1; (err == nil) != want || err != nil && !errors.Is(err, ErrFull) {
			t.Errorf("free %d, %d new segments: reserve = %v, want admitted %v", tc.free, tc.wantSegs, err, want)
		}
	}
	if p.calls != 0 {
		t.Errorf("background-mode reserve ran %d cleaning cycles itself", p.calls)
	}
}

// TestSortedBatchPlanIsExact: under MDC, plan counts the segments the
// coldest-first order opens, and the apply loop appends in the order plan
// fixed, though the cleaning reserve runs between them renews the seqs of the
// pages it relocates. First a batch whose sorted order needs one new segment
// where batch order needs two; then seeded batches of mixed sizes.
func TestSortedBatchPlanIsExact(t *testing.T) {
	s := openScripted(t, nil, Options{PageSize: 64, SegmentPages: 2, MaxSegments: 24, Algorithm: core.MDC()})
	// applyPlanned applies b and returns the new segments plan counted for it
	// and those its records opened, failing if they went in another order.
	applyPlanned := func(b *Batch) (planned, opened int, renewed bool) {
		t.Helper()
		if _, err := s.prepare(b); err != nil {
			t.Fatal(err)
		}
		planned, order := s.plan(b), slices.Clone(s.order)
		seg, before := s.open[userStream].seg, s.seq
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		first := s.seq - uint64(len(order)) + 1
		for n, key := range order {
			loc := s.table[b.ops[key.i].id]
			if loc.seq != first+uint64(n) {
				t.Fatalf("op %d appended at seq %d, want %d: not in plan's order", key.i, loc.seq, first+uint64(n))
			}
			if loc.seg != seg {
				seg, opened = loc.seg, opened+1
			}
			for _, r := range s.recs {
				renewed = renewed || slices.ContainsFunc(r, func(r recInfo) bool {
					return r.page == b.ops[key.i].id && r.seq > before && r.seq < first
				})
			}
		}
		return planned, opened, renewed
	}
	s.put(t, "big-a", 64)
	s.put(t, "big-b", 64) // these two fill a segment
	s.put(t, "x", 64)
	s.put(t, "tail", 24) // the open segment has 40 bytes left
	b := NewBatch().Write(s.id("big-a"), make([]byte, 64)).Write(s.id("big-b"), make([]byte, 64)).Write(s.id("tiny"), make([]byte, 16))
	if _, err := s.prepare(b); err != nil {
		t.Fatal(err)
	}
	s.opts.Algorithm.SortUser = false
	if got := s.plan(b); got != 2 {
		t.Fatalf("batch order: plan = %d new segments, want 2", got)
	}
	s.opts.Algorithm.SortUser = true
	if planned, opened, _ := applyPlanned(b); planned != 1 || opened != 1 {
		t.Fatalf("coldest first (tiny, big-a, big-b): plan = %d, apply opened %d, want 1", planned, opened)
	}
	r := rand.New(rand.NewPCG(50, 1))
	renewedRounds := 0
	for round := 0; round < 300; round++ {
		b := NewBatch()
		for j := 2 + r.IntN(6); j > 0; j-- {
			b.Write(s.id(fmt.Sprintf("p%d", r.IntN(40))), make([]byte, r.IntN(65)))
		}
		planned, opened, renewed := applyPlanned(b)
		if planned != opened {
			t.Fatalf("round %d: apply opened %d segments, plan said %d", round, opened, planned)
		}
		if renewed {
			renewedRounds++
		}
		s.check(t)
	}
	t.Logf("%d of 300 batches had a page relocated by reserve's cleaning", renewedRounds)
	if renewedRounds < 10 {
		t.Errorf("only %d of 300 batches had a page relocated by the cleaning reserve runs; the workload is miscalibrated", renewedRounds)
	}
}

// TestReadErrorIsNotNotFound: a backend read error surfaces from ReadPage and
// ReadRecord as that error, never as ErrNotFound, and the page reads back
// once the fault clears.
func TestReadErrorIsNotNotFound(t *testing.T) {
	s, err := Open(testOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := pagePattern(100, 7, 1)
	if err := s.WritePage(7, want); err != nil {
		t.Fatal(err)
	}
	cb := count(s)
	cb.failRead = func(int, int64) error { return errReadInjected }
	buf := make([]byte, s.opts.PageSize)
	for name, read := range map[string]func() error{
		"ReadPage": func() error { return s.ReadPage(7, buf) },
		"ReadRecord": func() error {
			_, err := s.ReadRecord(7, func(n int) []byte { return make([]byte, n) })
			return err
		},
	} {
		if err := read(); !errors.Is(err, errReadInjected) || errors.Is(err, ErrNotFound) {
			t.Errorf("%s with a failing read = %v, want the injected error", name, err)
		}
	}
	cb.failRead = nil
	if err := s.ReadPage(7, buf); err != nil || !bytes.Equal(buf[:len(want)], want) {
		t.Fatalf("ReadPage after the fault cleared = %v, page %x", err, buf[:len(want)])
	}
}

// TestDiscardWaitsForAStampOnStorage: a released victim is truncated only when
// a segment header on storage vouches for every batch starting at or before
// its newest record; the commit watermark in memory is
// not enough. Batch B's first five members fill segment S2 and the rest open
// U3, whose header stamps the watermark from before B. Once B has committed,
// S2's other records die and a cycle moves B's five members, live, into the GC
// tail opened before B, as plain records. Truncating S2 then would leave
// recovery three of B's members with no header vouching for B, so it would
// drop them as a torn batch. S2 keeps its bytes, a kill image recovers all of
// B, and so does Close: it opens no segment, so no header vouches for B, and
// the segment files are all the durable state there is.
func TestDiscardWaitsForAStampOnStorage(t *testing.T) {
	p := &scripted{}
	s := openScripted(t, p, Options{Dir: t.TempDir(), MaxSegments: 12, Durability: core.DurCommit})
	s1 := s.fillSegments(t, []string{"full"})[0]
	rewrite := func() {
		for j := 0; j < 5; j++ {
			s.put(t, fmt.Sprintf("full0-%d", j), 8)
		}
	}
	rewrite() // half of S1 dies; the rewrites open S2
	p.script = [][]int32{{s1}}
	if n, err := s.CleanOnce(); n != 1 || err != nil {
		t.Fatalf("CleanOnce = %d, %v", n, err)
	}
	s2 := s.open[userStream].seg
	b := NewBatch()
	for j := uint32(0); j < 8; j++ {
		b.Write(s.id(fmt.Sprint("b", j)), page(j, 8))
	}
	if err := s.Apply(b); err != nil {
		t.Fatal(err)
	}
	if u3 := s.open[userStream].seg; s.meta[s2].State != core.SegSealed || u3 == s2 {
		t.Fatalf("the batch left segment %d %s, the user stream in %d", s2, s.meta[s2].State, u3)
	}
	rewrite() // S2's other records die: B's five members are its live ones
	p.script = [][]int32{{s2}}
	if n, err := s.CleanOnce(); n != 1 || err != nil || s.meta[s2].State != core.SegFree || s.commitWatermarkLocked() < s.seq {
		t.Fatalf("CleanOnce = %d, %v; segment %d %s, watermark %d of %d", n, err, s2, s.meta[s2].State, s.commitWatermarkLocked(), s.seq)
	}
	if s.held[s2] == 0 {
		t.Errorf("segment %d was truncated with B vouched for only by the watermark in memory", s2)
	}
	img := liveImage(t, s.opts.Dir)
	c, err := Open(Options{Dir: img, PageSize: 8, SegmentPages: 10, MaxSegments: 12, CleanBatch: 1, FreeLowWater: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8)
	for j := uint32(0); j < 8; j++ {
		if err := c.ReadPage(s.id(fmt.Sprint("b", j)), buf); err != nil || !bytes.Equal(buf, page(j, 8)) {
			t.Errorf("member %d of the batch after a kill: %v, %x", j, err, buf)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat((&fileBackend{dir: s.opts.Dir}).path(int(s2))); err != nil || st.Size() == 0 {
		t.Errorf("segment %d after Close: %v, want B's members kept", s2, err)
	}
}

// TestReleaseWaitsOnACommitInFlight: under DurCommit the background cycle's
// Sync and its release take the lock apart, and a user write may land between
// them. Here batch B's first five members fill S2 and the rest open U3, whose
// header stamps the watermark from before B; a cycle moves the five, live,
// into a GC tail opened before B and Syncs; then write W fills U3 and opens
// U4, whose header stamps past B, and its commit fsync is held; then the
// cycle releases S2. The power is cut while W's fsync is held: W is lost, and
// with it the only header stamping B. S2 must still hold B's members, or
// recovery finds B torn and drops members 5–7 ("page not found"). So a
// released victim waits on the ledger's user segments, and W's group fsync
// ends the wait: S2 is truncated once it returns.
func TestReleaseWaitsOnACommitInFlight(t *testing.T) {
	p := &scripted{}
	s := openScripted(t, p, Options{Dir: t.TempDir(), MaxSegments: 12, Durability: core.DurCommit})
	var holding atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.be = syncHook{s.be, func(int) error {
		if holding.Load() {
			once.Do(func() { close(held) })
			<-release
		}
		return nil
	}}
	cut := cutPower(t, s.Store)
	s1 := s.fillSegments(t, []string{"full"})[0]
	rewrite := func() {
		for j := 0; j < 5; j++ {
			s.put(t, fmt.Sprintf("full0-%d", j), 8)
		}
	}
	rewrite() // half of S1 dies; the rewrites open S2
	p.script = [][]int32{{s1}}
	if n, err := s.CleanOnce(); n != 1 || err != nil {
		t.Fatalf("CleanOnce = %d, %v", n, err)
	}
	s2 := s.open[userStream].seg
	b := NewBatch()
	for j := uint32(0); j < 8; j++ {
		b.Write(s.id(fmt.Sprint("b", j)), page(j, 8))
	}
	if err := s.Apply(b); err != nil {
		t.Fatal(err)
	}
	rewrite() // S2's other records die: B's five members are its live ones
	// The background cycle's steps, each taking the lock as the cleaner does.
	p.script = [][]int32{{s2}}
	s.mu.Lock()
	victims, cands, err := s.selectVictims(1, nil)
	s.mu.Unlock()
	if err != nil || len(victims) != 1 {
		t.Fatalf("selectVictims = %v, %v", victims, err)
	}
	var win []byte
	if _, err := s.relocate(cands, relocChunk, &win, false); err != nil {
		t.Fatal(err)
	}
	holding.Store(true)
	w := NewBatch()
	for j := uint32(0); j < 3; j++ {
		w.Write(s.id(fmt.Sprint("w", j)), page(j, 8))
	}
	done := make(chan error, 1)
	go func() { done <- s.Apply(w) }()
	<-held
	s.mu.Lock()
	s.release(victims)
	truncated := s.held[s2] == 0
	s.mu.Unlock()
	img := t.TempDir()
	cut.image(t, img)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Errorf("segment %d was truncated while the write that stamps past B awaited its fsync", s2)
	}
	if s.mu.Lock(); s.held[s2] != 0 {
		t.Errorf("segment %d still holds %d bytes once that fsync returned", s2, s.held[s2])
	}
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Open(Options{Dir: img, PageSize: 8, SegmentPages: 10, MaxSegments: 12, CleanBatch: 1, FreeLowWater: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8)
	for j := uint32(0); j < 8; j++ {
		if err := c.ReadPage(s.id(fmt.Sprint("b", j)), buf); err != nil || !bytes.Equal(buf, page(j, 8)) {
			t.Errorf("member %d of the acknowledged batch after the power cut: %v, %x", j, err, buf)
		}
	}
}
