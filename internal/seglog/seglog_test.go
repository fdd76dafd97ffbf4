package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cleaner"
	"repro/internal/core"
	"repro/internal/obs"
)

// fakeEngine is a minimal in-memory Engine: keyed records with explicit
// sizes and no bytes at all, so the core's decisions (cycle, reservation) are tested without the page store's record layer. Tests name
// their keys; id interns a name as the page id the core knows it by.
type fakeEngine struct {
	mu    sync.RWMutex
	l     *Log[fakeRec]
	recs  [][]fakeRec // per segment, in append order
	index map[uint32]fakeLoc
	names map[string]uint32

	installsLeft int   // Install fails once this many installs succeeded (<0: never)
	syncErr      error // returned by SyncRelocated
	syncs        int
}

type fakeRec struct {
	key  uint32
	size int64
	at   int // position in its segment
}

// tombstone is the size of a deletion's record. The fake drops a tombstone
// as soon as it is written — the page store does once a checkpoint covers it.
const tombstone = 4

type fakeLoc struct {
	seg int32
	at  int
}

var (
	errFakeFull   = errors.New("fake: capacity exhausted")
	errFakeClosed = errors.New("fake: closed")
	errFakeIO     = errors.New("fake: i/o error")
)

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

func newFake(t *testing.T, alg core.Algorithm, maxSegs int) *fakeEngine {
	t.Helper()
	e := &fakeEngine{recs: make([][]fakeRec, maxSegs), index: map[uint32]fakeLoc{}, names: map[string]uint32{}, installsLeft: -1}
	e.l = New[fakeRec](Config{
		Name: "fake", ErrFull: errFakeFull, ErrClosed: errFakeClosed, MaxSegments: maxSegs, SegmentBytes: 100,
		RelocChunk: 2, Algorithm: alg, FreeLowWater: 2, CleanBatch: 1, Obs: obs.New(),
	}, &e.mu, e)
	return e
}

func (e *fakeEngine) id(name string) uint32 {
	id, ok := e.names[name]
	if !ok {
		id = uint32(len(e.names)) + 1
		e.names[name] = id
	}
	return id
}

func (e *fakeEngine) OpenSegment(seg, stream int32) error { e.recs[seg] = e.recs[seg][:0]; return nil }
func (e *fakeEngine) SealSegment(int32) error             { return nil }
func (e *fakeEngine) Flush() error                        { return nil }
func (e *fakeEngine) ReleaseSegment(seg int32)            { e.recs[seg] = e.recs[seg][:0] }
func (e *fakeEngine) Backs(int32) bool                    { return false }
func (e *fakeEngine) SyncRelocated(bool) error            { e.syncs++; return e.syncErr }

func (e *fakeEngine) Load(c []Cand[fakeRec], _ *[]byte) (int, error) { return len(c), nil }

func (e *fakeEngine) LiveRecords(seg int32, dst []Cand[fakeRec]) []Cand[fakeRec] {
	for _, r := range e.recs[seg] {
		if e.current(r.key, seg, r.at) {
			dst = append(dst, Cand[fakeRec]{Rec: r})
		}
	}
	return dst
}

func (e *fakeEngine) current(key uint32, seg int32, at int) bool {
	loc, ok := e.index[key]
	return ok && loc == fakeLoc{seg, at}
}

func (e *fakeEngine) Install(c *Cand[fakeRec], _ []byte) (int64, error) {
	if !e.current(c.Rec.key, c.Seg, c.Rec.at) {
		return 0, nil
	}
	if e.installsLeft == 0 {
		return 0, errFakeIO
	}
	e.installsLeft--
	if err := e.l.GCRoom(c.Rec.size); err != nil {
		return 0, err
	}
	e.append(GCStream, c.Rec.key, c.Rec.size, c.Up2)
	e.l.Relocated(c.Seg, c.Rec.size)
	return c.Rec.size, nil
}

func (e *fakeEngine) append(stream int32, key uint32, size int64, carried float64) {
	seg, _ := e.l.Tail(stream)
	e.index[key] = fakeLoc{seg, len(e.recs[seg])}
	e.recs[seg] = append(e.recs[seg], fakeRec{key: key, size: size, at: len(e.recs[seg])})
	e.l.Appended(stream, size, carried)
}

func (e *fakeEngine) invalidate(key uint32) float64 {
	loc, ok := e.index[key]
	if !ok {
		return 0
	}
	delete(e.index, key)
	return e.l.Invalidate(loc.seg, e.recs[loc.seg][loc.at].size)
}

// write is one user append, where room is secured, exactly as the page
// store drives it: a put of size bytes, or a deletion's tombstone (dropped at
// once, see tombstone).
func (e *fakeEngine) write(key uint32, size int64, del bool) {
	e.l.Unow++
	e.append(UserStream, key, size, e.invalidate(key))
	if del {
		seg, _ := e.l.Tail(UserStream)
		delete(e.index, key)
		e.l.Pruned(seg, size)
	}
}

// put and del are the single-op user writes.
func (e *fakeEngine) put(t *testing.T, name string, size int64) { e.single(t, e.id(name), size, false) }
func (e *fakeEngine) del(t *testing.T, name string)             { e.single(t, e.id(name), tombstone, true) }

func (e *fakeEngine) single(t *testing.T, key uint32, size int64, del bool) {
	t.Helper()
	if err := e.l.Room(size); err != nil {
		t.Fatalf("write %d: %v", key, err)
	}
	e.write(key, size, del)
}

// check runs the core's accounting check against the fake index.
func (e *fakeEngine) check(t *testing.T) {
	t.Helper()
	count, bytes := make([]int32, len(e.recs)), make([]int64, len(e.recs))
	for _, loc := range e.index {
		count[loc.seg]++
		bytes[loc.seg] += e.recs[loc.seg][loc.at].size
	}
	if err := e.l.Check(count, bytes); err != nil {
		t.Fatal(err)
	}
}

// fillSegments writes one sealed stream-0 segment per kind: "full" is ten
// live 10-byte records (no garbage: cleaning it nets nothing), "half" the
// same with five of them deleted afterwards. It returns the segment ids.
func (e *fakeEngine) fillSegments(t *testing.T, kinds []string) []int32 {
	t.Helper()
	var ids []int32
	for i, kind := range kinds {
		for j := 0; j < 10; j++ {
			e.put(t, fmt.Sprintf("%s%d-%d", kind, i, j), 10)
		}
		seg, _ := e.l.Tail(0)
		ids = append(ids, seg)
		if err := e.l.Seal(0); err != nil {
			t.Fatal(err)
		}
	}
	for i, kind := range kinds {
		for j := 0; kind == "half" && j < 5; j++ {
			e.del(t, fmt.Sprintf("%s%d-%d", kind, i, j))
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
		waste      bool     // 99-byte records: every cycle nets 1 byte of tail waste, forever
		wantCycles int
		wantErr    string
	}{
		{name: "nothing sealed", wantCycles: 1, wantErr: "fake: capacity exhausted"},
		{name: "two dry cycles", kinds: []string{"full", "full", "half"}, wantCycles: 2, wantErr: "physical capacity"},
		{name: "positive net resets the dry counter", kinds: []string{"full", "half", "full", "half", "full", "full", "half"},
			wantCycles: 6, wantErr: "physical capacity"},
		{name: "cycle guard", waste: true, wantCycles: 4*16 + 1, wantErr: "cannot reach 17 free segments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &scripted{auto: tc.waste}
			e := newFake(t, core.Algorithm{Name: "scripted", Policy: p}, 16)
			for _, seg := range e.fillSegments(t, tc.kinds) {
				p.script = append(p.script, []int32{seg})
			}
			for i := 0; tc.waste && i < 6; i++ {
				e.put(t, fmt.Sprintf("w%d", i), 99) // seals the previous one with 1 byte of tail waste
			}
			p.calls = 0 // foreground cleaning during the fill does not count
			err := e.l.cleanUntil(17)
			if !errors.Is(err, errFakeFull) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("cleanUntil = %v, want ErrFull mentioning %q", err, tc.wantErr)
			}
			if p.calls != tc.wantCycles {
				t.Errorf("ran %d cycles, want %d", p.calls, tc.wantCycles)
			}
			e.check(t)
		})
	}
}

// TestNonSealedVictimRejected: a policy breaking the sealed-victims contract
// fails the cycle before anything is marked.
func TestNonSealedVictimRejected(t *testing.T) {
	p := &scripted{}
	e := newFake(t, core.Algorithm{Name: "scripted", Policy: p}, 8)
	sealed := e.fillSegments(t, []string{"half"})[0]
	e.put(t, "open", 10)
	open, _ := e.l.Tail(0)
	for _, victims := range [][]int32{{open}, {sealed, open}, {7}} { // open, sealed+open, free
		p.script = [][]int32{victims, victims}
		if n, _, err := e.l.CleanCycle(); err == nil || n != 0 {
			t.Errorf("CleanCycle with victims %v = %d, %v; want an error", victims, n, err)
		}
		if got := e.l.Target().SelectVictims(2); got != nil {
			t.Errorf("SelectVictims with victims %v = %v, want nil", victims, got)
		}
		if e.l.Meta[sealed].State != core.SegSealed || len(e.l.pendingE) != 0 {
			t.Errorf("victims %v: segment %d left %s with %d pending victims", victims, sealed, e.l.Meta[sealed].State, len(e.l.pendingE))
		}
	}
	e.check(t)
}

// TestAbortReleasesDrainedVictims: after a failed relocation Abort releases
// the victims that hold nothing any more — behind the durability point —
// and re-seals the rest; if the durability point fails, everything is
// re-sealed.
func TestAbortReleasesDrainedVictims(t *testing.T) {
	for _, tc := range []struct {
		name      string
		installs  int   // relocations that succeed before the failure
		syncErr   error // the durability point's answer inside Abort
		wantFree  []bool
		wantSyncs int
	}{
		{name: "first victim drained", installs: 7, wantFree: []bool{true, false}, wantSyncs: 1},
		{name: "drained but sync fails", installs: 7, syncErr: errFakeIO, wantFree: []bool{false, false}, wantSyncs: 1},
		{name: "nothing drained", installs: 3, wantFree: []bool{false, false}, wantSyncs: 0},
		{name: "both drained", installs: 10, wantFree: []bool{true, true}, wantSyncs: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &scripted{}
			e := newFake(t, core.Algorithm{Name: "scripted", Policy: p}, 12)
			victims := e.fillSegments(t, []string{"half", "half"}) // 5 live records each
			p.script = [][]int32{victims}
			tg := e.l.Target()
			if got := tg.SelectVictims(2); len(got) != 2 {
				t.Fatalf("SelectVictims = %v", got)
			}
			e.installsLeft = tc.installs
			_, _, err := tg.Relocate(victims)
			if tc.installs < 10 && !errors.Is(err, errFakeIO) {
				t.Fatalf("Relocate = %v, want the injected failure", err)
			}
			e.syncs, e.syncErr = 0, tc.syncErr
			free := len(e.l.free)
			tg.Abort(victims)
			for i, v := range victims {
				want := core.SegSealed
				if tc.wantFree[i] {
					want = core.SegFree
					free++
				}
				if got := e.l.Meta[v].State; got != want {
					t.Errorf("victim %d is %s after Abort, want %s", i, got, want)
				}
			}
			if len(e.l.free) != free || int(e.l.freeCount.Load()) != free {
				t.Errorf("free pool %d (count %d), want %d", len(e.l.free), e.l.freeCount.Load(), free)
			}
			if e.syncs != tc.wantSyncs || len(e.l.pendingE) != 0 {
				t.Errorf("Abort ran %d sync points (want %d), left %d pending victims", e.syncs, tc.wantSyncs, len(e.l.pendingE))
			}
			e.check(t)
		})
	}
}

// applyBatch is the page store's batch apply loop.
func (e *fakeEngine) applyBatch(t *testing.T, b *Batch) {
	t.Helper()
	for i := range b.Ops {
		op := &b.Ops[i]
		if err := e.l.RoomReserved(op.Size); err != nil {
			t.Fatalf("op %d: reservation violated: %v", i, err)
		}
		e.write(op.Key, op.Size, op.Del)
	}
}

// TestBatchReservationIsExact plans batches of mixed record sizes —
// including a delete followed by a re-put of the same key — and checks that
// the apply opens exactly the planned number of segments, in foreground mode
// also after the reservation cleaned first.
func TestBatchReservationIsExact(t *testing.T) {
	e := newFake(t, core.Greedy(), 48)
	for round := 0; round < 40; round++ {
		for _, k := range []string{"hot-a", "hot-b"} {
			e.put(t, k, 30)
		}
		if round%8 == 0 {
			e.put(t, fmt.Sprintf("cool-%d", round%16), 45)
		}
		e.put(t, fmt.Sprintf("cold-%d", round), 25)
	}
	cleanedFirst := 0
	for round := 0; round < 30; round++ {
		var b Batch
		for j := 0; j < 2+round%4; j++ {
			b.Put(e.id("hot-a"), nil)
			b.Put(e.id(fmt.Sprintf("cool-%d", (round+j)%16)), nil)
			b.Put(e.id(fmt.Sprintf("new-%d-%d", round, j)), nil)
			b.Delete(e.id(fmt.Sprintf("new-%d-%d", round-1, j))) // bounds the live data
			b.Delete(e.id("hot-b"))
			b.Put(e.id("hot-b"), nil)
			if j%2 == 0 {
				b.Delete(e.id(fmt.Sprintf("cold-%d", (round*3+j)%40)))
			}
		}
		for i := range b.Ops {
			op := &b.Ops[i]
			op.Size = tombstone
			if !op.Del {
				op.Size = int64(20 + (round*7+i*13)%30)
			}
		}
		cleaned := e.l.cleanedSegs
		if err := e.l.Reserve(&b); err != nil {
			t.Fatalf("round %d: Reserve: %v", round, err)
		}
		if e.l.cleanedSegs > cleaned {
			cleanedFirst++
		}
		newSegs, free := e.l.plan(&b), len(e.l.free)
		if free < e.l.cfg.FreeLowWater+newSegs-1 && newSegs > 0 {
			t.Fatalf("round %d: Reserve left %d free for %d new segments at low water %d", round, free, newSegs, e.l.cfg.FreeLowWater)
		}
		e.applyBatch(t, &b)
		if opened := free - len(e.l.free); opened != newSegs {
			t.Errorf("round %d: apply opened %d segments, plan said %d", round, opened, newSegs)
		}
		e.check(t)
	}
	if cleanedFirst < 5 {
		t.Errorf("only %d of 30 reservations cleaned first; the workload is miscalibrated", cleanedFirst)
	}
}

// TestBatchReservedWritesFillAtApply: a reserved write carries its length and
// nothing else — the arena does not grow for it — and CopyData hands the
// engine's own bytes to Fill with the operation's position, while a Put next
// to it is still served from the arena; both survive Reset as the batch's
// retained capacity and its Fill.
func TestBatchReservedWritesFillAtApply(t *testing.T) {
	var b Batch
	var filled []int
	b.Fill = func(i int, dst []byte) {
		filled = append(filled, i)
		for j := range dst {
			dst[j] = byte('a' + i)
		}
	}
	for round := 0; round < 2; round++ {
		b.Put(1, []byte("xyz"))
		b.PutReserved(2, 4)
		b.Delete(3)
		b.PutReserved(4, 0)
		if len(b.buf) != 3 {
			t.Fatalf("arena holds %d bytes, want only the Put's 3", len(b.buf))
		}
		for i, want := range []struct {
			n        int
			reserved bool
			data     string
		}{{3, false, "xyz"}, {4, true, "bbbb"}, {0, false, ""}, {0, true, ""}} {
			op := &b.Ops[i]
			if op.DataLen() != want.n || op.Reserved() != want.reserved {
				t.Fatalf("op %d: DataLen %d Reserved %v", i, op.DataLen(), op.Reserved())
			}
			dst := bytes.Repeat([]byte{0xEE}, want.n+1)
			b.CopyData(i, dst[:want.n])
			if string(dst[:want.n]) != want.data || dst[want.n] != 0xEE {
				t.Fatalf("op %d: CopyData produced %q", i, dst)
			}
		}
		if len(filled) != 2 || filled[0] != 1 || filled[1] != 3 {
			t.Fatalf("Fill called for ops %v, want [1 3]", filled)
		}
		filled = filled[:0]
		b.Reset()
		if len(b.Ops) != 0 || b.Fill == nil {
			t.Fatal("Reset must empty the batch and keep its Fill")
		}
	}
}

// idleTarget keeps a real cleaner goroutine parked: the pool always looks
// full to it.
type idleTarget struct{ cleaner.Target }

func (idleTarget) FreeSegments() int { return 1 << 20 }

// TestBackgroundReservationRule: with a background cleaner a batch is
// admitted iff the pool covers its new segments plus the one segment user
// appends must leave for GC output (free ≥ newSegs + need − 1, need = 2) —
// and it fails fast with ErrFull otherwise, cleaning nothing itself.
func TestBackgroundReservationRule(t *testing.T) {
	p := &scripted{auto: true}
	e := newFake(t, core.Algorithm{Name: "scripted", Policy: p}, 12)
	e.fillSegments(t, []string{"half", "half"})
	cl, err := cleaner.Start(idleTarget{}, cleaner.Options{LowWater: 2, Batch: 1, TotalSegments: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	e.l.cl = cl
	e.put(t, "tail", 95) // stream 0's open segment has 5 bytes left
	pool := e.l.free
	for _, tc := range []struct{ free, records, wantSegs int }{
		{free: 0, records: 0, wantSegs: 0}, {free: 1, records: 0, wantSegs: 0},
		{free: 1, records: 1, wantSegs: 1}, {free: 2, records: 1, wantSegs: 1},
		{free: 3, records: 3, wantSegs: 3}, {free: 4, records: 3, wantSegs: 3}, {free: 4, records: 4, wantSegs: 4},
	} {
		var b Batch
		b.Put(e.id("tiny"), nil) // fits the open segment's last 5 bytes
		b.Ops[0].Size = 5
		for i := 0; i < tc.records; i++ {
			b.Put(e.id(fmt.Sprintf("big-%d", i)), nil)
			b.Ops[i+1].Size = 60 // one fresh segment each
		}
		e.l.free = pool[:tc.free]
		if got := e.l.plan(&b); got != tc.wantSegs {
			t.Fatalf("plan = %d new segments, want %d", got, tc.wantSegs)
		}
		err := e.l.Reserve(&b)
		if want := tc.free >= tc.wantSegs+1; (err == nil) != want || err != nil && !errors.Is(err, errFakeFull) {
			t.Errorf("free %d, %d new segments: Reserve = %v, want admitted %v", tc.free, tc.wantSegs, err, want)
		}
	}
	if p.calls != 0 {
		t.Errorf("background-mode Reserve ran %d cleaning cycles itself", p.calls)
	}
}
