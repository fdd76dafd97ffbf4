package pagedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/store"
)

// Every test of this package runs with recycled nodes poisoned: a node's
// buffer and arrays are overwritten the moment it becomes reusable, so any
// read that outlives its guard hold — in these tests, the differential suite,
// the transaction and reader hammers — returns garbage its oracle rejects, and
// under -race is a reported write/read race.
func init() {
	poisonRecycled = func(n *btree.Node) {
		buf, keys, kids, offs := n.Buf[:cap(n.Buf)], n.Keys[:cap(n.Keys)], n.Kids[:cap(n.Kids)], n.Offs[:cap(n.Offs)]
		for i := range buf {
			buf[i] = 0xEE
		}
		for i := range offs {
			offs[i] = 0xEEEEEEEE
		}
		for i := range keys {
			keys[i] = 0xEEEEEEEEEEEEEEEE
		}
		for i := range kids {
			kids[i] = 0xEEEEEEEE
		}
	}
}

// listed returns the nodes waiting on the retired or the free lists, each with
// the number of times it is on them.
func listed(db *DB) map[*btree.Node]int {
	db.evmu.Lock()
	defer db.evmu.Unlock()
	nodes := make(map[*btree.Node]int)
	for _, n := range db.retired {
		nodes[n]++
	}
	for _, c := range db.free {
		for _, n := range c.nodes {
			nodes[n]++
		}
	}
	return nodes
}

// resident returns page id's node pinned, or nil if the page is not resident;
// the caller releases n.Pin.
func resident(db *DB, id uint32) *btree.Node {
	if obj, _ := db.pool.FetchPinned(id); obj != nil {
		return obj.(*btree.Node)
	}
	return nil
}

// within reports whether v is a slice of buf's memory.
func within(buf, v []byte) bool {
	buf = buf[:cap(buf)]
	for i := range buf {
		if len(v) > 0 && &buf[i] == &v[0] {
			return true
		}
	}
	return false
}

// TestReclaimedNodeLeavesSiblingsIntact: a leaf whose entries a split or a
// borrow moved into a sibling is recycled like any other node once it is
// evicted — its buffer and arrays poisoned and handed to another page — and
// the sibling, pinned and resident throughout, still reads every value it
// holds: the entries were copied, never shared.
func TestReclaimedNodeLeavesSiblingsIntact(t *testing.T) {
	for _, split := range []bool{true, false} {
		name := "borrow"
		if split {
			name = "split"
		}
		t.Run(name, func(t *testing.T) { reclaimedNodeLeavesSiblingsIntact(t, split) })
	}
}

func reclaimedNodeLeavesSiblingsIntact(t *testing.T, split bool) {
	opts := memOpts()
	opts.CachePages = 16 // the churn below evicts every page, over and over
	opts.CacheShards = 1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64][]byte)
	put := func(k uint64) {
		t.Helper()
		oracle[k] = val(k, 1)
		if err := tr.Put(k, oracle[k]); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 800; k += 2 { // even keys: room between them
		put(k)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	// churn faults far more pages than the cache holds, cycling the guard as
	// it goes: whatever can be evicted is, retired, reclaimed and reused.
	churn := func() {
		t.Helper()
		for k := uint64(100); k < 800; k += 2 {
			if v, ok, err := tr.Get(k); err != nil || !ok || !bytes.Equal(v, oracle[k]) {
				t.Fatalf("Get(%d) = %x, %v, %v", k, v, ok, err)
			}
			if k%16 == 0 {
				db.lock() // an exclusive acquisition: retired nodes become free
				db.mu.Unlock()
			}
		}
	}
	churn()                                         // the leftmost leaf leaves the cache...
	if _, ok, err := tr.Get(0); err != nil || !ok { // ...and is parsed back in
		t.Fatal(ok, err)
	}
	// node returns page id's node, faulting it in; pinned if pin.
	node := func(id uint32, pin bool) *btree.Node {
		t.Helper()
		db.mu.RLock()
		defer db.mu.RUnlock()
		n, err := db.node(id)
		if err != nil {
			t.Fatal(err)
		}
		if !pin {
			db.pool.Release(n.Pin)
		}
		return n
	}
	leftmost := node(tr.core.Root(), false)
	for !leftmost.Leaf {
		leftmost = node(leftmost.Kids[0], false)
	}
	first := func(n *btree.Node) uint64 { k, _ := n.Entry(0); return k }
	var donor, sibling *btree.Node
	if split { // the leftmost leaf splits: its upper entries go to a new sibling
		donor = leftmost
		for k, next := uint64(1), donor.Next; donor.Next == next; k += 2 {
			if k > 40 {
				t.Fatal("the leaf never split")
			}
			put(k)
		}
		sibling = node(donor.Next, true)
	} else { // its neighbor, more than half full, lends the leftmost its first entry
		sibling, donor = node(leftmost.ID, true), node(leftmost.Next, false)
		for k, next := first(donor)+1, donor.Next; donor.NBytes*2 <= db.budget(); k += 2 {
			if put(k); donor.Next != next {
				t.Fatal("the neighbor split before it was half full")
			}
		}
		for k, lent := uint64(0), first(donor); first(donor) == lent; k += 2 {
			if _, err := tr.Delete(k); err != nil || sibling.Next != donor.ID || !sibling.Pin.Current() {
				t.Fatalf("deleting key %d: %v; the leftmost leaf merged before it borrowed", k, err)
			}
			delete(oracle, k)
		}
	}
	want := make([][]byte, len(sibling.Offs))
	for i := range want {
		_, v := sibling.Entry(i)
		want[i] = append([]byte(nil), v...)
	}
	if err := db.Commit(); err != nil { // both clean: the donor is evictable
		t.Fatal(err)
	}
	id := donor.ID
	for round := 0; donor.ID == id; round++ { // a fault took the donor for its page
		if round == 5 {
			t.Fatal("the donor was never recycled: the churn is too small")
		}
		churn()
	}
	for i, w := range want {
		if k, v := sibling.Entry(i); !bytes.Equal(v, w) {
			t.Fatalf("sibling value of key %d is %x, was %x: the donor's recycling reached it", k, v, w)
		}
	}
	db.pool.Release(sibling.Pin)
	checkOracle(t, db, oracle)
}

// hammerVal is the value of key k at state c (odd: present): the state, then
// a run whose length and fill depend on both, so that overwrites move leaves
// across the split and merge thresholds and any stale or foreign byte shows.
func hammerVal(k uint64, c uint32) []byte {
	v := make([]byte, 4+(k*7+uint64(c)*13)%40)
	binary.LittleEndian.PutUint32(v, c)
	for i := 4; i < len(v); i++ {
		v[i] = byte(k) ^ byte(c) ^ byte(i)
	}
	return v
}

// TestRecycleHammer: four readers (GetInto, Get, Scan, Txn) on a tree sixteen
// times its cache while one writer inserts, overwrites and deletes in waves —
// the tree grows through splits and shrinks through borrows and merges, over
// and over — and a checkpoint fires every few hundred operations. Each key's
// state is a counter (odd: present, holding hammerVal of that state); the
// writer publishes the state it is moving to before an operation and the state
// reached after it, so a reader knows exactly which states a read may return,
// and checks what it got byte for byte — inside its guard hold, on the node's
// own bytes. With recycled nodes poisoned, a value that outlived its node
// fails that check; under -race it is also a reported race.
func TestRecycleHammer(t *testing.T) {
	const nkeys = 3000
	opts := memOpts()
	opts.Store.MaxSegments = 512
	opts.CachePages = 32
	opts.CacheShards = 2
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr, err := db.Tree("h")
	if err != nil {
		t.Fatal(err)
	}
	// started[k] ≥ the state any operation has begun moving k to; reached[k] ≤
	// the state every finished operation has left it in.
	started, reached := make([]atomic.Uint32, nkeys), make([]atomic.Uint32, nkeys)
	var fmu sync.Mutex
	var firstErr error
	fail := func(format string, args ...any) {
		fmu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		fmu.Unlock()
	}
	// check validates one read of k — v is nil when k was not found — that
	// began when reached[k] was lo.
	check := func(who string, k uint64, v []byte, found bool, lo uint32) {
		hi := started[k].Load()
		if !found {
			if lo == hi && lo%2 == 1 {
				fail("%s: key %d missing, but it has been present (state %d) throughout", who, k, lo)
			}
			return
		}
		if len(v) < 4 {
			fail("%s: key %d: value %x", who, k, v)
			return
		}
		c := binary.LittleEndian.Uint32(v)
		if c%2 == 0 || c < lo || c > hi || !bytes.Equal(v, hammerVal(k, c)) {
			fail("%s: key %d read %x: not the value of any state in [%d, %d]", who, k, v, lo, hi)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(seed uint64, read func(rng *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed))
			for {
				select {
				case <-done:
					return
				default:
					read(rng)
				}
			}
		}()
	}
	var buf []byte
	reader(1, func(rng *rand.Rand) {
		k := rng.Uint64N(nkeys)
		lo := reached[k].Load()
		v, ok, err := tr.GetInto(k, buf)
		if err != nil {
			fail("GetInto(%d): %v", k, err)
		}
		buf = v
		check("GetInto", k, v, ok, lo)
	})
	reader(2, func(rng *rand.Rand) {
		k := rng.Uint64N(nkeys)
		lo := reached[k].Load()
		v, ok, err := tr.Get(k)
		if err != nil {
			fail("Get(%d): %v", k, err)
		}
		check("Get", k, v, ok, lo)
	})
	// scanned checks one 64-key range read through do; an error is the
	// caller's to pass on, and voids the absences.
	scanned := func(who string, rng *rand.Rand, do func(from, to uint64, fn func(uint64, []byte) bool) error) error {
		from := rng.Uint64N(nkeys - 64)
		var lo [64]uint32
		for i := range lo {
			lo[i] = reached[from+uint64(i)].Load()
		}
		var seen [64]bool
		err := do(from, from+63, func(k uint64, v []byte) bool {
			if k < from || k > from+63 || seen[k-from] {
				fail("%s from %d visited key %d", who, from, k)
				return false
			}
			seen[k-from] = true
			check(who, k, v, true, lo[k-from]) // on the node's own bytes
			return true
		})
		for i, ok := range seen {
			if !ok && err == nil {
				check(who, from+uint64(i), nil, false, lo[i])
			}
		}
		return err
	}
	reader(3, func(rng *rand.Rand) {
		if err := scanned("Scan", rng, tr.Scan); err != nil {
			fail("Scan: %v", err)
		}
	})
	reader(4, func(rng *rand.Rand) {
		x, err := db.Begin()
		if err != nil {
			fail("Begin: %v", err)
			return
		}
		defer x.Rollback()
		if rng.IntN(2) == 0 {
			err = scanned("Txn.Scan", rng, func(from, to uint64, fn func(uint64, []byte) bool) error {
				return x.Scan("h", from, to, fn)
			})
		} else {
			k := rng.Uint64N(nkeys)
			lo := reached[k].Load()
			var val []byte
			var ok bool
			if val, ok, err = x.Get("h", k); err == nil {
				check("Txn.Get", k, val, ok, lo)
			}
		}
		if err != nil {
			fail("Txn: %v", err)
		}
	})

	// The writer: waves that fill the key space, then empty most of it.
	rng := rand.New(rand.NewPCG(9, 9))
	ops := 24000
	if testing.Short() {
		ops = 6000
	}
	for i := 0; i < ops && firstErr == nil; i++ {
		k := rng.Uint64N(nkeys)
		c := reached[k].Load()
		grow := (i/3000)%2 == 0
		del := c%2 == 1 && rng.IntN(10) < 7 && !grow
		if c%2 == 0 && !grow && rng.IntN(10) < 7 {
			continue // shrinking: leave most absent keys absent
		}
		next := c + 1 // insert, or delete
		if c%2 == 1 && !del {
			next = c + 2 // overwrite
		}
		started[k].Store(next)
		var err error
		switch {
		case i%3 == 0 && del:
			_, err = tr.Delete(k)
		case i%3 == 0:
			err = tr.Put(k, hammerVal(k, next))
		default:
			var x *Txn
			if x, err = db.Begin(); err == nil {
				if del {
					_, err = x.Delete("h", k)
				} else {
					err = x.Put("h", k, hammerVal(k, next))
				}
				if err == nil {
					err = x.Commit()
				}
			}
		}
		if err != nil {
			t.Fatalf("op %d on key %d: %v", i, k, err)
		}
		reached[k].Store(next)
		if i%300 == 299 {
			if err := db.Commit(); err != nil {
				t.Fatalf("checkpoint at op %d: %v", i, err)
			}
		}
	}
	close(done)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	present := 0
	for k := uint64(0); k < nkeys; k++ {
		v, ok, err := tr.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		check("final Get", k, v, ok, reached[k].Load())
		if ok {
			present++
		}
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if tr.Len() != present {
		t.Errorf("tree counts %d keys, %d are present", tr.Len(), present)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckPinBalance(); err != nil {
		t.Fatal(err)
	}
	if err := checkDirtyTable(db); err != nil {
		t.Fatal(err)
	}
	st, obs := db.Stats(), db.Obs()
	recycled, fresh := obs.Counter("pagedb.node.recycled").Value(), obs.Counter("pagedb.node.fresh").Value()
	t.Logf("%d faults: %d into recycled nodes, %d fresh; %d checkpoints, %d pages freed by merges",
		st.Faults, recycled, fresh, st.Commits, len(db.ids.FreeList()))
	if recycled == 0 || recycled+fresh != st.Faults {
		t.Errorf("recycled %d + fresh %d of %d faults: the hammer did not exercise recycling", recycled, fresh, st.Faults)
	}
	if pages := db.ids.Next(); int(pages) < 16*opts.CachePages {
		t.Errorf("the tree only ever had %d pages, want ≥ 16 × the cache of %d", pages, opts.CachePages)
	}
}

// TestFaultAllocBudget: in steady state a fault allocates next to nothing —
// the read lands in a recycled node's buffer and is parsed into its arrays.
// A file-backed tree eight times its cache takes point reads all over it,
// mixed with single-put transactions on a few hot keys: the transactions are
// what cycles the guard, turning the nodes the reads' faults evict into free
// ones, and their pages never leave the cache, so nothing is evicted dirty (a
// parked node is not free until its checkpoint). What the operations
// themselves allocate — measured first, with the reads on the hot keys too —
// is subtracted, and the rest is charged to the faults: the free list's misses
// (a buffer or an array of the wrong size, or no free node at all).
//
// Three shapes. One read per transaction is the least the lists must do. The
// second is TPC-C's: a cache of a few hundred pages and a transaction's worth
// of reads — some twenty faults, twenty clean evictions — between two
// exclusive acquisitions, all of which must still be on a list when the next
// acquisition frees them: a list sized by a fraction of the cache (8 nodes
// here) recycled under half of these. The third is the checkpoint's: nothing
// but transactions, each writing one leaf anywhere in the tree, so the pool
// evicts dirty nodes — they park — and each checkpoint retires hundreds of
// them at once, which the next interval's faults need: a list of 64 nodes
// recycled 59 % of these. Its writes allocate, so only its recycled share has
// a bound, 80 %. The fourth is the first's over leaves that each have a delta
// page, which every fault reads and applies over the image, with the same
// budget.
func TestFaultAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	for _, c := range []struct {
		name                          string
		cache, nkeys, perTxn, ckEvery int // perTxn: reads per transaction; ckEvery: transactions per checkpoint, 0 for hot-key writes
		deltas                        bool
	}{
		{"read-by-read", 128, 60000, 1, 0, false},
		{"tpcc-shaped", 256, 120000, 24, 0, false},
		{"checkpoint-shaped", 256, 120000, 0, 600, false},
		{"delta-leaf", 128, 60000, 1, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) { faultAllocBudget(t, c.cache, c.nkeys, c.perTxn, c.ckEvery, c.deltas) })
	}
}

func faultAllocBudget(t *testing.T, cache, nkeys, perTxn, ckEvery int, deltas bool) {
	const pageSize = 4096
	db, err := Open(Options{
		Store:      store.Options{Dir: t.TempDir(), PageSize: pageSize, SegmentPages: 128, MaxSegments: 384},
		CachePages: cache, CacheShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	oracle := make(map[uint64][]byte)
	keys := make([]uint64, nkeys)
	for i := range keys {
		keys[i] = uint64(i)
	}
	txnPuts(t, db, oracle, keys, 0)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if deltas { // every 16th key, a few in each leaf, changed: a delta page each
		var every []uint64
		for k := uint64(0); k < uint64(nkeys); k += 16 {
			every = append(every, k)
		}
		txnPuts(t, db, oracle, every, 1)
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		if pages := db.Obs().Counter("pagedb.delta.pages").Value(); pages < uint64(db.ids.Next())*3/4 {
			t.Fatalf("%d delta pages written for %d pages", pages, db.ids.Next())
		}
	}
	tr, err := db.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	if pages := int(db.ids.Next()); pages < 8*cache {
		t.Fatalf("the tree has %d pages, want ≥ 8 × the cache of %d", pages, cache)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	var buf []byte
	// run issues n operations, perTxn reads in the first span keys to each
	// single-put transaction — on a hot key, or with ckEvery on any of the span
	// and a checkpoint every ckEvery of them — and returns what they allocated
	// and faulted.
	const hot = 20
	run := func(n int, span uint64, version byte) (alloc, faults uint64) {
		t.Helper()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f0 := db.faults.Load()
		for i := 0; i < n; i++ {
			if i%(perTxn+1) != perTxn {
				k := rng.Uint64N(span)
				v, ok, err := tr.GetInto(k, buf)
				if err != nil || !ok || !bytes.Equal(v, oracle[k]) {
					t.Fatalf("GetInto(%d) = %x, %v, %v; want %x", k, v, ok, err, oracle[k])
				}
				buf = v
				continue
			}
			k := rng.Uint64N(hot)
			if ckEvery > 0 {
				k = rng.Uint64N(span)
			}
			x, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i := range oracle[k] { // val(k, version), in place: the oracle allocates nothing
				oracle[k][i] = byte(k)*7 + version + byte(i)
			}
			if err := x.Put("t", k, oracle[k]); err != nil {
				t.Fatal(err)
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			if ckEvery > 0 && (i/(perTxn+1))%ckEvery == ckEvery-1 {
				if err := db.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, db.faults.Load() - f0
	}
	const ops = 4000
	run(ops, hot, 1) // warm: the hot leaf resident, the WAL's buffers grown
	base, hotFaults := run(ops, hot, 2)
	if hotFaults != 0 {
		t.Fatalf("%d faults on the hot keys: the calibration is not fault-free", hotFaults)
	}
	obs := db.Obs()
	recycled, fresh := obs.Counter("pagedb.node.recycled"), obs.Counter("pagedb.node.fresh")
	best, bestFaults, bestShare := 0.0, uint64(0), 0.0
	for round := byte(0); round < 4; round++ {
		r0, f0 := recycled.Value(), fresh.Value()
		alloc, faults := run(ops, uint64(nkeys), 3+round)
		share := float64(recycled.Value()-r0) / float64(recycled.Value()-r0+fresh.Value()-f0)
		if err := db.Commit(); err != nil { // not measured: TestCheckpointAllocBudget's
			t.Fatal(err)
		}
		if faults < ops/3 {
			t.Fatalf("%d faults in %d operations: the tree is not spilling", faults, ops)
		}
		if round == 0 {
			continue // first growth of the free list and the dirty-page table
		}
		if applies := db.Obs().Counter("pagedb.delta.applies").Value(); deltas && applies < faults/2 {
			t.Fatalf("%d delta pages applied in %d faults", applies, faults)
		}
		if per := (float64(alloc) - float64(base)) / float64(faults); bestFaults == 0 || per < best {
			best, bestFaults, bestShare = per, faults, share
		}
	}
	t.Logf("%.0f B allocated per fault (%d faults in %d operations, %.0f%% of them into recycled nodes; the operations themselves allocate %.0f B each; %d nodes dropped)",
		best, bestFaults, ops, 100*bestShare, float64(base)/ops, obs.Counter("pagedb.node.dropped").Value())
	if ckEvery > 0 {
		if bestShare < 0.80 {
			t.Errorf("%.0f%% of faults parsed into recycled nodes, want ≥ 80%%", 100*bestShare)
		}
	} else if deltas && best >= 1 {
		t.Errorf("%.0f B allocated per fault through a delta page, want 0", best)
	} else if best > 96 {
		t.Errorf("%.0f B allocated per fault, budget is 96", best)
	} else if bestShare < 0.95 {
		t.Errorf("%.0f%% of faults parsed into recycled nodes, want ≥ 95%%", 100*bestShare)
	}
	checkOracle(t, db, oracle)
}

// TestReallocatedPageFaultsItsOwnImage: a page whose nodes went through the
// recycling lists faults in its new image once it is freed and its id
// reallocated. The case is a tree larger than the cache emptied by deletes:
// they evict its pages onto the lists and fault them back, and their merges
// free them. The ids go to another tree's new pages, which are checkpointed
// and faulted back.
func TestReallocatedPageFaultsItsOwnImage(t *testing.T) {
	opts := memOpts()
	opts.CachePages = 8
	opts.CacheShards = 1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a, err := db.Tree("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Tree("b")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := a.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	deleteKeys(t, a, 200)
	freed := len(db.ids.FreeList())
	if freed < 4*opts.CachePages {
		t.Fatalf("emptying the tree freed %d pages, want ≥ 4 × the cache of %d", freed, opts.CachePages)
	}
	// Every freed id is reallocated to b.
	reused := append([]uint32(nil), db.ids.FreeList()...)
	oracle := make(map[uint64][]byte)
	for k := uint64(0); len(db.ids.FreeList()) > 0; k++ {
		if k > 100000 {
			t.Fatal("b never took back every freed id")
		}
		oracle[k] = val(k, 2)
		if err := b.Put(k, oracle[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	// Each reused page, faulted in unless resident, is its stored image.
	for _, id := range reused {
		db.mu.RLock()
		n, err := db.node(id)
		if err != nil {
			t.Fatal(err)
		}
		size, err := n.ImageBytes(db.pageSize)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, size)
		btree.EncodeNode(img, n)
		db.pool.Release(n.Pin)
		db.mu.RUnlock()
		stored, err := storedImage(db, id)
		if err != nil || !bytes.Equal(img, stored) {
			t.Fatalf("page %d, freed and reallocated, faults in another image than its stored one (%v)", id, err)
		}
	}
	for k, want := range oracle {
		if v, ok, err := b.Get(k); err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) = %x, %v, %v; want %x", k, v, ok, err, want)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := checkDirtyTable(db); err != nil {
		t.Fatal(err)
	}
}

// leafValue returns key k's value where its leaf holds it — the tree's own
// memory, faulting the path in if need be — and the leaf's buffer.
func leafValue(t *testing.T, db *DB, tr *Tree, k uint64) (v, buf []byte) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for id := tr.core.Root(); ; {
		n, err := db.node(id)
		if err != nil {
			t.Fatal(err)
		}
		db.pool.Release(n.Pin)
		if !n.Leaf {
			id = n.Kids[sort.Search(len(n.Keys), func(i int) bool { return n.Keys[i] > k })]
			continue
		}
		for i := range n.Offs {
			if key, v := n.Entry(i); key == k {
				return v, n.Buf
			}
		}
		t.Fatalf("key %d is not in its leaf", k)
	}
}

// TestSameSizeUpdateInPlace: a transaction that updates a value with one of
// its length writes the new bytes over the old ones, in the buffer of the leaf
// just faulted from the store. After it, the dirty-page table and the oracle
// hold, and a value read before the update, through Get or a transaction,
// keeps its old bytes. A checkpoint and a reopen then give the same state back.
func TestSameSizeUpdateInPlace(t *testing.T) {
	opts := memOpts()
	opts.Store.Dir = t.TempDir()
	opts.Store.PageSize = 1024 // a root over every leaf
	opts.CachePages = 16
	opts.CacheShards = 1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	oracle := make(map[uint64][]byte)
	var all []uint64
	for k := uint64(0); k < 800; k++ {
		all = append(all, k)
	}
	txnPuts(t, db, oracle, all, 1)
	reopen := func() *Tree {
		t.Helper()
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(opts); err != nil {
			t.Fatal(err)
		}
		tr, err := db.Tree("t")
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr := reopen() // nothing resident, nothing listed
	// update rewrites keys at version through transactions, and checks that
	// what was read of them before keeps its bytes.
	update := func(keys []uint64, version byte) {
		t.Helper()
		x, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		defer x.Rollback()
		read := make(map[uint64][][]byte)
		for _, k := range keys {
			got, _, err := tr.Get(k)
			inTxn, _, err2 := x.Get("t", k)
			if err := errors.Join(err, err2); err != nil {
				t.Fatal(err)
			}
			read[k] = [][]byte{got, inTxn}
		}
		old := maps.Clone(oracle)
		txnPuts(t, db, oracle, keys, version)
		for k, vs := range read {
			for _, v := range vs {
				if !bytes.Equal(v, old[k]) {
					t.Fatalf("key %d read before its update as %x now reads %x", k, old[k], v)
				}
			}
		}
		checkOracle(t, db, oracle)
	}

	// A leaf faulted from the store: its values are slices of its buffer.
	faults := db.Stats().Faults
	k := uint64(400)
	before, buf := leafValue(t, db, tr, k)
	if db.Stats().Faults == faults || !within(buf, before) {
		t.Fatal("key 400's value is not in the buffer of a leaf faulted from the store")
	}
	update([]uint64{k}, 2)
	if after, _ := leafValue(t, db, tr, k); &after[0] != &before[0] || !bytes.Equal(after, val(k, 2)) {
		t.Fatalf("the update of key %d is not in its leaf's buffer", k)
	}

	tr = reopen()
	checkOracle(t, db, oracle)
}
