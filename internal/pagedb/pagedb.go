// Package pagedb is a durable keyed database engine: the B+-tree/buffer-pool
// stack of internal/btree and internal/bufferpool layered, for real, on the
// log-structured page store of internal/store. It closes the loop the paper
// assumes from its first page — a B-tree page store whose every page write
// lands in a log-structured store that must then reclaim the space of
// superseded versions (§1, §6.3) — and it is what lets the TPC-C engine run
// against durable storage instead of emitting a synthetic trace.
//
// # Architecture
//
//	named B+-trees (uint64 keys, []byte values)
//	    └── fused node cache: decoded nodes live IN the buffer pool's
//	        frames (bufferpool fused object slot), 2-bit clock residency
//	          ├── fault: miss -> parked node (dirty-page table), else the
//	          │          page's node still on the recycling lists, else
//	          │          Store.ReadRecord into a recycled node's buffer ->
//	          │          btree.ParseNode, in place
//	          └── dirty-page table: every node changed since the last
//	              checkpoint, resident or parked DECODED after eviction
//	                └── checkpoint (Commit): the table's nodes, each
//	                    encoded ONCE, by the store, into the run buffer
//	                    of one atomic store.Batch (pages + frees + meta)
//	                      └── internal/store: log-structured placement,
//	                          routed streams, background cleaning, recovery
//	Txn.Commit -> internal/wal (redo log, group fsync) -> tree apply
//
// Every tree node occupies exactly one store page (btree page images).
// There is no separate decoded-node map: a buffer pool frame carries the
// decoded node in its fused object slot, so residency, replacement,
// pinning and the node itself live in one place and the hot read path is a
// single sharded-pool acquisition per tree level (FetchPinned). The pool
// bounds how many decoded nodes stay in memory: a miss faults the page in
// from the store under a per-shard fault mutex (one read and parse no
// matter how many readers miss together).
//
// # The life of a page image
//
// A page's bytes exist once on each side of storage. Coming in, the fault's
// one pread lands in the buffer the node keeps (Node.Buf) and is parsed where
// it lies: a leaf's values are slices of that buffer, and an update that
// keeps a value's length writes over its bytes there. Going out, the
// checkpoint's batch carries a page's id and length only, and the store has
// the node encoded straight into the run buffer its segment write goes out
// from. File → node buffer → run buffer → file; no image, arena or per-value
// copy in between.
//
// The buffer, the node and its arrays are recycled. A node that becomes
// unreachable — evicted clean, or parked and now written — is RETIRED; a
// fault takes the oldest node of its size from the FREE list; and what moves
// nodes from the one to the other is every exclusive acquisition of the guard
// (lock). That is a quiescence point because the guard is already what a
// reader's slices live under: a value returned by Core.Get, a Scan callback's
// argument, a View read are all used and dropped within one hold of the read
// side, so once an exclusive acquisition has waited those holds out, nothing
// can still be reading a node retired before it. The one exception is a node
// whose values a split, borrow or merge moved into a sibling (Node.Donor):
// its bytes are still in use, so it is never recycled. Until a fault takes a
// listed node for another page, it is its own page's image, decoded and
// indexed by page id: a fault on that page re-admits it from either list, as
// it re-admits a parked node, with no read and no parse — the lists are a
// victim cache behind the pool. The lists hold at most CachePages nodes: a
// checkpoint retires every parked node it writes at once, and the next
// interval's faults are what needs them, so the bound is the cache's own
// size — recycled memory never exceeds it — and what it still turns away is
// counted (pagedb.node.dropped). A buffer is reused only for a record that
// fills seven eighths of it, so a recycled node holds no more memory than a
// new one would.
//
// # The life of a dirty page
//
// "Is this page dirty?" has one answer: the dirty-page table (db.dirty),
// which maps every page modified since the last checkpoint to its ONE form,
// the decoded node — resident in a pool frame while the node's frame handle
// is current, or, once the pool evicts it, parked in the table alone — and
// every page freed since to nil. A fault on a parked page re-admits the node
// without touching the store or a decoder; the pool may evict and park it
// again any number of times. Nothing is serialized before the checkpoint,
// which walks the table, sorts the nodes by page id, checks that each can be
// encoded, has the store encode each exactly once inside Apply, tombstones
// the freed pages the store holds, and only then clears the table and
// retires the parked nodes. A checkpoint that fails — that check or store
// Apply — leaves the table as it was, so the next attempt starts from the
// same dirty set.
//
// # Durability and crash atomicity
//
// Transactions (Begin/Txn/View, txn.go) are the unit of durability: a
// Txn.Commit appends its ops to the write-ahead log (internal/wal), applies
// them to the trees, and waits for the log's group fsync; Open replays the
// log's tail. The checkpoint bounds that replay: Commit writes every dirty
// page image, every page freed by structural changes, and the metadata
// page as ONE store.Batch and applies it atomically — under core.DurCommit
// the batch is group-fsynced and recovery discards a torn batch wholesale,
// so the page state always reopens as some prefix of the checkpoint
// history, never a half-applied one — and then truncates the log up to the
// commit seq the batch covers. Direct tree writes (Tree.Put/Delete) bypass
// the log and become durable at the next checkpoint.
//
// The metadata page (page id 0, never cached) records the named-tree
// registry (root, height, count per tree), the page allocator state (next
// id, free list) and the WAL seq the checkpoint covers, so Open recovers
// every tree from the store and the log's tail.
//
// # Concurrency
//
// DB methods are safe for concurrent use, and the read path takes no
// exclusive lock: Get and Scan hold a shared read guard (an RWMutex read
// side), so any number of readers run concurrently — faulting nodes in,
// evicting unpinned frames, updating the sharded buffer pool — and block
// only while a mutation or the commit install window holds the write side.
// Every node access is pinned through its frame (btree's fused
// Fetch/Release protocol: FetchPinned stamps the node's Pin handle) so
// eviction can never reclaim a node mid-read, and nodes are immutable
// while the read guard is held, so readers may hold node pointers without
// torn reads. View transactions go one step further: they hold the read
// guard only PER READ, not across the whole view, and key consistency off
// the epoch counter — the epoch advances only under the write side, so a
// view whose epoch is unchanged at each read saw one committed state, and
// a view that observes a bump retries or falls back to a guard-held run.
// Writers (Put, Delete, Commit, tree DDL, Close) serialize on the write
// side exactly as the old single-mutex engine did. Scan callbacks must not
// call back into the DB.
package pagedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("pagedb: closed")

// ErrTooLarge is returned by Put when a value cannot fit a page under the
// three-entries-per-leaf minimum the split logic needs.
var ErrTooLarge = errors.New("pagedb: value too large for page size")

// metaPageID is the reserved store page holding the database metadata. It
// doubles as the nil page id (leaf chains end at 0), so no tree node may
// ever be allocated there.
const metaPageID = 0

// metaMagic identifies a pagedb metadata page (format 3: format 2 — the
// free list spills across overflow pages — plus the WAL checkpoint seq).
const metaMagic = "PGDBMET3"

// ovfMagic identifies a free-list overflow page chained off the metadata
// page.
const ovfMagic = "PGDBOVF1"

// metaOverflowBase is where free-list overflow pages live: overflow page j
// occupies store page metaOverflowBase+j. The range sits at the top of the
// page id space, far above anything the sequential allocator can reach, so
// persisting the free list never has to allocate from the very allocator
// state it is serializing.
const metaOverflowBase = 0xFFFF0000

// Options configures Open.
type Options struct {
	// Store configures the backing log-structured page store: directory,
	// geometry, cleaning algorithm (routed placement included), background
	// cleaning, and the durability policy. Commit atomicity across a crash
	// needs core.DurCommit.
	Store store.Options
	// CachePages bounds the decoded-node cache (default 1024, minimum 8).
	CachePages int
	// CacheShards sets how many independent 2-bit clock regions the buffer
	// pool splits into (rounded up to a power of two; concurrent readers
	// scale with it). 0 picks bufferpool.DefaultShards(), sized to GOMAXPROCS.
	CacheShards int
}

// DB is an open pagedb database.
//
// Lock order (outermost first): db.mu, then a fault mutex, then a pool
// shard mutex (inside any pool call) or the store's lock (inside any store
// call), then db.evmu, which guards only the recycling lists (the eviction
// callback runs under the pool shard mutex and takes it; a fault's buffer
// request runs under the store's read lock and takes it; a re-admission takes
// it under the fault mutex). evmu is never held across a pool or a store call.
// The page-id allocator (ids) and the dirty-page table (dirty) have no lock:
// writers change them only under db.mu's write side, and Open before the DB
// is shared.
type DB struct {
	// mu is the operation guard. Writers (Put, Delete, Commit, tree DDL,
	// Close) take the write side and see the old single-mutex engine;
	// readers (Get, Scan, Len, ...) take the read side and run concurrently
	// with each other, excluded only from mutations and the commit install.
	mu       sync.RWMutex
	st       *store.Store
	pool     *bufferpool.Pool
	ids      bufferpool.IDs
	pageSize int

	// faultMu serializes the fault path per pool shard: when concurrent
	// readers miss the same page, one pays the ReadPage+decode and the rest
	// adopt its install (the decoded nodes live in the pool's fused frames,
	// so there is no separate node cache to race on). Indexed by
	// pool.ShardOf.
	faultMu []sync.Mutex

	// dirty is the dirty-page table: every page changed since the last
	// checkpoint, keyed by id. The value is the page's decoded node —
	// resident while n.Pin is current, parked (the ONLY copy of the page's
	// state) once the pool has evicted it — or nil for a page freed since.
	// Writers change it under db.mu's write side; faults (a re-admission
	// looks its parked node up) and the eviction callback only read it,
	// holding either side.
	dirty map[uint32]*btree.Node

	// The recycling lists (see the package comment and node.go), under evmu:
	// slots holds their rings — the retired list's at slot 0, free's classes
	// in ascending buffer capacity — with the unused slots chained from spare,
	// and kept indexes every listed node by its page id. Together the lists
	// hold at most the pool's capacity (CachePages) in nodes.
	evmu  sync.Mutex
	slots []slot
	spare int32
	free  []freeClass
	kept  map[uint32]int32

	trees map[string]*Tree // named-tree registry
	order []string         // registry in creation order (meta determinism)

	batch     *store.Batch // the last checkpoint's, emptied, for the next
	metaDirty bool
	metaOvf   int // free-list overflow pages the last durable meta used
	closed    bool

	// wal is the per-transaction redo log (internal/wal). Txn.Commit
	// appends the transaction's ops and applies them to the trees under
	// db.mu (so WAL seq order IS apply order), then waits for the log's
	// group fsync OUTSIDE db.mu. commitLocked doubles as the checkpoint:
	// once a commit batch lands, every logged transaction it covers is
	// page-durable, the covered seq is recorded in the metadata page and
	// the log is truncated past it. Open replays the tail (seqs beyond the
	// checkpoint) before serving.
	wal    *wal.Log
	walSeq uint64        // commit seqs ≤ this are covered by the checkpoint
	txnIDs atomic.Uint64 // last issued transaction id
	epoch  atomic.Uint64 // bumped per applied transaction and per checkpoint
	// scratch recycles transactions' working memory (*txnScratch): Begin draws
	// one, Commit and Rollback return it emptied. It is an allocation of its
	// own: the runtime lists a pool for a cycle after its last Put, which must
	// not keep a closed DB alive.
	scratch *sync.Pool

	commits     uint64
	commitPages uint64
	txns        uint64        // transactions applied (committed)
	faults      atomic.Uint64 // incremented by concurrent readers
	dupFaults   atomic.Uint64 // duplicate faults avoided by the fault mutex
	dirtyEvicts atomic.Uint64 // dirty evictions parked (readers evict too)

	// obs handles, resolved once at Open; the registry is shared with the
	// backing store and its cleaner (see internal/obs).
	obsReg  *obs.Registry
	hFault  *obs.Histogram // pagedb.fault.ns: store read on a cache miss
	hCommit *obs.Histogram // pagedb.commit.ns: Commit latency
	hBatch  *obs.Histogram // pagedb.commit.pages: batch size per commit
	cEncode *obs.Counter   // pagedb.node.encodes: node images serialized
	// pagedb.node.{recycled,fresh,unrecyclable,dropped,readmitted}: faults that
	// parsed into a free node whose buffer fit, faults that allocated, donors
	// retire let go, nodes retire let go because the lists were full, faults
	// that took their page's node back off the lists.
	cRecycled, cFresh, cUnrecyclable, cDropped, cReadmitted *obs.Counter
}

// Open creates or recovers a database. A fresh store is initialized with an
// empty registry; an existing one must carry a pagedb metadata page.
func Open(opts Options) (*DB, error) {
	if opts.CachePages == 0 {
		opts.CachePages = 1024
	}
	if opts.CachePages < 8 {
		opts.CachePages = 8
	}
	pageSize := opts.Store.PageSize
	if pageSize == 0 {
		pageSize = 4096 // the store's own default
	}
	// One registry serves the whole stack: pagedb.* series land beside the
	// store.* and cleaner.* series the store wires up itself.
	if opts.Store.Obs == nil {
		opts.Store.Obs = obs.New()
	}
	st, err := store.Open(opts.Store)
	if err != nil {
		return nil, err
	}
	shards := opts.CacheShards
	if shards == 0 {
		shards = bufferpool.DefaultShards()
	}
	db := &DB{
		st:       st,
		pool:     bufferpool.NewSharded(opts.CachePages, shards),
		pageSize: pageSize,
		dirty:    make(map[uint32]*btree.Node),
		slots:    make([]slot, 1), // retiredRing, empty
		kept:     make(map[uint32]int32),
		scratch:  new(sync.Pool),
		trees:    make(map[string]*Tree),
	}
	db.faultMu = make([]sync.Mutex, db.pool.Shards())
	db.pool.SetEvict(db.evicted)
	db.obsReg = opts.Store.Obs
	db.hFault = db.obsReg.Histogram("pagedb.fault.ns")
	db.hCommit = db.obsReg.Histogram("pagedb.commit.ns")
	db.hBatch = db.obsReg.Histogram("pagedb.commit.pages")
	db.cEncode = db.obsReg.Counter("pagedb.node.encodes")
	db.cRecycled = db.obsReg.Counter("pagedb.node.recycled")
	db.cFresh = db.obsReg.Counter("pagedb.node.fresh")
	db.cUnrecyclable = db.obsReg.Counter("pagedb.node.unrecyclable")
	db.cDropped = db.obsReg.Counter("pagedb.node.dropped")
	db.cReadmitted = db.obsReg.Counter("pagedb.node.readmitted")
	// The pool synchronizes itself, so its counters are mirrored as
	// snapshot-time gauges read straight off the shards — no db.mu needed.
	db.obsReg.GaugeFunc("bufferpool.hits", func() int64 {
		return int64(db.pool.Stats().Hits)
	})
	db.obsReg.GaugeFunc("bufferpool.misses", func() int64 {
		return int64(db.pool.Stats().Misses)
	})
	db.obsReg.GaugeFunc("bufferpool.evictions", func() int64 {
		return int64(db.pool.Stats().Evictions)
	})
	db.obsReg.GaugeFunc("bufferpool.fused_hits", func() int64 {
		return int64(db.pool.Stats().FusedHits)
	})
	// Slow-path refaults: FetchPinned misses that found the node installed
	// once the fault mutex was acquired — each one is a duplicate
	// ReadPage+decode the old unserialized fault path would have paid.
	db.obsReg.GaugeFunc("pagedb.node.refaults", func() int64 {
		return int64(db.dupFaults.Load())
	})
	// Per-shard gauges: residency, pins and traffic per 2-bit clock region,
	// so a snapshot shows whether the page-id hash spreads load.
	for i := 0; i < db.pool.Shards(); i++ {
		i := i
		prefix := fmt.Sprintf("bufferpool.shard%d.", i)
		db.obsReg.GaugeFunc(prefix+"residents", func() int64 { return int64(db.pool.ShardStat(i).Residents) })
		db.obsReg.GaugeFunc(prefix+"pinned", func() int64 { return int64(db.pool.ShardStat(i).Pinned) })
		db.obsReg.GaugeFunc(prefix+"hits", func() int64 { return int64(db.pool.ShardStat(i).Hits) })
		db.obsReg.GaugeFunc(prefix+"misses", func() int64 { return int64(db.pool.ShardStat(i).Misses) })
		db.obsReg.GaugeFunc(prefix+"fused_hits", func() int64 { return int64(db.pool.ShardStat(i).FusedHits) })
	}

	buf := make([]byte, pageSize)
	switch err := st.ReadPage(metaPageID, buf); {
	case errors.Is(err, store.ErrNotFound):
		if st.Stats().LivePages > 0 {
			st.Close()
			return nil, fmt.Errorf("pagedb: store holds %d pages but no metadata page; not a pagedb store", st.Stats().LivePages)
		}
		db.ids = bufferpool.NewIDs(metaPageID+1, nil)
		db.metaDirty = true
	case err != nil:
		st.Close()
		return nil, err
	default:
		if err := db.decodeMeta(buf); err != nil {
			st.Close()
			return nil, err
		}
	}

	// The write-ahead commit log lives beside the store's segments. It only
	// fsyncs when the store itself runs at DurCommit — below that, logging
	// still buys replay of whatever the OS kept, but no sync guarantee, the
	// same deal the store offers. An in-memory store gets a volatile log
	// (seq assignment only: there is no crash to replay from).
	wdir := ""
	if opts.Store.Dir != "" {
		wdir = filepath.Join(opts.Store.Dir, "wal")
	}
	wl, err := wal.Open(wal.Options{
		Dir:    wdir,
		NoSync: opts.Store.Durability != core.DurCommit,
		Obs:    opts.Store.Obs,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	db.wal = wl
	if err := db.replayWAL(); err != nil {
		wl.Close()
		st.Close()
		return nil, err
	}
	// New transaction ids start past every id retained in the log, so a
	// restarted writer can never collide with tail records.
	db.txnIDs.Store(wl.MaxTxnID())
	return db, nil
}

// replayWAL re-applies every committed transaction past the checkpoint, in
// commit-seq order. Runs during Open, before the DB is shared, so it uses
// the locked helpers directly. Replay is idempotent — it redoes final
// values onto whatever state the checkpoint captured — and does NOT force
// a checkpoint of its own: the replayed state simply becomes durable at
// the next Commit, and until then every reopen replays the same tail.
func (db *DB) replayWAL() error {
	return db.wal.Replay(db.walSeq, func(txn *wal.Txn) error {
		if err := db.applyOps(txn.Ops); err != nil {
			return fmt.Errorf("pagedb: replaying txn %d (seq %d): %w", txn.ID, txn.Seq, err)
		}
		db.txns++
		db.epoch.Add(1)
		return nil
	})
}

// evicted is the buffer pool's eviction callback, running under the
// evicting shard's mutex (possibly in a reader's fault path) with the
// frame's decoded node in hand; nothing is written here. A DIRTY node stays
// in the dirty-page table, now parked: it IS the page's current state, and
// stays decoded there until a fault re-admits it (db.node) or the checkpoint
// encodes it. A CLEAN node's image is already in the store; the frame's slot
// was cleared before the callback, and eviction implies no pin, so no fused
// reader can reach the node again — it is retired: a fault's raw material
// once an exclusive acquisition of db.mu has waited out every guard hold
// that could still be reading its bytes (retire, reclaim).
func (db *DB) evicted(id uint32, obj any) {
	n := obj.(*btree.Node)
	if db.dirty[id] == n {
		db.dirtyEvicts.Add(1)
		return
	}
	db.evmu.Lock()
	db.retire(n)
	db.evmu.Unlock()
}

// lock acquires the guard exclusively — the only way this package does — and
// with every earlier hold thereby over, frees the retired nodes for reuse.
func (db *DB) lock() {
	db.mu.Lock()
	db.reclaim()
}

// CheckPinBalance verifies the pin-balance invariant the fused Fetch/
// Release protocol must preserve: between public operations, no buffer
// frame holds a pin. It takes the exclusive guard, so in-flight operations
// (which legitimately hold pins) drain first; a non-nil return means some
// completed operation leaked a pin — which would silently exempt its frame
// from eviction forever. Intended for tests and hammers; it is cheap
// (one ring scan) but excludes readers while it runs.
func (db *DB) CheckPinBalance() error {
	db.lock()
	defer db.mu.Unlock()
	if n := db.pool.Pinned(); n != 0 {
		return fmt.Errorf("pagedb: %d frames still pinned between operations", n)
	}
	return nil
}

// Commit is the checkpoint: it makes every change since the last one
// durable as one atomic store batch — all dirty pages (resident and parked),
// tombstones for freed pages, and the metadata page. On failure nothing is
// applied and every page stays dirty for the next attempt. With the store
// at core.DurCommit, Commit returns only after the batch is fsynced.
func (db *DB) Commit() error {
	t0 := time.Now()
	// The checkpoint's span tree breaks its latency into gathering the dirty
	// nodes, the atomic store batch (whose own legs nest under it via
	// ApplySpanned; encoding the nodes is part of its "store.apply" leg), and
	// the WAL truncation.
	sp := obs.StartSpan(db.obsReg, "pagedb.checkpoint")
	defer sp.End()
	leg := sp.Child("lock.wait")
	db.lock()
	defer db.mu.Unlock()
	leg.End()
	if db.closed {
		return ErrClosed
	}
	err := db.commitLocked(sp)
	db.hCommit.Record(uint64(time.Since(t0)))
	return err
}

// commitLocked runs the checkpoint under db.mu. sp, when non-nil, is the
// caller's root span; the checkpoint legs attach to it (Close passes nil —
// shutdown latency is not an operation worth capturing).
func (db *DB) commitLocked(sp *obs.Span) error {
	// Everything the log committed so far is applied to the trees (Txn
	// apply happens under db.mu, which we hold), so the batch this commit
	// writes covers every seq up to here — the checkpoint watermark the
	// metadata page records and the log truncates past.
	ck := db.wal.Seq()

	// Gather the dirty-page table, still decoded: its nodes, resident and
	// parked, go into the batch; a freed page gets a tombstone only if it
	// exists in the store (one allocated and freed between commits never
	// reached it). The table stays as it is until the batch is applied, so a
	// checkpoint that fails has nothing to undo.
	leg := sp.Child("gather")
	nodes := make([]*btree.Node, 0, len(db.dirty))
	var dels []uint32
	for id, n := range db.dirty {
		if n != nil {
			nodes = append(nodes, n)
		} else if db.st.Has(id) {
			dels = append(dels, id)
		}
	}
	leg.End()
	if len(nodes) == 0 && len(dels) == 0 && !db.metaDirty {
		return nil
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	sort.Slice(dels, func(i, j int) bool { return dels[i] < dels[j] })

	meta, ovf, err := db.encodeMeta(ck)
	if err != nil {
		return err
	}
	// The free list / registry changed: rewrite the overflow chain and
	// tombstone pages the (shrunken) chain no longer uses. When the meta is
	// clean the chain's durable images are already current.
	novf := len(ovf)
	var ovfDels []uint32
	if db.metaDirty {
		for j := novf; j < db.metaOvf; j++ {
			if id := metaOverflowBase + uint32(j); db.st.Has(id) {
				ovfDels = append(ovfDels, id)
			}
		}
	} else {
		ovf = nil
	}

	// The batch carries each dirty page's id and its image's length (the store
	// keeps a page at the length it is written, so a half-empty node costs
	// half a page); inside Apply the fill function encodes the node straight
	// into the store's run buffer. Whatever could make a node unencodable is
	// found here, with nothing written, so the fill cannot fail.
	b := db.batch
	db.batch = nil // a checkpoint that fails lets it go, fill and all
	if b == nil {
		b = store.NewBatch()
	}
	b.SetFill(func(i int, dst []byte) {
		btree.EncodeNode(dst, nodes[i]) // the nodes were reserved first, in order
		db.cEncode.Inc()
	})
	for _, n := range nodes {
		size, err := n.ImageBytes(db.pageSize)
		if err != nil {
			// An unpersistable page (an internal invariant failure) fails
			// every checkpoint until it is rewritten or freed: omitting it
			// would persist a tree referencing an image the store never got.
			return fmt.Errorf("pagedb: encoding page %d: %w", n.ID, err)
		}
		b.Reserve(n.ID, size)
	}
	for _, id := range dels {
		b.Delete(id)
	}
	for j, img := range ovf {
		b.Write(metaOverflowBase+uint32(j), img)
	}
	for _, id := range ovfDels {
		b.Delete(id)
	}
	// The metadata page is the commit's terminal member: tearing it (or any
	// other member) rolls the whole batch back on recovery.
	b.Write(metaPageID, meta)

	if err := db.st.ApplySpanned(b, sp); err != nil {
		return err
	}
	// The batch is kept for the next checkpoint, holding no node, unless it
	// grew past what the recycling lists may hold: a load's batch is let go.
	if b.Len() <= db.pool.Capacity() {
		b.SetFill(nil)
		b.Reset()
		db.batch = b
	}
	// The parked nodes — those whose frame handle is no longer current — are
	// written, and unreachable from here on: retired.
	db.evmu.Lock()
	for _, n := range nodes {
		if !n.Pin.Current() {
			db.retire(n)
		}
	}
	db.evmu.Unlock()
	clear(db.dirty)
	db.metaDirty = false
	db.metaOvf = novf
	db.commits++
	images := len(nodes) + len(ovf) + 1
	db.commitPages += uint64(images)
	db.hBatch.Record(uint64(images))
	db.epoch.Add(1)
	// The checkpoint is durable (under DurCommit, Apply group-fsynced it):
	// only NOW may the log let go of the transactions it covers. Truncating
	// any earlier could lose acknowledged commits to a torn batch.
	if ck > db.walSeq {
		db.walSeq = ck
		leg = sp.Child("wal.truncate")
		err := db.wal.Truncate(ck)
		leg.End()
		if err != nil {
			return fmt.Errorf("pagedb: commit durable, but truncating the wal failed: %w", err)
		}
	}
	return nil
}

// Sync flushes the backing store (an explicit durability point for stores
// running below core.DurCommit).
func (db *DB) Sync() error {
	db.lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.st.Sync()
}

// Close commits outstanding changes and shuts the store down (checkpoint
// included). The DB is unusable afterwards, even on error.
func (db *DB) Close() error {
	db.lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	err := db.commitLocked(nil)
	db.closed = true
	if werr := db.wal.Close(); err == nil && !errors.Is(werr, wal.ErrClosed) {
		err = werr
	}
	if cerr := db.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is a snapshot of the engine's counters across its layers.
type Stats struct {
	// Pool is the node-cache (buffer pool) snapshot, its DirtyEvictions
	// filled from StagedEvictions.
	Pool bufferpool.Stats
	// Store is the backing page store snapshot: occupancy, write
	// amplification, cleaner lifecycle, per-stream occupancy.
	Store store.Stats
	// Trees is the number of named trees.
	Trees int
	// Commits counts successful Commit batches; CommittedPages the page
	// images they carried (meta included).
	Commits        uint64
	CommittedPages uint64
	// Faults counts node-cache misses served from the store: a miss that
	// re-admits a parked or listed node reads nothing, and is not one.
	Faults uint64
	// StagedEvictions counts dirty evictions: each time the pool evicted a
	// node of the dirty-page table, which parks it (a page evicted,
	// re-admitted and evicted again between two checkpoints counts each
	// time).
	StagedEvictions uint64
	// DupFaultsAvoided counts reads that missed, queued on the fault mutex,
	// and found the page already faulted by a concurrent reader — each one a
	// ReadPage+decode NOT paid twice.
	DupFaultsAvoided uint64
	// Txns counts committed transactions applied to the trees (Txn.Commit
	// and WAL replay both count).
	Txns uint64
	// Epoch is the read-snapshot epoch: bumped once per applied transaction
	// and once per checkpoint, so two View calls observing the same epoch
	// saw the same committed state.
	Epoch uint64
	// WAL summarizes the write-ahead commit log (group-commit coalescing,
	// truncations, durability watermark).
	WAL wal.Stats
}

// Obs returns the database's metrics registry (always non-nil), shared
// with the backing store and its cleaner: pagedb.*, store.*, cleaner.*
// and bufferpool.* series plus the trace events.
func (db *DB) Obs() *obs.Registry { return db.obsReg }

// Stats returns a snapshot of the database counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pool := db.pool.Stats()
	pool.DirtyEvictions = db.dirtyEvicts.Load()
	return Stats{
		Pool:             pool,
		Store:            db.st.Stats(),
		Trees:            len(db.trees),
		Commits:          db.commits,
		CommittedPages:   db.commitPages,
		Faults:           db.faults.Load(),
		StagedEvictions:  pool.DirtyEvictions,
		DupFaultsAvoided: db.dupFaults.Load(),
		Txns:             db.txns,
		Epoch:            db.epoch.Load(),
		WAL:              db.wal.Stats(),
	}
}

// ovfHeaderBytes is the overflow page header: magic (8) | count (4).
const ovfHeaderBytes = 12

// metadata layout (little-endian), format 3:
//
//	page 0:     magic (8) | nextID (4) | ntrees (4) | nfree (4, total) |
//	            novf (4) | walSeq (8), then per tree: nameLen (2) | name |
//	            root (4) | height (4) | count (8), then free ids (4 each)
//	            up to the end of the page
//	overflow j: magic (8) | count (4) | free ids (4 each), stored at page
//	            metaOverflowBase+j
//
// walSeq is the WAL checkpoint watermark: every transaction with commit
// seq ≤ walSeq is captured by the page state this metadata page commits,
// so Open replays only the seqs beyond it.
//
// The free list never truncates: ids that do not fit page 0 spill into
// overflow pages at reserved high page ids, committed as members of the
// same atomic batch as the meta page, so DropTree- and merge-freed ids
// survive reopen no matter how many there are.
func (db *DB) encodeMeta(walSeq uint64) (meta []byte, ovf [][]byte, err error) {
	if db.ids.Next() >= metaOverflowBase {
		return nil, nil, fmt.Errorf("pagedb: page id space exhausted (next id %d reaches the metadata overflow range)", db.ids.Next())
	}
	buf := make([]byte, 0, db.pageSize)
	buf = append(buf, metaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, db.ids.Next())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(db.order)))
	free := db.ids.FreeList()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(free)))
	novfOff := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // patched below
	buf = binary.LittleEndian.AppendUint64(buf, walSeq)
	for _, name := range db.order {
		t := db.trees[name]
		if len(name) > 0xFFFF {
			return nil, nil, fmt.Errorf("pagedb: tree name %q too long", name)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = binary.LittleEndian.AppendUint32(buf, t.core.Root())
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.core.Height()))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.core.Len()))
	}
	if len(buf) > db.pageSize {
		return nil, nil, fmt.Errorf("pagedb: metadata (%d trees) exceeds the %d-byte page", len(db.order), db.pageSize)
	}
	// The free list's first chunk fills page 0's remainder; the rest spills
	// into overflow pages.
	n := 0
	for ; n < len(free) && len(buf)+4 <= db.pageSize; n++ {
		buf = binary.LittleEndian.AppendUint32(buf, free[n])
	}
	perPage := (db.pageSize - ovfHeaderBytes) / 4
	for n < len(free) {
		chunk := free[n:]
		if len(chunk) > perPage {
			chunk = chunk[:perPage]
		}
		img := make([]byte, ovfHeaderBytes+4*len(chunk))
		copy(img, ovfMagic)
		binary.LittleEndian.PutUint32(img[8:12], uint32(len(chunk)))
		off := ovfHeaderBytes
		for _, id := range chunk {
			binary.LittleEndian.PutUint32(img[off:], id)
			off += 4
		}
		ovf = append(ovf, img)
		n += len(chunk)
	}
	if len(ovf) > int(^uint32(0)-metaOverflowBase) {
		return nil, nil, fmt.Errorf("pagedb: free list of %d ids exceeds the overflow page range", len(free))
	}
	binary.LittleEndian.PutUint32(buf[novfOff:], uint32(len(ovf)))
	return buf, ovf, nil
}

func (db *DB) decodeMeta(img []byte) error {
	const hdr = 32
	if len(img) < hdr || string(img[:8]) != metaMagic {
		if len(img) >= 8 && string(img[:7]) == metaMagic[:7] {
			return fmt.Errorf("pagedb: store uses the obsolete metadata format %q; rebuild it with the current version", img[:8])
		}
		return fmt.Errorf("pagedb: malformed metadata page")
	}
	db.walSeq = binary.LittleEndian.Uint64(img[24:32])
	nextID := binary.LittleEndian.Uint32(img[8:12])
	ntrees := int(binary.LittleEndian.Uint32(img[12:16]))
	nfree := int(binary.LittleEndian.Uint32(img[16:20]))
	novf := int(binary.LittleEndian.Uint32(img[20:24]))
	// Plausibility bounds before any allocation: there cannot be more free
	// ids than allocated ids, and every overflow page holds at least one id.
	if uint64(nfree) > uint64(nextID) || novf > nfree {
		return fmt.Errorf("pagedb: malformed free list header (%d ids, %d overflow pages, next id %d)", nfree, novf, nextID)
	}
	off := hdr
	for i := 0; i < ntrees; i++ {
		if off+2 > len(img) {
			return fmt.Errorf("pagedb: truncated tree registry")
		}
		nameLen := int(binary.LittleEndian.Uint16(img[off:]))
		off += 2
		if off+nameLen+16 > len(img) {
			return fmt.Errorf("pagedb: truncated tree registry entry %d", i)
		}
		name := string(img[off : off+nameLen])
		off += nameLen
		root := binary.LittleEndian.Uint32(img[off:])
		height := int(binary.LittleEndian.Uint32(img[off+4:]))
		count := int(binary.LittleEndian.Uint64(img[off+8:]))
		off += 16
		if root == metaPageID || root >= nextID || height < 1 {
			return fmt.Errorf("pagedb: tree %q has invalid root %d (next id %d)", name, root, nextID)
		}
		if _, dup := db.trees[name]; dup {
			return fmt.Errorf("pagedb: duplicate tree %q in metadata", name)
		}
		t := &Tree{
			db:   db,
			name: name,
			core: btree.LoadCore(nodeStore{db}, db.pageSize, btree.PageLayout, root, height, count),
		}
		db.trees[name] = t
		db.order = append(db.order, name)
	}
	free := make([]uint32, 0, nfree)
	takeID := func(src []byte, off int) error {
		id := binary.LittleEndian.Uint32(src[off:])
		if id == metaPageID || id >= nextID {
			return fmt.Errorf("pagedb: invalid free page id %d", id)
		}
		free = append(free, id)
		return nil
	}
	// Page 0's chunk runs to the end of the page (mirroring encodeMeta's
	// fill rule), then the overflow chain supplies the rest.
	for len(free) < nfree && off+4 <= len(img) {
		if err := takeID(img, off); err != nil {
			return err
		}
		off += 4
	}
	for j := 0; j < novf; j++ {
		opg := make([]byte, db.pageSize)
		if err := db.st.ReadPage(metaOverflowBase+uint32(j), opg); err != nil {
			return fmt.Errorf("pagedb: reading free-list overflow page %d: %w", j, err)
		}
		if len(opg) < ovfHeaderBytes || string(opg[:8]) != ovfMagic {
			return fmt.Errorf("pagedb: malformed free-list overflow page %d", j)
		}
		count := int(binary.LittleEndian.Uint32(opg[8:12]))
		if ovfHeaderBytes+4*count > len(opg) || len(free)+count > nfree {
			return fmt.Errorf("pagedb: free-list overflow page %d overruns (%d ids)", j, count)
		}
		for i := 0; i < count; i++ {
			if err := takeID(opg, ovfHeaderBytes+4*i); err != nil {
				return err
			}
		}
	}
	if len(free) != nfree {
		return fmt.Errorf("pagedb: free list truncated: %d of %d ids recovered", len(free), nfree)
	}
	db.metaOvf = novf
	db.ids = bufferpool.NewIDs(nextID, free)
	return nil
}
