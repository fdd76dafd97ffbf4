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
//	          ├── fault: miss -> parked node (dirty-page table), else
//	          │          Store.ReadRecord into a recycled node's buffer ->
//	          │          btree.ParseNode, in place
//	          └── dirty-page table: every node changed since the last
//	              checkpoint, resident or parked DECODED after eviction
//	                └── checkpoint (Commit): the table's nodes, each
//	                    encoded ONCE, by the store, into the run buffer
//	                    of one atomic store.Batch (pages + frees + meta)
//	                      └── internal/store: log-structured placement,
//	                          user and GC streams, background cleaning, recovery
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
// it lies: a leaf's entries stay there, in the page format, and every change
// to them writes or moves bytes there. Going out, the checkpoint's batch
// carries a page's id and length only, and the store has the node encoded
// straight into the run buffer its segment write goes out from: the header,
// then one copy of the entries. File → node buffer → run buffer → file; no
// image, arena or per-value copy in between.
//
// The buffer, the node and its arrays are recycled. A node that becomes
// unreachable — evicted clean, or parked and now written — is RETIRED; a fault
// takes a node of its size from the FREE list; and what moves nodes from the
// one to the other is every exclusive acquisition of the guard (lock). That is
// a quiescence point because the guard is already what a reader's slices live
// under: a value returned by Core.Get and a Scan callback's argument are
// both used and dropped within one hold of the read side, so once an
// exclusive acquisition has waited those holds out, nothing can still be
// reading a node retired before it. No node holds memory of another — a split,
// borrow or merge copies entries between buffers — so every such node can be
// recycled. The lists are memory, not a second cache: a fault on a listed
// node's old page reads the store. A fault takes the free node with the
// smallest buffer that holds its record, since a leaf's spare room is where its
// inserts grow. The lists hold at most as many nodes as the last checkpoint
// wrote pages (at least 64), and never more than CachePages: a checkpoint
// retires every parked node it writes at once, and the next interval's faults
// are what needs them, while a workload whose checkpoints write little keeps no
// more than that. What the bound turns away is counted (pagedb.node.dropped).
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
// encoded, has the store encode each exactly once inside Apply — a based leaf
// with small changes as its delta page (below) — tombstones the freed pages
// the store holds, and only then clears the table and retires the parked
// nodes. A checkpoint that fails — that check or store
// Apply — leaves the table as it was, so the next attempt starts from the
// same dirty set.
//
// # Delta pages
//
// The store's page ids split in two: ids below 1<<31 are pages, and id
// |1<<31 (deltaBit) is the companion of page id, its delta page, so the store
// keeps one version per id. A leaf the store holds an image of is based
// (btree.Node.Based), and the Core notes each key it puts or deletes there.
// While one more delta still lowers the leaf's mean bytes per write since its
// image — n keys changed, a delta of d bytes, an image of s: (n+1)·d ≤ 2·s —
// the checkpoint writes those entries (each key's current entry, or its
// deletion) as one cumulative delta page under the companion id, and the
// image stays as it was. Anything else is written in full, its companion
// tombstoned in the same batch: a branch, a leaf new since the last
// checkpoint or split, merged or borrowed from, or one past the rule or its
// eight keys (a rebase). So a leaf of 110-byte entries rebases after five
// keys, a half-full one of TPC-C's 306-byte stock rows after two, and one
// whose one key keeps changing never. A fault reads the image,
// then applies the companion over it if the store holds one (a same-length
// value is a copy) and restores the change set from it. A freed page's
// companion is tombstoned with it; Open's page accounting and free-list
// derivation count a companion with its page, and ids at or above 1<<31 are
// never allocated. Builds whose change set held four keys share the meta
// magic but not the store: they open one with a delta page of five to eight
// keys, then fail that leaf's fault with a read error.
//
// # Durability and crash atomicity
//
// Transactions (Begin/Txn, txn.go) are the unit of durability: a
// Txn.Commit appends its ops to the write-ahead log (internal/wal), applies
// them to the trees — each run of puts to one tree a leaf at a time, one
// descent per leaf, a split climbing the path that descent holds
// (btree.Core.InsertRun), as replay does too — and waits
// for the log's group fsync; Open replays the log's tail. The checkpoint
// bounds that replay: Commit writes every dirty page image, every page freed
// by structural changes, and the metadata page as ONE store.Batch and
// applies it atomically — under core.DurCommit the batch is group-fsynced
// and recovery discards a torn batch wholesale, so the page state always
// reopens as some prefix of the checkpoint history, never a half-applied one
// — and then truncates the log up to the commit seq the batch covers. Direct tree writes (Tree.Put/Delete) bypass
// the log and become durable at the next checkpoint.
//
// The metadata page (page id 0, never cached) records the named-tree
// registry (root, height, count per tree), the next page id and the WAL seq
// the checkpoint covers, so Open recovers every tree from the store — each leaf
// as its image and its delta page, written in the same atomic batches — and
// the log's tail. The free list is not persisted: a checkpoint writes every
// allocated page and tombstones every freed one in the same batch, so the
// free ids are those below the next id that the store does not hold.
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
// torn reads. A Scan holds the guard for its whole range, so it sees one
// committed state: a multi-key read that must be consistent is one Scan.
// Writers (Put, Delete, Commit, tree DDL, Close) serialize on the write
// side exactly as the old single-mutex engine did. Scan callbacks must not
// call back into the DB.
package pagedb

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
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
var ErrTooLarge = btree.ErrTooLarge

// metaPageID is the reserved store page holding the database metadata. It
// doubles as the nil page id (leaf chains end at 0), so no tree node may
// ever be allocated there.
const metaPageID = 0

// metaMagic identifies a pagedb metadata page (format 5: the registry, the
// next page id and the WAL checkpoint seq; no free list; leaves may have
// delta pages).
const metaMagic = "PGDBMET5"

// deltaBit marks a companion id: store page id|deltaBit is the delta page of
// leaf id, which the checkpoint writes in place of the leaf's image while its
// changes are small (see the package comment). Page ids stay below it.
const deltaBit = 1 << 31

// Options configures Open.
type Options struct {
	// Store configures the backing log-structured page store: directory,
	// geometry, cleaning algorithm (routed ones are refused), background
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
// request runs under the store's read lock and takes it). evmu is never held
// across a pool or a store call.
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
	faultMu []faultShard

	// dirty is the dirty-page table: every page changed since the last
	// checkpoint, keyed by id. The value is the page's decoded node —
	// resident while n.Pin is current, parked (the ONLY copy of the page's
	// state) once the pool has evicted it — or nil for a page freed since.
	// Writers change it under db.mu's write side; faults (a re-admission
	// looks its parked node up) and the eviction callback only read it,
	// holding either side.
	dirty map[uint32]*btree.Node

	// The recycling lists (see the package comment and node.go), under evmu:
	// the retired nodes, and the free ones in classes of ascending buffer
	// capacity. Together they hold listed nodes, at most keep: what the last
	// checkpoint wrote, at least 64 however little that is, at most
	// CachePages.
	evmu    sync.Mutex
	retired []*btree.Node
	free    []freeClass
	listed  int
	keep    int

	trees map[string]*Tree // named-tree registry
	order []string         // registry in creation order (meta determinism)

	batch     *store.Batch  // the last checkpoint's, emptied, for the next
	ckNodes   []*btree.Node // the checkpoint's dirty nodes, kept emptied like batch
	ckDels    []uint32      // and the pages it tombstones
	metaBuf   []byte        // and the metadata page's encoding
	metaDirty bool
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
	// pagedb.node.{recycled,fresh,dropped}: faults that parsed into a free
	// node, faults that allocated, nodes retire let go because the lists were
	// full.
	cRecycled, cFresh, cDropped *obs.Counter
	// pagedb.delta.{pages,bytes,rebases,applies}: delta pages the checkpoints
	// wrote and their bytes, pages written in full over a delta page (which is
	// tombstoned), and faults that applied one.
	cDeltas, cDeltaBytes, cRebases, cApplies *obs.Counter
}

// faultShard is one pool shard's fault mutex, and the buffer its faults read
// a delta page into.
type faultShard struct {
	sync.Mutex
	delta []byte
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
		keep:     min(64, opts.CachePages),
		scratch:  new(sync.Pool),
		trees:    make(map[string]*Tree),
	}
	db.faultMu = make([]faultShard, db.pool.Shards())
	db.pool.SetEvict(db.evicted)
	db.obsReg = opts.Store.Obs
	db.hFault = db.obsReg.Histogram("pagedb.fault.ns")
	db.hCommit = db.obsReg.Histogram("pagedb.commit.ns")
	db.hBatch = db.obsReg.Histogram("pagedb.commit.pages")
	db.cEncode = db.obsReg.Counter("pagedb.node.encodes")
	db.cRecycled = db.obsReg.Counter("pagedb.node.recycled")
	db.cFresh = db.obsReg.Counter("pagedb.node.fresh")
	db.cDropped = db.obsReg.Counter("pagedb.node.dropped")
	db.cDeltas = db.obsReg.Counter("pagedb.delta.pages")
	db.cDeltaBytes = db.obsReg.Counter("pagedb.delta.bytes")
	db.cRebases = db.obsReg.Counter("pagedb.delta.rebases")
	db.cApplies = db.obsReg.Counter("pagedb.delta.applies")
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
// the next Commit, and until then every reopen replays the same tail. The
// checkpoint's seq is also the log's floor: a truncation issues no fsync, so
// a crash can leave the log below it, and Replay restarts it there — the next
// transaction is numbered past the checkpoint, and the next reopen replays it.
func (db *DB) replayWAL() error {
	return db.wal.Replay(db.walSeq, func(txn *wal.Txn) error {
		if err := db.applyOps(txn.Ops); err != nil {
			return fmt.Errorf("pagedb: replaying txn %d (seq %d): %w", txn.ID, txn.Seq, err)
		}
		db.txns++
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
	// parked, go into the batch; a freed page, and its delta page, get a
	// tombstone only if they exist in the store (one allocated and freed
	// between commits never reached it). The table stays as it is until the
	// batch is applied, so a checkpoint that fails has nothing to undo.
	leg := sp.Child("gather")
	nodes, dels := slices.Grow(db.ckNodes[:0], len(db.dirty)), db.ckDels[:0]
	for id, n := range db.dirty {
		if n != nil {
			nodes = append(nodes, n)
			continue
		}
		for _, p := range [2]uint32{id, id | deltaBit} {
			if db.st.Has(p) {
				dels = append(dels, p)
			}
		}
	}
	db.ckNodes = nodes // fill's
	leg.End()
	if len(nodes) == 0 && len(dels) == 0 && !db.metaDirty {
		return nil
	}
	slices.SortFunc(nodes, func(a, b *btree.Node) int { return cmp.Compare(a.ID, b.ID) })

	meta, err := db.encodeMeta(ck)
	if err != nil {
		return err
	}

	// The batch carries each dirty page's id and its length (the store keeps a
	// page at the length it is written, so a half-empty node costs half a
	// page); inside Apply the fill function encodes the node straight into the
	// store's run buffer. A based leaf with an image of s bytes, n keys changed
	// and a delta page of d is written as that page instead while
	// (n+1)·d ≤ 2·s. A delta is cumulative: a leaf that gains an e-byte key a
	// checkpoint pays e·k(k+1)/2 + s over k deltas and one image, least per
	// write near (k+1)²·e = 2s, and one whose same key keeps changing grows
	// neither n nor d. Any other node is written in full, tombstoning its delta
	// page. Whatever could make a node unencodable is found here, with nothing
	// written, so the fill cannot fail.
	b := db.batch
	db.batch = nil // a checkpoint that fails lets it go
	if b == nil {
		b = store.NewBatch()
		b.SetFill(db.fill)
	}
	var deltas, deltaBytes, rebases uint64
	for _, n := range nodes {
		size, err := n.ImageBytes(db.pageSize)
		if err != nil {
			// An unpersistable page (an internal invariant failure) fails
			// every checkpoint until it is rewritten or freed: omitting it
			// would persist a tree referencing an image the store never got.
			return fmt.Errorf("pagedb: encoding page %d: %w", n.ID, err)
		}
		if d := n.DeltaBytes(); d > 0 && (int(n.NChanged)+1)*d <= 2*size {
			b.Reserve(n.ID|deltaBit, d)
			deltas, deltaBytes = deltas+1, deltaBytes+uint64(d)
			continue
		}
		n.Based = false // written in full: fill encodes the image
		b.Reserve(n.ID, size)
		if db.st.Has(n.ID | deltaBit) { // the leaf's, or a freed page's the id had
			dels = append(dels, n.ID|deltaBit)
			rebases++
		}
	}
	slices.Sort(dels)
	for _, id := range dels {
		b.Delete(id)
	}
	// The metadata page is the commit's terminal member: tearing it (or any
	// other member) rolls the whole batch back on recovery.
	b.Write(metaPageID, meta)

	if err := db.st.ApplySpanned(b, sp); err != nil {
		return err
	}
	db.cDeltas.Add(deltas)
	db.cDeltaBytes.Add(deltaBytes)
	db.cRebases.Add(rebases)
	// The batch and the gather slices are kept for the next checkpoint, the
	// slices holding no node, unless they grew past what the recycling lists
	// may hold: a load's are let go.
	if b.Len() <= db.pool.Capacity() {
		b.Reset()
		db.batch, db.ckDels = b, dels[:0]
	} else {
		db.ckNodes, db.ckDels = nil, nil
	}
	// A node written in full is based on its new image, with nothing changed.
	// The parked nodes — those whose frame handle is no longer current — are
	// written, and unreachable from here on: retired, into lists as long as
	// this checkpoint, which is what the next interval's faults can use.
	db.evmu.Lock()
	db.keep = min(max(64, len(nodes)), db.pool.Capacity())
	for _, n := range nodes {
		if !n.Based {
			n.Based, n.NChanged = n.Leaf, 0
		}
		if !n.Pin.Current() {
			db.retire(n)
		}
	}
	db.evmu.Unlock()
	clear(nodes)
	clear(db.dirty)
	db.metaDirty = false
	db.commits++
	images := len(nodes) + 1
	db.commitPages += uint64(images)
	db.hBatch.Record(uint64(images))
	// The checkpoint is durable (under DurCommit, Apply group-fsynced it):
	// only NOW may the log let go of the transactions it covers. Truncating
	// any earlier could lose acknowledged commits to a torn batch. ck is
	// Seq() under db.mu, so the log empties its file, with no fsync.
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

// fill is the checkpoint batch's fill function: reserved write i is the i-th
// node the checkpoint gathered (they are reserved first, in order), as its
// delta page if it is still based, or else its image.
func (db *DB) fill(i int, dst []byte) {
	if n := db.ckNodes[i]; n.Based {
		btree.EncodeDelta(dst, n)
	} else {
		btree.EncodeNode(dst, n)
	}
	db.cEncode.Inc()
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
	// re-admits a parked node reads nothing, and is not one.
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
		WAL:              db.wal.Stats(),
	}
}

// metadata layout (little-endian), format 5, page 0:
//
//	magic (8) | nextID (4) | ntrees (4) | walSeq (8), then per tree:
//	nameLen (2) | name | root (4) | height (4) | count (8)
//
// walSeq is the WAL checkpoint watermark: every transaction with commit
// seq ≤ walSeq is captured by the page state this metadata page commits,
// so Open replays only the seqs beyond it. Delta pages are not listed: Open
// counts them when it reads the store.
func (db *DB) encodeMeta(walSeq uint64) ([]byte, error) {
	if next := db.ids.Next(); next > deltaBit || next == metaPageID {
		return nil, fmt.Errorf("pagedb: page id space exhausted (next id %d)", next)
	}
	buf := append(db.metaBuf[:0], metaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, db.ids.Next())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(db.order)))
	buf = binary.LittleEndian.AppendUint64(buf, walSeq)
	for _, name := range db.order {
		t := db.trees[name]
		if len(name) > 0xFFFF {
			return nil, fmt.Errorf("pagedb: tree name %q too long", name)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = binary.LittleEndian.AppendUint32(buf, t.core.Root())
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.core.Height()))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.core.Len()))
	}
	if len(buf) > db.pageSize {
		return nil, fmt.Errorf("pagedb: metadata (%d trees) exceeds the %d-byte page", len(db.order), db.pageSize)
	}
	db.metaBuf = buf[:0] // the batch copies it
	return buf, nil
}

// decodeMeta loads the registry and rebuilds the allocator: the free ids are
// those below nextID the store does not hold (the checkpoint that wrote img
// wrote every allocated page and tombstoned every freed one), listed highest
// first so the lowest is handed out first. The store must then hold exactly
// the meta page, the allocated ones and delta pages of allocated ones: a page
// at or above nextID would be overwritten once the allocator reached its id.
func (db *DB) decodeMeta(img []byte) error {
	const hdr = 24
	if len(img) < hdr || string(img[:8]) != metaMagic {
		if len(img) >= 8 && string(img[:7]) == metaMagic[:7] {
			return fmt.Errorf("pagedb: store uses the obsolete metadata format %q; rebuild it with the current version", img[:8])
		}
		return fmt.Errorf("pagedb: malformed metadata page")
	}
	nextID := binary.LittleEndian.Uint32(img[8:12])
	ntrees := int(binary.LittleEndian.Uint32(img[12:16]))
	db.walSeq = binary.LittleEndian.Uint64(img[16:24])
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
		db.trees[name] = &Tree{db: db, core: btree.LoadCore(nodeStore{db}, db.pageSize, btree.PageLayout, root, height, count)}
		db.order = append(db.order, name)
	}
	var free []uint32
	deltas := 0
	for id := nextID; id > metaPageID+1; id-- {
		if !db.st.Has(id - 1) {
			free = append(free, id-1)
		} else if db.st.Has(id - 1 | deltaBit) {
			deltas++
		}
	}
	// The meta page plus ids [1, nextID) less the free ones, and their deltas.
	if live, want := db.st.Stats().LivePages, int(nextID)-len(free)+deltas; live != want {
		return fmt.Errorf("pagedb: store holds %d pages, but the metadata page accounts for %d (next id %d, %d free, %d delta pages)", live, want, nextID, len(free), deltas)
	}
	db.ids = bufferpool.NewIDs(nextID, free)
	return nil
}
