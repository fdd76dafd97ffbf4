// Package wal is pagedb's redo log: one CRC-framed frame per transaction
// (record.go has the format), generation files rotated at each checkpoint,
// and a group commit that makes one fsync serve every committer ready for
// it. A round's leader holds the round's start until the committers the last
// round released have appended again, for at most that round's fsync time;
// a sole committer is never held, so it pays nothing for the rule. A failed
// fsync poisons the log: no later Append, Commit or Truncate succeeds.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// ErrTooLarge is returned by Append for a transaction whose frame would
// exceed the bound the scan accepts; nothing of it is written.
var ErrTooLarge = errors.New("wal: transaction too large for one frame")

// Options configures Open.
type Options struct {
	// Dir holds the generation files. Empty means volatile mode: Append
	// assigns commit seqs and Commit returns immediately, but nothing is
	// written — the mode pagedb uses over an in-memory store, where there
	// is no crash to recover from.
	Dir string

	// NoSync skips every fsync. Commit acknowledges as soon as the OS has
	// the bytes; a crash can lose acknowledged transactions (matching the
	// store's weaker durability levels).
	NoSync bool

	// Obs receives wal.append.ns / wal.fsync.ns / wal.commit.ns latency
	// histograms and the group-commit counters. Nil disables metrics.
	Obs *obs.Registry
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	Seq         uint64 // last assigned commit seq
	Durable     uint64 // highest commit seq known fsynced
	Generation  uint64 // current generation number
	Generations int    // generation files on disk
	Commits     uint64 // Commit waits served
	Rounds      uint64 // group-fsync rounds run
	Syncs       uint64 // fsync syscalls issued by rounds: one a round
	Truncations uint64 // checkpoint rotations
}

type genInfo struct {
	gen     uint64
	baseSeq uint64
	path    string
}

// fsyncRound is one in-flight group fsync; waiters block on done and read
// err after it closes.
type fsyncRound struct {
	done chan struct{}
	err  error
}

// Log is an append-only redo log of committed transactions. One writer at
// a time may Append (callers serialize — pagedb appends under its write
// lock so commit-seq order is exactly apply order); any number of
// goroutines may Commit concurrently, coalescing onto shared fsync rounds
// exactly like the store's DurCommit group commit; a round's leader first
// holds its start for the committers the last round released (hold).
//
// Lock order: flushMu → mu → gs.mu. flushMu is held across every fsync
// and across Truncate's rotation, so rotation never closes a file an
// fsync round still holds; appends take only mu and therefore proceed
// while a round is syncing — that overlap is the group-commit win.
type Log struct {
	dir    string // "" in volatile mode
	noSync bool

	flushMu sync.Mutex

	mu     sync.Mutex
	f      *os.File // nil in volatile mode
	gens   []genInfo
	seq    uint64
	maxTxn uint64
	names  map[string]uint32 // tree-name interning, reset each generation
	nextID uint32
	buf    []byte // staging buffer: one transaction, one Write
	closed bool
	err    error // sticky: a torn in-place write or a failed fsync poisons the log

	// A round's leader holds on these (hold); one leader holds at a time.
	appended  chan struct{} // capacity 1: an append, close or poison wakes it
	holdTimer *time.Timer

	gs struct {
		mu      sync.Mutex
		durable uint64
		cur     *fsyncRound
		// The last round that made anything durable released k seqs, at log
		// seq end, after an fsync that took took: the next leader holds on it.
		k, end  uint64
		took    time.Duration
		commits uint64
		rounds  uint64
	}

	truncations uint64

	// fsyncDelay is an injected artificial delay (nanos) applied before
	// each fsync syscall — a fault hook for making group-commit rounds
	// deterministically slow in tests. Zero (the default) disables it.
	fsyncDelay atomic.Int64

	hAppend  *obs.Histogram
	hFsync   *obs.Histogram
	hCommit  *obs.Histogram
	cCommits *obs.Counter
	cRounds  *obs.Counter
	cTrunc   *obs.Counter
	cBytes   *obs.Counter // wal.append.bytes: frame bytes appended (generation headers excluded)
	cHeld    *obs.Counter // wal.commit.held: rounds whose start was held
	cHoldNs  *obs.Counter // wal.commit.hold.ns: the time they were held
}

func genPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", gen))
}

// Open opens (or creates) the log in opts.Dir, repairing the tail: the
// final generation is physically truncated to the end of its last good
// frame, so a torn final transaction vanishes wholesale before the writer
// ever appends again. A generation file of another format version is
// refused, and left as it is.
func Open(opts Options) (*Log, error) {
	l := &Log{
		dir:       opts.Dir,
		noSync:    opts.NoSync,
		names:     make(map[string]uint32),
		nextID:    1,
		appended:  make(chan struct{}, 1),
		holdTimer: time.NewTimer(time.Hour),
		hAppend:   opts.Obs.Histogram("wal.append.ns"),
		hFsync:    opts.Obs.Histogram("wal.fsync.ns"),
		hCommit:   opts.Obs.Histogram("wal.commit.ns"),
		cCommits:  opts.Obs.Counter("wal.commit.commits"),
		cRounds:   opts.Obs.Counter("wal.commit.rounds"),
		cTrunc:    opts.Obs.Counter("wal.truncations"),
		cBytes:    opts.Obs.Counter("wal.append.bytes"),
		cHeld:     opts.Obs.Counter("wal.commit.held"),
		cHoldNs:   opts.Obs.Counter("wal.commit.hold.ns"),
	}
	l.holdTimer.Stop()
	if l.dir == "" {
		return l, nil
	}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// listGens returns the generation files in ascending generation order.
func listGens(dir string) ([]genInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var gens []genInfo
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
		if err != nil {
			continue
		}
		gens = append(gens, genInfo{gen: g, path: filepath.Join(dir, name)})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].gen < gens[j].gen })
	return gens, nil
}

// recover scans the generation files, establishes seq/maxTxn/bindings,
// and repairs the tail. A generation that does not scan clean — or whose
// header does not chain from its predecessor — becomes the effective
// final generation: it is truncated to its last good frame and every
// later file is deleted. Under DurCommit only the true final generation
// can be in that state (Truncate fsyncs a generation before rotating past
// it); under NoSync this degrades gracefully to the longest intact
// committed prefix.
func (l *Log) recover() error {
	gens, err := listGens(l.dir)
	if err != nil {
		return err
	}
	if len(gens) == 0 {
		return l.createGen(1, 0, nil)
	}
	var seq uint64
	var kept []genInfo
	var final scannedGen
	var finalSize int
	for i := range gens {
		data, err := os.ReadFile(gens[i].path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		g, base, ok := decodeGenHeader(data)
		if len(data) >= len(logMagic) && string(data[:len(logMagicStem)]) == logMagicStem && string(data[:len(logMagic)]) != logMagic {
			return fmt.Errorf("wal: generation %s uses on-disk format %q; this version reads only %s — replay it with the version that wrote it, then remove it",
				gens[i].path, data[:len(logMagic)], logMagic)
		}
		if !ok || g != gens[i].gen || (len(kept) > 0 && base != seq) {
			if len(kept) == 0 {
				if len(gens) > 1 {
					return fmt.Errorf("wal: first generation %s has a corrupt header", gens[i].path)
				}
				// A lone, header-torn file: initial creation crashed.
				// Start over.
				if err := os.Remove(gens[i].path); err != nil {
					return fmt.Errorf("wal: %w", err)
				}
				return l.createGen(gens[i].gen+1, 0, nil)
			}
			// Rotation crashed before this file's header was durable: the
			// predecessor is the real tail.
			return l.adoptTail(kept, final, finalSize, gens[i:])
		}
		if len(kept) == 0 {
			seq = base
		}
		sg, err := scanGenData(data, base, nil, 0)
		if err != nil {
			return err
		}
		gens[i].baseSeq = base
		kept = append(kept, gens[i])
		seq = sg.lastSeq
		final = sg
		finalSize = len(data)
		if l.maxTxn < sg.maxTxn {
			l.maxTxn = sg.maxTxn
		}
		if sg.tail != len(data) {
			// A torn or corrupt frame: this generation is the effective
			// tail; anything after it never became real.
			return l.adoptTail(kept, final, finalSize, gens[i+1:])
		}
	}
	return l.adoptTail(kept, final, finalSize, nil)
}

// adoptTail finishes recovery: truncates the final kept generation to its
// committed prefix, deletes orphaned later files, rebuilds the writer's
// intern table from the retained prefix, and leaves the file open for
// appends.
func (l *Log) adoptTail(kept []genInfo, final scannedGen, fileSize int, orphans []genInfo) error {
	for _, o := range orphans {
		if err := os.Remove(o.path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	last := kept[len(kept)-1]
	f, err := os.OpenFile(last.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if final.tail != fileSize {
		if err := f.Truncate(int64(final.tail)); err != nil {
			f.Close()
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if !l.noSync {
			if err := l.syncLocked(f); err != nil {
				f.Close()
				return err
			}
		}
	}
	if len(orphans) > 0 && !l.noSync {
		if err := l.syncDirLocked(); err != nil {
			f.Close()
			return err
		}
	}
	l.f = f
	l.gens = kept
	l.seq = final.lastSeq
	l.names = make(map[string]uint32, len(final.names))
	for i, name := range final.names {
		l.names[name] = uint32(i + 1)
	}
	l.nextID = uint32(len(final.names)) + 1
	l.gs.durable = l.seq // everything retained is on stable storage
	return nil
}

// createGen creates a fresh generation file and makes it current. old is
// the outgoing file (already fsynced by the caller), closed after the new
// file is durable.
func (l *Log) createGen(gen, baseSeq uint64, old *os.File) error {
	path := genPath(l.dir, gen)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [genHeaderSize]byte
	encodeGenHeader(hdr[:], gen, baseSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if !l.noSync {
		if err = l.syncLocked(f); err == nil {
			err = l.syncDirLocked()
		}
		if err != nil {
			f.Close()
			return err
		}
	}
	if old != nil {
		old.Close()
	}
	l.f = f
	l.gens = append(l.gens, genInfo{gen: gen, baseSeq: baseSeq, path: path})
	l.names = make(map[string]uint32)
	l.nextID = 1
	return nil
}

// syncFile is every fsync the log issues, of a file or of its directory: a
// seam a test replaces to fail one.
var syncFile = (*os.File).Sync

// fsync syncs f after any injected delay, as one wal.fsync.ns sample, and
// returns how long that took.
func (l *Log) fsync(f *os.File) (time.Duration, error) {
	t0 := time.Now()
	if d := l.fsyncDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	err := syncFile(f)
	took := time.Since(t0)
	l.hFsync.Record(uint64(took))
	return took, err
}

// syncLocked is fsync for a caller holding l.mu, or Open's: a failure
// poisons the log.
func (l *Log) syncLocked(f *os.File) error {
	if _, err := l.fsync(f); err != nil {
		return l.poisonLocked(err)
	}
	return nil
}

// syncDirLocked makes the names of the generation files durable.
func (l *Log) syncDirLocked() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	return l.syncLocked(d)
}

// poisonLocked makes err, a failed fsync's, the log's sticky error unless one
// is set, and returns that: the kernel may have dropped the pages the fsync
// failed to write, so no later fsync can vouch for them. Caller holds l.mu.
func (l *Log) poisonLocked(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("wal: fsync failed, the log takes no more transactions: %w", err)
		l.wake()
	}
	return l.err
}

// wake ends a hold's wait (hold); the token waits if no round is held.
func (l *Log) wake() {
	select {
	case l.appended <- struct{}{}:
	default:
	}
}

// Append logs one transaction — a frame of its ops, each tree's first use
// this generation preceded by a bind entry — in a single write, and returns
// the assigned commit seq. The frame is built in the log's staging buffer, so
// once that buffer has grown Append allocates nothing. A frame body over
// maxFrameBody (16 MiB) fails with ErrTooLarge before a byte is written, and
// the log stays usable (a volatile log writes nothing, so refuses nothing).
// The transaction is NOT durable until Commit(seq) returns; callers serialize
// Append with the state mutation it describes so seq order is apply order.
func (l *Log) Append(txnID uint64, ops []Op) (uint64, error) {
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	seq := l.seq + 1
	if l.f == nil { // volatile
		l.seq = seq
		if txnID > l.maxTxn {
			l.maxTxn = txnID
		}
		return seq, nil
	}
	buf := beginFrame(l.buf[:0], txnID, seq)
	firstID := l.nextID
	for _, op := range ops {
		id, ok := l.names[op.Tree]
		if !ok {
			id = l.nextID
			l.nextID++
			l.names[op.Tree] = id
			buf = appendBind(buf, id, op.Tree)
		}
		buf = appendOp(buf, id, op)
	}
	if len(buf)-frameSize > maxFrameBody {
		// The scan would read the frame as a tear: unbind the trees it
		// bound, and keep neither it nor its buffer.
		for _, op := range ops {
			if l.names[op.Tree] >= firstID {
				delete(l.names, op.Tree)
			}
		}
		l.nextID = firstID
		return 0, fmt.Errorf("%w: a %d-byte body, the bound is %d", ErrTooLarge, len(buf)-frameSize, maxFrameBody)
	}
	buf = endFrame(buf)
	l.buf = buf[:0] // keep the capacity
	if _, err := l.f.Write(buf); err != nil {
		// The file may now hold a partial frame; further appends would
		// interleave with the wreckage, so poison the log. (The torn tail
		// is exactly what Open repairs on restart.)
		l.err = fmt.Errorf("wal: append: %w", err)
		return 0, l.err
	}
	l.cBytes.Add(uint64(len(buf)))
	l.seq = seq
	l.wake()
	if txnID > l.maxTxn {
		l.maxTxn = txnID
	}
	l.hAppend.Record(uint64(time.Since(t0)))
	return seq, nil
}

// Commit blocks until the transaction with the given commit seq is
// durable. Concurrent committers coalesce: one goroutine runs the fsync
// round (holding its start first, see hold), the rest piggyback on its
// outcome and only start another round if their seq is still not covered.
// Once an fsync has failed, no Commit of an seq it did not cover succeeds.
func (l *Log) Commit(seq uint64) error {
	t0 := time.Now()
	g := &l.gs
	g.mu.Lock()
	g.commits++
	g.mu.Unlock()
	l.cCommits.Inc()
	err := l.waitDurable(seq)
	l.hCommit.Record(uint64(time.Since(t0)))
	return err
}

func (l *Log) waitDurable(target uint64) error {
	if l.dir == "" || l.noSync {
		// Nothing to fsync: volatile mode has no file, NoSync acknowledges
		// on write. (dir and noSync are immutable, so this needs no lock —
		// l.f is NOT safe to read here, rotation swaps it under l.mu.)
		g := &l.gs
		g.mu.Lock()
		if target > g.durable {
			g.durable = target
		}
		g.mu.Unlock()
		return nil
	}
	g := &l.gs
	g.mu.Lock()
	for g.durable < target {
		if r := g.cur; r != nil {
			// Piggyback on the in-flight round, then re-check: the round
			// may have started before our records were appended.
			g.mu.Unlock()
			<-r.done
			if r.err != nil {
				return r.err
			}
			g.mu.Lock()
			continue
		}
		r := &fsyncRound{done: make(chan struct{})}
		g.cur = r
		k, end, took := g.k, g.end, g.took
		g.mu.Unlock()
		l.hold(k, end, took)
		upTo, end, took, err := l.fsyncTail()
		g.mu.Lock()
		if took > 0 {
			g.rounds++
			l.cRounds.Inc()
		}
		if err == nil && upTo > g.durable {
			g.k, g.end, g.took = upTo-g.durable, end, took
			g.durable = upTo
		}
		r.err = err
		g.cur = nil
		close(r.done)
		if err != nil {
			g.mu.Unlock()
			return err
		}
	}
	g.mu.Unlock()
	return nil
}

// hold delays the start of a round, while followers gather on it, until the
// k committers the last round released have appended again — so that one
// fsync covers them all instead of the next round covering only its leader
// — or until that round's fsync time has passed, or the log is closed or
// poisoned. A sole committer is never held: it is the one the last round
// released, so its own append has ended the hold before it begins.
func (l *Log) hold(k, end uint64, took time.Duration) {
	released := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.seq-end >= k || l.closed || l.err != nil
	}
	if released() {
		return
	}
	t0 := time.Now()
	l.holdTimer.Reset(took)
	for wait := true; wait; { // a token left from before the hold is one more check
		select {
		case <-l.appended:
			wait = !released()
		case <-l.holdTimer.C:
			wait = false
		}
	}
	l.holdTimer.Stop()
	l.cHeld.Inc()
	l.cHoldNs.Add(uint64(time.Since(t0)))
}

// fsyncTail runs one flush round: everything appended before the fsync
// starts (upTo) becomes durable, and end is the log seq once it has. It
// issues no fsync (took 0) if a rotation has already made upTo durable.
// flushMu keeps Truncate from rotating the file out from under the sync.
func (l *Log) fsyncTail() (upTo, end uint64, took time.Duration, err error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	f, upTo, err := l.f, l.seq, l.err
	if l.closed {
		err = ErrClosed
	}
	l.gs.mu.Lock()
	covered := l.gs.durable >= upTo
	l.gs.mu.Unlock()
	l.mu.Unlock()
	if err != nil || covered {
		return upTo, upTo, 0, err
	}
	took, err = l.fsync(f)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		return 0, 0, took, l.poisonLocked(err)
	}
	return upTo, l.seq, took, nil
}

// InjectFsyncDelay sets an artificial delay applied before every fsync
// syscall the log issues — a test hook for making a commit's durability
// wait deterministically slow (e.g. to land an operation in the slow-op
// ring). Zero or negative disables; safe to call concurrently.
func (l *Log) InjectFsyncDelay(d time.Duration) {
	l.fsyncDelay.Store(int64(d))
}

// Truncate records that a checkpoint now covers every transaction with
// commit seq ≤ seq: the current generation is fsynced (unless the group-commit
// watermark already covers its last record) and rotated, and
// generation files entirely at or below the checkpoint are deleted. The
// caller must guarantee the checkpoint itself is durable first —
// otherwise acknowledged transactions would exist nowhere.
func (l *Log) Truncate(seq uint64) error {
	if l.dir == "" {
		return nil
	}
	l.flushMu.Lock() // waits out any in-flight fsync round
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	old := l.f
	// Under flushMu and mu no round is in flight and seq cannot advance: a
	// watermark at seq means an fsync already covered every byte of the file.
	l.gs.mu.Lock()
	covered := l.gs.durable >= l.seq
	l.gs.mu.Unlock()
	if !l.noSync && !covered {
		if err := l.syncLocked(old); err != nil {
			return err
		}
	}
	cur := l.gens[len(l.gens)-1]
	if err := l.createGen(cur.gen+1, l.seq, old); err != nil {
		// The old file is still current and intact; the rotation simply
		// did not happen.
		l.f = old
		return err
	}
	// The rotated-away generation is fully synced: advance the durability
	// watermark so no committer waits on an fsync of a file that will
	// never be written again.
	l.gs.mu.Lock()
	if l.seq > l.gs.durable {
		l.gs.durable = l.seq
	}
	l.gs.mu.Unlock()
	// Delete generations whose every record is checkpoint-covered: gens[i]
	// ends where gens[i+1] begins, so it is disposable once that boundary
	// is ≤ seq.
	keep := l.gens[:0]
	removed := false
	for i, g := range l.gens {
		if i+1 < len(l.gens) && l.gens[i+1].baseSeq <= seq {
			if err := os.Remove(g.path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			removed = true
			continue
		}
		keep = append(keep, g)
	}
	l.gens = append([]genInfo(nil), keep...)
	if removed && !l.noSync {
		if err := l.syncDirLocked(); err != nil {
			return err
		}
	}
	l.truncations++
	l.cTrunc.Inc()
	return nil
}

// Replay re-reads the generation files and calls fn for each committed
// transaction with commit seq > afterSeq, in commit order. A transaction
// whose frame did not reach the disk whole is not surfaced at all — the
// torn-tail-vanishes-wholesale guarantee. The Txn, its Ops and their Value
// slices are scan buffers valid only during fn.
func (l *Log) Replay(afterSeq uint64, fn func(*Txn) error) error {
	if l.dir == "" {
		return nil
	}
	l.mu.Lock()
	gens := append([]genInfo(nil), l.gens...)
	l.mu.Unlock()
	for _, g := range gens {
		data, err := os.ReadFile(g.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if _, base, ok := decodeGenHeader(data); !ok || base != g.baseSeq {
			return fmt.Errorf("wal: generation %s changed under replay", g.path)
		}
		if _, err := scanGenData(data, g.baseSeq, fn, afterSeq); err != nil {
			return err
		}
	}
	return nil
}

// Seq returns the last assigned commit seq.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// MaxTxnID returns the largest transaction id among the retained
// committed records (0 if none): the floor for new transaction ids, so a
// restarted writer can never collide with ids still present in the tail.
func (l *Log) MaxTxnID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxTxn
}

// Stats summarizes the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	s := Stats{
		Seq:         l.seq,
		Truncations: l.truncations,
		Generations: len(l.gens),
	}
	if len(l.gens) > 0 {
		s.Generation = l.gens[len(l.gens)-1].gen
	}
	l.mu.Unlock()
	l.gs.mu.Lock()
	s.Durable = l.gs.durable
	s.Commits = l.gs.commits
	s.Rounds = l.gs.rounds
	s.Syncs = l.gs.rounds
	l.gs.mu.Unlock()
	return s
}

// Close fsyncs and closes the current generation file. Waiting committers
// see the final round's outcome; later calls fail with ErrClosed.
func (l *Log) Close() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	l.wake()
	if l.f == nil {
		return nil
	}
	var err error
	if !l.noSync && l.err == nil {
		err = l.syncLocked(l.f)
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// scannedGen is one generation's scan result.
type scannedGen struct {
	lastSeq uint64   // seq of the last good frame (baseSeq if none)
	maxTxn  uint64   // largest txn id among the good frames
	tail    int      // offset just past the last good frame
	names   []string // trees the good frames bound: id i+1 is names[i]
}

// scanGenData walks one generation's frames. With emit != nil it surfaces
// each transaction with seq > afterSeq (the Replay path); with emit == nil
// it only computes the recovery summary (the Open path). A frame that fails
// its length or checksum, does not carry the next seq, or holds a malformed
// entry ends the scan — the frames before it stand, everything from it on
// is tail wreckage, and sg.tail < len(data) says so.
func scanGenData(data []byte, baseSeq uint64, emit func(*Txn) error, afterSeq uint64) (scannedGen, error) {
	sg := scannedGen{lastSeq: baseSeq, tail: genHeaderSize}
	var txn Txn
	for {
		body, ok := nextFrame(data, sg.tail)
		if !ok {
			return sg, nil
		}
		txn.ID = binary.LittleEndian.Uint64(body)
		txn.Seq = binary.LittleEndian.Uint64(body[8:])
		if txn.Seq != sg.lastSeq+1 {
			return sg, nil
		}
		names, ops, ok := decodeEntries(body[16:], sg.names, txn.Ops[:0])
		if !ok {
			return sg, nil
		}
		sg.names, txn.Ops = names, ops
		sg.lastSeq = txn.Seq
		sg.tail += frameSize + len(body)
		sg.maxTxn = max(sg.maxTxn, txn.ID)
		if emit != nil && txn.Seq > afterSeq {
			if err := emit(&txn); err != nil {
				return sg, err
			}
		}
	}
}
