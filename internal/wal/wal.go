// Package wal is pagedb's redo log: one CRC-framed frame per transaction
// (record.go has the format) in one file, wal.log, that each checkpoint
// empties in place, and a group commit that makes one fsync serve every
// committer ready for it. A round's leader holds the round's start until the
// committers the last round released have appended again, for at most that
// round's fsync time; a sole committer is never held, so it pays nothing for
// the rule. A failed fsync poisons the log: no later Append, Commit or
// Truncate succeeds.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// ErrTooLarge is returned by Append for a transaction whose frame would
// exceed the bound the scan accepts; nothing of it is written.
var ErrTooLarge = errors.New("wal: transaction too large for one frame")

// Options configures Open.
type Options struct {
	// Dir holds the log file. Empty means volatile mode: Append
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
	Durable     uint64 // highest commit seq known fsynced or checkpointed
	Commits     uint64 // Commit waits served
	Rounds      uint64 // group-fsync rounds run
	Syncs       uint64 // fsync syscalls issued by rounds: one a round
	Truncations uint64 // checkpoint truncations that emptied the file
}

// logName is the log's one file in Options.Dir.
const logName = "wal.log"

// Log is an append-only redo log of committed transactions. One writer at
// a time may Append (callers serialize — pagedb appends under its write
// lock so commit-seq order is exactly apply order); any number of
// goroutines may Commit concurrently, coalescing onto shared fsync rounds
// through the core.GroupCommit the store's DurCommit runs too; a round
// (round) first holds its start for the committers the last round released
// (hold).
//
// Lock order: flushMu → mu → gc's lock. flushMu is held across every fsync
// round and across Close, so Close never closes the file under a round;
// appends and Truncate take only mu and therefore proceed while a round is
// syncing — that overlap is the group-commit win.
type Log struct {
	dir    string // "" in volatile mode
	noSync bool

	flushMu sync.Mutex

	mu     sync.Mutex
	f      *os.File // nil in volatile mode
	seq    uint64
	maxTxn uint64
	names  map[string]uint32 // tree-name interning, reset at each truncation
	nextID uint32
	buf    []byte // staging buffer: one transaction, one Write
	closed bool
	err    error // sticky: a torn in-place write or a failed fsync poisons the log

	// A round's leader holds on these (hold); one leader holds at a time.
	appended  chan struct{} // capacity 1: an append, close or poison wakes it
	holdTimer *time.Timer

	gc core.GroupCommit // the durable seq, raised by rounds, truncations and Open
	// The last round that made anything durable released k seqs, at log seq
	// end, after an fsync that took took: the next round holds on it. Only a
	// round's leader touches them, and rounds run one at a time.
	k, end  uint64
	took    time.Duration
	commits atomic.Uint64
	rounds  atomic.Uint64

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
	cBytes   *obs.Counter // wal.append.bytes: frame bytes appended (file headers excluded)
	cHeld    *obs.Counter // wal.commit.held: rounds whose start was held
	cHoldNs  *obs.Counter // wal.commit.hold.ns: the time they were held
}

// Open opens (or creates) the log in opts.Dir, repairing the tail: the file
// is truncated to the end of its last good frame, so a torn final
// transaction vanishes wholesale before the writer ever appends again. A log
// file of another format version, or generation files (wal-*.log) of the
// format before this one, are refused by name and left as they are.
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
		if l.f != nil {
			l.f.Close()
		}
		return nil, err
	}
	return l, nil
}

// recover opens the log file and establishes seq, maxTxn and the intern
// table from its frames, truncating it to the last good one. A new file gets
// a header and is fsynced with its directory. A file with no valid header — a
// crash inside Truncate's rewrite — held nothing a durable checkpoint does not
// cover, so it starts over empty, at base 0; Replay's floor then raises the
// base to the checkpoint's.
func (l *Log) recover() error {
	if gens, _ := filepath.Glob(filepath.Join(l.dir, "wal-*.log")); len(gens) > 0 {
		return fmt.Errorf("wal: %s is a generation file of an earlier on-disk format; this version keeps one file, %s, in format %s — replay the log with the version that wrote it, then remove its generation files",
			gens[0], logName, logMagic)
	}
	path := filepath.Join(l.dir, logName)
	data, err := os.ReadFile(path)
	created := errors.Is(err, fs.ErrNotExist)
	if err != nil && !created {
		return fmt.Errorf("wal: %w", err)
	}
	if len(data) >= len(logMagic) && string(data[:len(logMagicStem)]) == logMagicStem && string(data[:len(logMagic)]) != logMagic {
		return fmt.Errorf("wal: %s uses on-disk format %q; this version reads only %s — replay it with the version that wrote it, then remove it",
			path, data[:len(logMagic)], logMagic)
	}
	if l.f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	base, ok := decodeHeader(data)
	if !ok {
		if err := l.emptyLocked(0); err != nil || !created || l.noSync {
			return err
		}
		if err := l.syncLocked(l.f); err != nil {
			return err
		}
		return l.syncDirLocked()
	}
	sc, err := scanFrames(data, base, nil, 0)
	if err != nil {
		return err
	}
	if sc.tail != len(data) {
		if err := l.f.Truncate(int64(sc.tail)); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if !l.noSync {
			if err := l.syncLocked(l.f); err != nil {
				return err
			}
		}
	}
	l.seq, l.maxTxn = sc.lastSeq, sc.maxTxn
	for i, name := range sc.names {
		l.names[name] = uint32(i + 1)
	}
	l.nextID = uint32(len(sc.names)) + 1
	l.gc.Advance(l.seq) // everything retained is on stable storage
	return nil
}

// emptyLocked makes the file a bare header with the given base seq, in place
// — ftruncate, then one header write, and no fsync — and the log an empty one
// past it: seq and the durable watermark at least base, a fresh intern
// table. Caller holds l.mu, or is Open's. A failure poisons the log: the file
// may now hold anything from its old frames to a torn header.
func (l *Log) emptyLocked(base uint64) error {
	var hdr [headerSize]byte
	encodeHeader(hdr[:], base)
	err := l.f.Truncate(0)
	if err == nil {
		_, err = l.f.Write(hdr[:])
	}
	if err != nil {
		l.err = fmt.Errorf("wal: emptying the log: %w", err)
		l.wake()
		return l.err
	}
	l.seq = base
	clear(l.names)
	l.nextID = 1
	l.gc.Advance(base)
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

// syncDirLocked makes a new log file's name durable.
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
// since the last truncation preceded by a bind entry — in a single write, and returns
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
	l.commits.Add(1)
	l.cCommits.Inc()
	var err error
	if l.dir == "" || l.noSync {
		// Nothing to fsync: volatile mode has no file, NoSync acknowledges
		// on write. (dir and noSync are immutable, so this needs no lock.)
		l.gc.Advance(seq)
	} else {
		err = l.gc.Wait(seq, l.round)
	}
	l.hCommit.Record(uint64(time.Since(t0)))
	return err
}

// round is one group-commit round, run by its leader: hold, then fsyncTail.
func (l *Log) round() (uint64, error) {
	l.hold()
	upTo, end, took, err := l.fsyncTail()
	if took > 0 {
		l.rounds.Add(1)
		l.cRounds.Inc()
	}
	if d := l.gc.Durable(); err == nil && upTo > d {
		l.k, l.end, l.took = upTo-d, end, took
	}
	return upTo, err
}

// hold delays the start of a round, while followers gather on it, until the
// k committers the last round released have appended again — so that one
// fsync covers them all instead of the next round covering only its leader
// — or until that round's fsync time has passed (l.k, l.end, l.took), or the
// log is closed or poisoned. A sole committer is never held: it is the one the last round
// released, so its own append has ended the hold before it begins.
func (l *Log) hold() {
	released := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.seq-l.end >= l.k || l.closed || l.err != nil
	}
	if released() {
		return
	}
	t0 := time.Now()
	l.holdTimer.Reset(l.took)
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
// issues no fsync (took 0) if a truncation has already made upTo durable.
// flushMu keeps Close from closing the file under the sync.
func (l *Log) fsyncTail() (upTo, end uint64, took time.Duration, err error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	f, upTo, err := l.f, l.seq, l.err
	if l.closed {
		err = ErrClosed
	}
	covered := l.gc.Durable() >= upTo
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

// Truncate records that a durable checkpoint covers every transaction with
// commit seq ≤ seq. With seq ≥ Seq() it empties the file in place —
// ftruncate, then a header with base seq — resets the tree-name intern table
// and raises the group-commit watermark to seq, which releases any committer
// still waiting: its transaction is inside the checkpoint. It issues no
// fsync, creates no file and removes none; the next round's fsync makes the
// truncation durable. Until then a crash may leave the old frames, an empty
// file or the new header over stale bytes, whose scan stops at the first
// stale frame; Replay's floor, the checkpoint's seq, keeps the seqs that
// follow above seq. A seq < Seq() leaves the file alone, since frames past
// seq are not covered. The caller must make the checkpoint durable first —
// otherwise acknowledged transactions would exist nowhere.
func (l *Log) Truncate(seq uint64) error {
	if l.dir == "" {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if seq < l.seq {
		return nil
	}
	if err := l.emptyLocked(seq); err != nil {
		return err
	}
	l.truncations++
	l.cTrunc.Inc()
	return nil
}

// Replay re-reads the file and calls fn for each committed transaction with
// commit seq > afterSeq, in commit order. A transaction whose frame did not
// reach the disk whole is not surfaced at all — the
// torn-tail-vanishes-wholesale guarantee. The Txn, its Ops and their Value
// slices are scan buffers valid only during fn.
//
// afterSeq, the durable checkpoint's seq, is also the log's floor: a log
// whose Seq() is below it — a crash after a Truncate left the file empty, or
// holding only frames the checkpoint covers — replays nothing and is emptied
// in place with base afterSeq (no fsync), so the next transaction is numbered
// past the checkpoint and a later Replay(afterSeq) surfaces it.
func (l *Log) Replay(afterSeq uint64, fn func(*Txn) error) error {
	if l.dir == "" {
		return nil
	}
	l.mu.Lock()
	if l.seq < afterSeq {
		err := l.emptyLocked(afterSeq)
		l.mu.Unlock()
		return err
	}
	path := l.f.Name()
	l.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	base, ok := decodeHeader(data)
	if !ok {
		return fmt.Errorf("wal: %s lost its header under replay", path)
	}
	_, err = scanFrames(data, base, fn, afterSeq)
	return err
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
	defer l.mu.Unlock()
	rounds := l.rounds.Load()
	return Stats{Seq: l.seq, Truncations: l.truncations, Durable: l.gc.Durable(),
		Commits: l.commits.Load(), Rounds: rounds, Syncs: rounds}
}

// Close fsyncs and closes the log file. Waiting committers
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

// scanned is a scan's result.
type scanned struct {
	lastSeq uint64   // seq of the last good frame (the base if none)
	maxTxn  uint64   // largest txn id among the good frames
	tail    int      // offset just past the last good frame
	names   []string // trees the good frames bound: id i+1 is names[i]
}

// scanFrames walks the frames after a header with base seq base. With emit
// != nil it surfaces each transaction with seq > afterSeq (the Replay path);
// with emit == nil it only computes the recovery summary (the Open path). A
// frame that fails its length or checksum, does not carry the next seq, or
// holds a malformed entry ends the scan — the frames before it stand,
// everything from it on is tail wreckage (or stale bytes an unsynced
// truncation left), and sc.tail < len(data) says so.
func scanFrames(data []byte, base uint64, emit func(*Txn) error, afterSeq uint64) (scanned, error) {
	sc := scanned{lastSeq: base, tail: headerSize}
	var txn Txn
	for {
		body, ok := nextFrame(data, sc.tail)
		if !ok {
			return sc, nil
		}
		txn.ID = binary.LittleEndian.Uint64(body)
		txn.Seq = binary.LittleEndian.Uint64(body[8:])
		if txn.Seq != sc.lastSeq+1 {
			return sc, nil
		}
		names, ops, ok := decodeEntries(body[16:], sc.names, txn.Ops[:0])
		if !ok {
			return sc, nil
		}
		sc.names, txn.Ops = names, ops
		sc.lastSeq = txn.Seq
		sc.tail += frameSize + len(body)
		sc.maxTxn = max(sc.maxTxn, txn.ID)
		if emit != nil && txn.Seq > afterSeq {
			if err := emit(&txn); err != nil {
				return sc, err
			}
		}
	}
}
