package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func openT(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// appendCommitT appends one transaction and waits for durability.
func appendCommitT(t *testing.T, l *Log, txnID uint64, ops []Op) uint64 {
	t.Helper()
	seq, err := l.Append(txnID, ops)
	if err != nil {
		t.Fatalf("Append(txn %d): %v", txnID, err)
	}
	if err := l.Commit(seq); err != nil {
		t.Fatalf("Commit(seq %d): %v", seq, err)
	}
	return seq
}

// copyTxn deep-copies a transaction the scan surfaced: it and its values
// are scan buffers, valid only during the callback.
func copyTxn(txn *Txn) *Txn {
	cp := &Txn{ID: txn.ID, Seq: txn.Seq, Ops: make([]Op, len(txn.Ops))}
	for i, op := range txn.Ops {
		cp.Ops[i] = op
		cp.Ops[i].Value = append([]byte(nil), op.Value...)
	}
	return cp
}

func collect(t *testing.T, l *Log, afterSeq uint64) []*Txn {
	t.Helper()
	var txns []*Txn
	err := l.Replay(afterSeq, func(txn *Txn) error {
		txns = append(txns, copyTxn(txn))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%d): %v", afterSeq, err)
	}
	return txns
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	ops1 := []Op{
		{Kind: OpPut, Tree: "orders", Key: 1, Value: []byte("a")},
		{Kind: OpPut, Tree: "stock", Key: 2, Value: []byte("bb")},
		{Kind: OpDelete, Tree: "orders", Key: 3},
	}
	ops2 := []Op{
		{Kind: OpDropTree, Tree: "stock"},
		{Kind: OpPut, Tree: "orders", Key: 4, Value: nil}, // empty value round-trips
	}
	s1 := appendCommitT(t, l, 7, ops1)
	s2 := appendCommitT(t, l, 9, ops2)
	if s1 != 1 || s2 != 2 {
		t.Fatalf("seqs = %d, %d; want 1, 2", s1, s2)
	}

	check := func(l *Log) {
		t.Helper()
		txns := collect(t, l, 0)
		if len(txns) != 2 {
			t.Fatalf("replayed %d txns, want 2", len(txns))
		}
		if txns[0].ID != 7 || txns[0].Seq != 1 || txns[1].ID != 9 || txns[1].Seq != 2 {
			t.Fatalf("txn identity mismatch: %+v", txns)
		}
		for i, want := range [][]Op{ops1, ops2} {
			got := txns[i].Ops
			if len(got) != len(want) {
				t.Fatalf("txn %d: %d ops, want %d", i, len(got), len(want))
			}
			for j := range want {
				if got[j].Kind != want[j].Kind || got[j].Tree != want[j].Tree ||
					got[j].Key != want[j].Key || !bytes.Equal(got[j].Value, want[j].Value) {
					t.Fatalf("txn %d op %d = %+v, want %+v", i, j, got[j], want[j])
				}
			}
		}
		if got := collect(t, l, s1); len(got) != 1 || got[0].ID != 9 {
			t.Fatalf("Replay(after %d) = %+v, want only txn 9", s1, got)
		}
		if got := collect(t, l, s2); len(got) != 0 {
			t.Fatalf("Replay(after %d) = %+v, want none", s2, got)
		}
	}
	check(l)

	// The same state must come back from disk.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir)
	defer l2.Close()
	if l2.Seq() != 2 || l2.MaxTxnID() != 9 {
		t.Fatalf("reopened Seq=%d MaxTxnID=%d, want 2, 9", l2.Seq(), l2.MaxTxnID())
	}
	check(l2)
	// Appends must continue the seq chain with the recovered intern table.
	if s := appendCommitT(t, l2, 10, []Op{{Kind: OpPut, Tree: "orders", Key: 5, Value: []byte("c")}}); s != 3 {
		t.Fatalf("post-reopen seq = %d, want 3", s)
	}
	if got := collect(t, l2, 0); len(got) != 3 {
		t.Fatalf("replayed %d txns after reopen append, want 3", len(got))
	}
}

// logPath is the log file in dir.
func logPath(dir string) string { return filepath.Join(dir, logName) }

// TestTornTailDiscardsFinalTxnWholesale cuts the file at every byte offset
// of the final transaction's frame (mid-length, mid-checksum, mid-bind,
// mid-op, its last byte): each cut must erase transaction 2 as a unit, leave
// transaction 1 standing, and be repaired back to transaction 1's end.
func TestTornTailDiscardsFinalTxnWholesale(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	appendCommitT(t, l, 1, []Op{{Kind: OpPut, Tree: "a", Key: 1, Value: []byte("keep")}})
	fi1, err := os.Stat(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendCommitT(t, l, 2, []Op{
		{Kind: OpPut, Tree: "a", Key: 2, Value: []byte("torn")},
		{Kind: OpPut, Tree: "b", Key: 3, Value: []byte("torn")},
	})
	l.Close()
	data, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	frame := len(data) - int(fi1.Size())

	for cut := 1; cut <= frame; cut++ {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			path := logPath(dir)
			if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l2 := openT(t, dir)
			defer l2.Close()
			txns := collect(t, l2, 0)
			if len(txns) != 1 || txns[0].ID != 1 {
				t.Fatalf("after tear: replayed %+v, want only txn 1", txns)
			}
			if l2.Seq() != 1 {
				t.Fatalf("Seq = %d after tear, want 1", l2.Seq())
			}
			// Open must have repaired the file physically: truncated back to
			// exactly the end of txn 1.
			repaired, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if repaired.Size() != fi1.Size() {
				t.Fatalf("repaired tail is %d bytes, want %d (end of txn 1)", repaired.Size(), fi1.Size())
			}
			// New appends go through and the torn txn id is not reused.
			if l2.MaxTxnID() != 1 {
				t.Fatalf("MaxTxnID = %d, want 1 (txn 2 vanished)", l2.MaxTxnID())
			}
			appendCommitT(t, l2, 2, []Op{{Kind: OpPut, Tree: "b", Key: 9, Value: []byte("new")}})
			if got := collect(t, l2, 0); len(got) != 2 || got[1].Seq != 2 || got[1].Ops[0].Tree != "b" {
				t.Fatalf("after repair+append: %+v", got)
			}
		})
	}
}

// TestCorruptMiddleRecordEndsScanAtPriorCommit flips each byte of the middle
// transaction's frame in turn: transactions 2 AND 3 are gone every time (the
// log is a prefix code — nothing after a bad frame can be trusted).
func TestCorruptMiddleRecordEndsScanAtPriorCommit(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	appendCommitT(t, l, 1, []Op{{Kind: OpPut, Tree: "a", Key: 1, Value: []byte("one")}})
	path := logPath(dir)
	tail1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	appendCommitT(t, l, 2, []Op{{Kind: OpPut, Tree: "a", Key: 2, Value: []byte("two")}, {Kind: OpDelete, Tree: "b", Key: 1}})
	tail2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	appendCommitT(t, l, 3, []Op{{Kind: OpPut, Tree: "a", Key: 3, Value: []byte("three")}})
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for off := tail1.Size(); off < tail2.Size(); off++ {
		bad := bytes.Clone(data)
		bad[off] ^= 0xFF
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		l2 := openT(t, dir)
		txns := collect(t, l2, 0)
		l2.Close()
		if len(txns) != 1 || txns[0].ID != 1 {
			t.Fatalf("byte %d of the middle frame flipped: replayed %+v, want only txn 1", off-tail1.Size(), txns)
		}
	}
}

// countSyncs routes the log's fsyncs through a counter of the files synced,
// by base name, until the test ends.
func countSyncs(t *testing.T) map[string]int {
	synced := map[string]int{}
	var mu sync.Mutex
	syncFile = func(f *os.File) error {
		mu.Lock()
		synced[filepath.Base(f.Name())]++
		mu.Unlock()
		return f.Sync()
	}
	t.Cleanup(func() { syncFile = (*os.File).Sync })
	return synced
}

func totalSyncs(synced map[string]int) (n int) {
	for _, c := range synced {
		n += c
	}
	return n
}

// TestTruncateIssuesNoFsync: a truncation fsyncs nothing, whether a commit
// round already covered the file or it holds an appended but uncommitted
// transaction; that transaction is inside the checkpoint, so its Commit
// returns with no fsync either, and the next one replays past it, before and
// after a reopen. A Truncate below Seq() leaves the file as it is. Every fsync
// the log issues — a new file's and its directory's at Open, a round's,
// Close's — is one wal.fsync.ns sample.
func TestTruncateIssuesNoFsync(t *testing.T) {
	synced := countSyncs(t)
	reg := obs.New()
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	op := []Op{{Kind: OpPut, Tree: "t", Key: 1, Value: []byte("x")}}

	ck := appendCommitT(t, l, 1, op)
	n := totalSyncs(synced)
	if err := l.Truncate(ck); err != nil {
		t.Fatal(err)
	}
	if got := totalSyncs(synced) - n; got != 0 {
		t.Errorf("Truncate of a committed file issued %d fsyncs, want 0", got)
	}

	seq, err := l.Append(2, op)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(seq); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if got := totalSyncs(synced) - n; got != 0 || l.Stats().Durable != seq {
		t.Errorf("Truncate behind an uncommitted append and its Commit issued %d fsyncs, durable %d; want 0 and %d", got, l.Stats().Durable, seq)
	}

	next := appendCommitT(t, l, 3, op)
	before, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(seq); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(logPath(dir)); err != nil || !bytes.Equal(after, before) {
		t.Errorf("Truncate(%d) below Seq() %d changed the file (%v)", seq, next, err)
	}
	if got := collect(t, l, seq); len(got) != 1 || got[0].ID != 3 {
		t.Errorf("replay past the truncation: %+v, want transaction 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("wal.fsync.ns").Count(); got != uint64(totalSyncs(synced)) || synced[filepath.Base(dir)] != 1 {
		t.Errorf("%d wal.fsync.ns samples for the fsyncs %v, want one each, the directory's once", got, synced)
	}
	l2 := openT(t, dir)
	defer l2.Close()
	if got := collect(t, l2, seq); l2.Seq() != next || len(got) != 1 || got[0].ID != 3 {
		t.Errorf("reopened at seq %d, replay %+v; want %d and transaction 3", l2.Seq(), got, next)
	}
}

func TestReopenAcrossTruncateKeepsTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	ck := appendCommitT(t, l, 1, []Op{{Kind: OpPut, Tree: "t", Key: 1, Value: []byte("old")}})
	if err := l.Truncate(ck); err != nil {
		t.Fatal(err)
	}
	appendCommitT(t, l, 2, []Op{{Kind: OpPut, Tree: "t", Key: 2, Value: []byte("new")}})
	l.Close()

	l2 := openT(t, dir)
	defer l2.Close()
	if l2.Seq() != 2 {
		t.Fatalf("Seq = %d, want 2", l2.Seq())
	}
	if got := collect(t, l2, ck); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("Replay past checkpoint: %+v, want txn 2", got)
	}
}

func TestVolatileMode(t *testing.T) {
	l, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s1 := appendCommitT(t, l, 1, []Op{{Kind: OpPut, Tree: "t", Key: 1, Value: []byte("v")}})
	s2 := appendCommitT(t, l, 2, nil)
	if s1 != 1 || s2 != 2 {
		t.Fatalf("volatile seqs %d, %d", s1, s2)
	}
	if err := l.Truncate(s2); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l, 0); len(got) != 0 {
		t.Fatalf("volatile replay returned %+v", got)
	}
	if st := l.Stats(); st.Commits != 2 || st.Durable != 2 {
		t.Fatalf("volatile stats %+v", st)
	}
}

func TestClosedLogFails(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, nil); err != ErrClosed {
		t.Fatalf("Append after close = %v", err)
	}
	if err := l.Truncate(0); err != ErrClosed {
		t.Fatalf("Truncate after close = %v", err)
	}
	if err := l.Close(); err != ErrClosed {
		t.Fatalf("second Close = %v", err)
	}
}

// TestGroupCommitCoalesces runs many concurrent committers (appends
// serialized, as pagedb serializes them under its write lock) and checks
// the group-commit property the whole design exists for: fewer fsync
// rounds than commits, with every committed txn replayable.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	l, err := Open(Options{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const workers, perWorker = 8, 25
	var appendMu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				txnID := uint64(w*perWorker + i + 1)
				appendMu.Lock()
				seq, err := l.Append(txnID, []Op{{Kind: OpPut, Tree: "t", Key: txnID, Value: []byte("v")}})
				appendMu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if err := l.Commit(seq); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := l.Stats()
	total := uint64(workers * perWorker)
	if st.Commits != total {
		t.Fatalf("commits = %d, want %d", st.Commits, total)
	}
	if st.Rounds >= st.Commits {
		t.Fatalf("group commit never coalesced: %d rounds for %d commits", st.Rounds, st.Commits)
	}
	if st.Durable != st.Seq || st.Seq != total {
		t.Fatalf("durable=%d seq=%d, want both %d", st.Durable, st.Seq, total)
	}
	if got := collect(t, l, 0); len(got) != int(total) {
		t.Fatalf("replayed %d txns, want %d", len(got), total)
	}
	snap := reg.Snapshot()
	if snap.Counters["wal.commit.commits"] != total || snap.Counters["wal.commit.rounds"] != st.Rounds {
		t.Fatalf("obs counters diverge from Stats: %v vs %+v", snap.Counters, st)
	}
	for _, h := range []string{"wal.append.ns", "wal.fsync.ns", "wal.commit.ns"} {
		if snap.Histograms[h].Count == 0 {
			t.Fatalf("histogram %s never recorded", h)
		}
	}
}

// lockStepRun runs two closed-loop committers, each doing a little work
// before every transaction, appends serialized as pagedb serializes them,
// and returns the log's Stats and its wal.commit.held count.
func lockStepRun(t *testing.T, perWorker int, work, fsync time.Duration) (Stats, uint64) {
	reg := obs.New()
	l, err := Open(Options{Dir: t.TempDir(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.InjectFsyncDelay(fsync)
	var appendMu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				time.Sleep(work)
				txnID := uint64(w*perWorker + i + 1)
				appendMu.Lock()
				seq, err := l.Append(txnID, []Op{{Kind: OpPut, Tree: "t", Key: txnID, Value: []byte("v")}})
				appendMu.Unlock()
				if err == nil {
					err = l.Commit(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Durable != st.Seq || st.Commits != uint64(2*perWorker) {
		t.Fatalf("durable=%d seq=%d commits=%d, want every transaction committed", st.Durable, st.Seq, st.Commits)
	}
	return st, reg.Snapshot().Counters["wal.commit.held"]
}

// TestGroupCommitLockStep: two committers whose work between commits is
// shorter than an fsync. Without the hold their rounds alternate: the one a
// round releases appends while the other's round runs, which then covers
// only its leader. Holding a round's start for the committers the last round
// released puts them in lock-step, two commits to a round.
func TestGroupCommitLockStep(t *testing.T) {
	st, held := lockStepRun(t, 40, 200*time.Microsecond, 2*time.Millisecond)
	t.Logf("%d rounds for %d commits (%.2f), %d held", st.Rounds, st.Commits, float64(st.Rounds)/float64(st.Commits), held)
	if st.Rounds*10 > st.Commits*6 {
		t.Errorf("%d rounds for %d commits, want at most 0.6 a commit", st.Rounds, st.Commits)
	}
	if held == 0 {
		t.Error("no round was held")
	}
}

// TestGroupCommitSoleCommitterIsNeverHeld: a lone committer is the one the
// last round released, so its own append ends every hold before it begins:
// no round is held and each commit is a round of its own.
func TestGroupCommitSoleCommitterIsNeverHeld(t *testing.T) {
	reg := obs.New()
	l, err := Open(Options{Dir: t.TempDir(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.InjectFsyncDelay(time.Millisecond)
	start := time.Now()
	for i := uint64(1); i <= 20; i++ {
		appendCommitT(t, l, i, []Op{{Kind: OpPut, Tree: "t", Key: i, Value: []byte("v")}})
	}
	st, snap := l.Stats(), reg.Snapshot()
	if held := snap.Counters["wal.commit.held"]; held != 0 || st.Rounds != st.Commits || st.Commits != 20 {
		t.Errorf("%d held, %d rounds for %d commits; want 0 held and a round per commit", held, st.Rounds, st.Commits)
	}
	if ns := snap.Counters["wal.commit.hold.ns"]; ns != 0 {
		t.Errorf("a sole committer was held %v over %v", time.Duration(ns), time.Since(start))
	}
}

// TestGroupCommitHoldIsBounded: a round released two committers and one of
// them never appends again. The next round's start is held for about the
// last round's fsync time, no longer, and then it commits.
func TestGroupCommitHoldIsBounded(t *testing.T) {
	const delay = 20 * time.Millisecond
	reg := obs.New()
	l, err := Open(Options{Dir: t.TempDir(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.InjectFsyncDelay(delay)
	op := []Op{{Kind: OpPut, Tree: "t", Key: 1, Value: []byte("v")}}
	for txn := uint64(1); txn <= 2; txn++ {
		if _, err := l.Append(txn, op); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Now()
	if err := l.Commit(2); err != nil { // one round releases both
		t.Fatal(err)
	}
	round := time.Since(t0)
	appendCommitT(t, l, 3, op) // transaction 1's committer never comes back
	snap := reg.Snapshot()
	held, ns := snap.Counters["wal.commit.held"], time.Duration(snap.Counters["wal.commit.hold.ns"])
	if held != 1 || ns < delay || ns > round+delay/2 {
		t.Errorf("%d rounds held for %v after a %v round; want one, held about that round's fsync", held, ns, round)
	}
	if st := l.Stats(); st.Durable != 3 || st.Rounds != 2 {
		t.Errorf("durable %d after %d rounds, want 3 after 2", st.Durable, st.Rounds)
	}
}

// TestFailedFsyncPoisonsTheLog: once a round's fsync has failed, no later
// Append, Commit or Truncate succeeds — not even the Commit of a transaction
// appended before the failure, with fsyncs working again — and the durable
// watermark stays where the last good fsync left it: the kernel may have
// dropped the pages the failed fsync did not write.
func TestFailedFsyncPoisonsTheLog(t *testing.T) {
	l := openT(t, t.TempDir())
	defer l.Close()
	op := []Op{{Kind: OpPut, Tree: "t", Key: 1, Value: []byte("v")}}
	appendCommitT(t, l, 1, op)
	var seqs [2]uint64
	for i := range seqs {
		seq, err := l.Append(uint64(i+2), op)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = seq
	}
	errSync := errors.New("injected fsync failure")
	syncFile = func(*os.File) error { return errSync }
	t.Cleanup(func() { syncFile = (*os.File).Sync })
	if err := l.Commit(seqs[0]); !errors.Is(err, errSync) {
		t.Fatalf("Commit whose fsync fails = %v, want the injected error", err)
	}
	syncFile = (*os.File).Sync
	if err := l.Commit(seqs[1]); !errors.Is(err, errSync) {
		t.Errorf("Commit after the failed round = %v, want the injected error", err)
	}
	if _, err := l.Append(4, op); !errors.Is(err, errSync) {
		t.Errorf("Append after the failed round = %v, want the injected error", err)
	}
	if err := l.Truncate(seqs[1]); !errors.Is(err, errSync) {
		t.Errorf("Truncate after the failed round = %v, want the injected error", err)
	}
	if st := l.Stats(); st.Durable != 1 {
		t.Errorf("durable watermark %d after the failed round, want 1", st.Durable)
	}
}

// TestConcurrentCommitAndTruncate races committers against periodic
// checkpoint truncations, which empty the file under a round's fsync and
// raise the watermark with no fsync of their own: every committer still
// returns, and every transaction ends up durable.
func TestConcurrentCommitAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	defer l.Close()

	const total = 120
	var mu sync.Mutex // serializes Append+Truncate like pagedb's write lock
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				txnID := uint64(w*(total/4) + i + 1)
				mu.Lock()
				seq, err := l.Append(txnID, []Op{{Kind: OpPut, Tree: "t", Key: txnID, Value: []byte("v")}})
				if err == nil && txnID%16 == 0 {
					// Checkpoint: under pagedb's lock the checkpoint covers
					// every appended txn, then truncates.
					err = l.Truncate(seq)
				}
				mu.Unlock()
				if err == nil {
					err = l.Commit(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Seq != total || st.Durable != total {
		t.Fatalf("seq=%d durable=%d, want %d", st.Seq, st.Durable, total)
	}
	if st.Truncations == 0 {
		t.Fatal("no truncation ever ran")
	}
}

// TestTruncateCrashStates: Truncate issues no fsync, so a kill or power cut
// before the next round's can leave the file at any step of its rewrite. Each
// such file reopens with Replay(ck) — ck the durable checkpoint's seq — at a
// seq no lower than ck, replays exactly the appended frames past ck, and
// keeps a transaction appended after the reopen through a second one. The
// empty file is the case the floor exists for: without it the log would
// restart at seq 1, and the second reopen's Replay(ck) would skip the append.
func TestTruncateCrashStates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	put := func(txn uint64, n int) []Op {
		return []Op{{Kind: OpPut, Tree: "t", Key: txn, Value: bytes.Repeat([]byte{byte(txn)}, n)}}
	}
	for txn := uint64(1); txn <= 3; txn++ {
		appendCommitT(t, l, txn, put(txn, 200))
	}
	old, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	ck := l.Seq()
	if err := l.Truncate(ck); err != nil {
		t.Fatal(err)
	}
	for txn := uint64(4); txn <= 5; txn++ {
		appendCommitT(t, l, txn, put(txn, 10))
	}
	l.Close()
	cur, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) >= len(old) {
		t.Fatalf("the new frames (%d bytes) must end short of the old ones (%d)", len(cur), len(old))
	}
	cat := func(a, b []byte) []byte { return append(bytes.Clone(a), b...) }
	for _, c := range []struct {
		name string
		file []byte
		want []uint64 // the transactions past ck that replay
	}{
		{"old frames intact", old, nil},
		{"empty file", nil, nil},
		{"header only", cur[:headerSize], nil},
		{"new header over old frames", cat(cur[:headerSize], old[headerSize:]), nil},
		{"new frames then stale bytes", cat(cur, old[len(cur):]), []uint64{4, 5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(logPath(dir), c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			// reopen replays past ck, and appends transaction 9 if asked.
			reopen := func(appendOne bool) []uint64 {
				l := openT(t, dir)
				defer l.Close()
				var ids []uint64
				for _, txn := range collect(t, l, ck) {
					ids = append(ids, txn.ID)
				}
				if l.Seq() < ck {
					t.Errorf("reopened at seq %d, below the checkpoint's %d", l.Seq(), ck)
				}
				if appendOne {
					appendCommitT(t, l, 9, put(9, 10))
				}
				return ids
			}
			if got := reopen(true); !slices.Equal(got, c.want) {
				t.Fatalf("replayed %v past %d, want %v", got, ck, c.want)
			}
			if got := reopen(false); !slices.Equal(got, append(c.want, 9)) {
				t.Fatalf("after an append and a second reopen, replayed %v, want %v", got, append(c.want, 9))
			}
		})
	}
}

// TestAppendBytesCountsWhatReachesTheFiles: wal.append.bytes is the log's
// line of the write-byte budget, so it must be what the file held, to within
// its header, summed over the truncations that emptied it.
func TestAppendBytesCountsWhatReachesTheFiles(t *testing.T) {
	dir, reg := t.TempDir(), obs.New()
	l, err := Open(Options{Dir: dir, NoSync: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var onDisk int64
	frameBytes := func() {
		fi, err := os.Stat(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size() - headerSize
	}
	r := rand.New(rand.NewPCG(17, 4))
	for txn := uint64(1); txn <= 300; txn++ {
		ops := make([]Op, 1+r.IntN(5))
		for i := range ops {
			ops[i] = Op{Kind: OpPut, Tree: fmt.Sprintf("tree-%d", r.IntN(4)), Key: r.Uint64(), Value: make([]byte, r.IntN(200))}
			if r.IntN(6) == 0 {
				ops[i] = Op{Kind: OpDelete, Tree: ops[i].Tree, Key: ops[i].Key}
			}
		}
		if _, err := l.Append(txn, ops); err != nil {
			t.Fatal(err)
		}
		if txn%70 == 0 {
			frameBytes()
			if err := l.Truncate(l.Seq()); err != nil {
				t.Fatal(err)
			}
		}
	}
	frameBytes()
	if got := reg.Counter("wal.append.bytes").Value(); int64(got) != onDisk || got == 0 || l.Stats().Truncations != 4 {
		t.Errorf("wal.append.bytes = %d over %d truncations, the file held %d frame bytes", got, l.Stats().Truncations, onDisk)
	}
}

// The reference encoders: a transaction's entries built apart, then framed
// and copied onto the buffer, written from the format's description rather
// than from Append's in-place encoders. The bytes that reach the file are
// held to them.
func refFrame(buf []byte, txnID, seq uint64, entries []byte) []byte {
	body := binary.LittleEndian.AppendUint64(nil, txnID)
	body = binary.LittleEndian.AppendUint64(body, seq)
	body = append(body, entries...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
	return append(buf, body...)
}

func refBind(p []byte, id uint32, name string) []byte {
	p = binary.AppendUvarint(append(p, 4), uint64(id))
	p = binary.AppendUvarint(p, uint64(len(name)))
	return append(p, name...)
}

func refOp(p []byte, treeID uint32, op Op) []byte {
	switch op.Kind {
	case OpPut:
		p = binary.AppendUvarint(append(p, 1), uint64(treeID))
		p = binary.LittleEndian.AppendUint64(p, op.Key)
		p = binary.AppendUvarint(p, uint64(len(op.Value)))
		return append(p, op.Value...)
	case OpDelete:
		p = binary.AppendUvarint(append(p, 2), uint64(treeID))
		return binary.LittleEndian.AppendUint64(p, op.Key)
	}
	return binary.AppendUvarint(append(p, 3), uint64(treeID))
}

// TestRecordBytesAreTheReferenceEncoders: every entry kind, with empty,
// one-byte and 64 KiB values, a 300-byte tree name, an empty transaction and
// a drop followed by a reuse of the tree, through Append into the log file,
// is byte for byte what the reference encoders produce.
func TestRecordBytesAreTheReferenceEncoders(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	txns := [][]Op{
		{{Kind: OpPut, Tree: "a", Key: 1, Value: nil}},
		{{Kind: OpPut, Tree: "a", Key: 2, Value: []byte{0x5A}}, {Kind: OpDelete, Tree: "b", Key: 2}},
		{{Kind: OpPut, Tree: "b", Key: ^uint64(0), Value: big}, {Kind: OpDropTree, Tree: "a"}, {Kind: OpPut, Tree: strings.Repeat("n", 300), Key: 3, Value: big[:1]}},
		{}, // a frame with no entries
		{{Kind: OpDropTree, Tree: "c"}, {Kind: OpDelete, Tree: "c", Key: 0}, {Kind: OpPut, Tree: "c", Key: 0, Value: []byte{}}},
	}
	var want []byte
	names := map[string]uint32{}
	for i, ops := range txns {
		txnID := uint64(100 + i)
		seq, err := l.Append(txnID, ops)
		if err != nil {
			t.Fatal(err)
		}
		var entries []byte
		for _, op := range ops {
			id, ok := names[op.Tree]
			if !ok {
				id = uint32(len(names) + 1)
				names[op.Tree] = id
				entries = refBind(entries, id, op.Tree)
			}
			entries = refOp(entries, id, op)
		}
		want = refFrame(want, txnID, seq, entries)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got = got[headerSize:]; !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("the file holds %d frame bytes, the reference encoders give %d; they differ at offset %d", len(got), len(want), n)
	}
	// A put of a 100-byte value to a bound tree carries 3 bytes besides its
	// key and value: the kind, the tree id and the value length.
	if n := len(refOp(nil, 1, Op{Kind: OpPut, Value: make([]byte, 100)})); n != 3+8+100 {
		t.Errorf("a 100-byte put entry is %d bytes, want %d", n, 3+8+100)
	}
}

// TestScanEndsAtMalformedEntries: a frame whose checksum holds but whose
// entries break the format ends the scan at the frame before it, as a tear
// does; and a replayed value is capped, so appending to it cannot overwrite
// the op after it.
func TestScanEndsAtMalformedEntries(t *testing.T) {
	put := Op{Kind: OpPut, Key: 1, Value: []byte("a")}
	good := refOp(refBind(nil, 1, "a"), 1, put)
	// The first frame binds tree 1; each case is the second frame's entries.
	op1 := refOp(nil, 1, put)
	cases := map[string][]byte{
		"bind out of order": refOp(refBind(nil, 3, "b"), 2, put),
		"unbound tree":      refOp(nil, 2, put),
		"unknown kind":      append([]byte{9, 1}, make([]byte, 8)...),
		"tree id 0":         {3, 0},
		"value past frame":  op1[:len(op1)-1],
		"short key":         []byte{2, 1, 0, 0},
		"name past frame":   refBind(nil, 2, "bc")[:4],
	}
	for name, entries := range cases {
		file := make([]byte, headerSize)
		encodeHeader(file, 0)
		first := len(refFrame(file, 1, 1, good))
		file = refFrame(refFrame(file, 1, 1, good), 2, 2, entries)
		if sc, err := scanFrames(file, 0, nil, 0); err != nil || sc.tail != first || sc.lastSeq != 1 {
			t.Errorf("%s: the scan stops at %d with seq %d (%v), want %d and 1", name, sc.tail, sc.lastSeq, err, first)
		}
	}

	file := make([]byte, headerSize)
	encodeHeader(file, 0)
	file = refFrame(file, 1, 1, refOp(refOp(good, 1, Op{Kind: OpPut, Key: 2, Value: []byte("bb")}), 1, put))
	_, err := scanFrames(file, 0, func(txn *Txn) error {
		_ = append(txn.Ops[0].Value, bytes.Repeat([]byte{'X'}, 20)...)
		if v := txn.Ops[1].Value; string(v) != "bb" {
			t.Errorf("appending to the first value rewrote the second to %q", v)
		}
		return nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
}

// TestAppendRefusesOversizedTxn: a frame whose body is exactly maxFrameBody is
// written and replays; one byte more fails with ErrTooLarge before a byte
// reaches the file, unbinds the tree it bound, and leaves the log usable.
func TestAppendRefusesOversizedTxn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// A lone put binding a one-letter tree: 16 bytes of txn id and seq, a
	// 4-byte bind, 10 bytes of put entry head, a 4-byte value length.
	val := make([]byte, maxFrameBody-34+1)
	atBound := Op{Kind: OpPut, Tree: "t", Key: 1, Value: val[:len(val)-1]}
	if n := len(refFrame(nil, 1, 1, refOp(refBind(nil, 1, "t"), 1, atBound))) - 8; n != maxFrameBody {
		t.Fatalf("the at-bound frame has a %d-byte body, want %d", n, maxFrameBody)
	}

	path := logPath(dir)
	if _, err := l.Append(1, []Op{{Kind: OpPut, Tree: "u", Key: 1, Value: val}}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Append of a %d-byte body = %v, want ErrTooLarge", maxFrameBody+1, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != headerSize {
		t.Fatalf("after the refusal the file is %v bytes (%v), want the bare %d-byte header", fi.Size(), err, headerSize)
	}
	// The refused transaction took no seq and no tree id: "u" binds again,
	// as id 1, in the next transaction.
	if seq := appendCommitT(t, l, 2, []Op{{Kind: OpPut, Tree: "u", Key: 2, Value: []byte("small")}}); seq != 1 {
		t.Fatalf("seq after the refusal = %d, want 1", seq)
	}
	if seq := appendCommitT(t, l, 3, []Op{atBound}); seq != 2 {
		t.Fatalf("seq of the at-bound transaction = %d, want 2", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir)
	defer l2.Close()
	got := collect(t, l2, 0)
	if len(got) != 2 || got[0].Ops[0].Tree != "u" || string(got[0].Ops[0].Value) != "small" ||
		got[1].Ops[0].Tree != "t" || len(got[1].Ops[0].Value) != maxFrameBody-34 {
		t.Fatalf("replayed %d transactions, want the small one on u and the at-bound one on t", len(got))
	}
}

// TestOldFormatIsRefusedByName: a log file of the previous format, and a
// directory holding that format's generation files (wal-*.log), fail Open
// with an error naming the format or the file, and are left as they were —
// never taken for a torn header and emptied.
func TestOldFormatIsRefusedByName(t *testing.T) {
	// A PGWALOG2 generation: magic | generation | base seq | crc, and one
	// frame binding tree 1 to "a".
	old := make([]byte, 28, 64)
	copy(old, "PGWALOG2")
	binary.LittleEndian.PutUint64(old[8:], 1)
	binary.LittleEndian.PutUint32(old[24:], crc32.Checksum(old[:24], castagnoli))
	old = refFrame(old, 1, 1, refBind(nil, 1, "a"))
	for _, c := range []struct{ file, want string }{
		{logName, `"PGWALOG2"`},
		{"wal-0000000000000001.log", "wal-0000000000000001.log"},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, c.file)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Open over a PGWALOG2 %s = %v, want an error naming %s", c.file, err, c.want)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, old) {
			t.Fatalf("the old %s changed under the refused Open (%v)", c.file, err)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
			t.Fatalf("files after the refused Open = %v (%v), want the old one alone", ents, err)
		}
	}
}

// TestAppendAllocatesNothing: once the staging buffer has grown to the
// transaction, appending it — a bind-free twelve-op transaction, to a file —
// allocates nothing.
func TestAppendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	l, err := Open(Options{Dir: t.TempDir(), NoSync: true, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ops := twelveOps()
	txnID := uint64(0)
	if allocs := testing.AllocsPerRun(200, func() {
		txnID++
		if _, err := l.Append(txnID, ops); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Append allocates %v times per transaction, want 0", allocs)
	}
}

// twelveOps is a TPC-C-sized transaction: ten puts of ~100 bytes over three
// trees, a delete and a drop.
func twelveOps() []Op {
	ops := make([]Op, 0, 12)
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Kind: OpPut, Tree: fmt.Sprintf("tree-%d", i%3), Key: uint64(i), Value: make([]byte, 90+i)})
	}
	return append(ops, Op{Kind: OpDelete, Tree: "tree-0", Key: 99}, Op{Kind: OpDropTree, Tree: "tree-9"})
}
