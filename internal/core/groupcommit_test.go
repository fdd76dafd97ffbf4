package core

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// gcRound is a flush under the test's control: it counts its calls, reports
// each start on started, and returns what the test sends on result.
type gcRound struct {
	calls   atomic.Int32
	started chan struct{}
	result  chan gcResult
}

type gcResult struct {
	upTo uint64
	err  error
}

func newRound() *gcRound {
	return &gcRound{started: make(chan struct{}, 8), result: make(chan gcResult, 8)}
}

func (r *gcRound) flush() (uint64, error) {
	r.calls.Add(1)
	r.started <- struct{}{}
	res := <-r.result
	return res.upTo, res.err
}

// awaitStart blocks until a flush of r has started, failing the test if none
// does.
func (r *gcRound) awaitStart(t *testing.T) {
	t.Helper()
	select {
	case <-r.started:
	case <-time.After(10 * time.Second):
		t.Fatal("no round started")
	}
}

// waitAsync runs g.Wait(target, flush) on a goroutine; its error arrives on
// the returned channel.
func waitAsync(g *GroupCommit, target uint64, flush func() (uint64, error)) <-chan error {
	done := make(chan error, 1)
	go func() { done <- g.Wait(target, flush) }()
	return done
}

// parked blocks until n goroutines wait inside Wait itself — followers on
// the round in flight, not a leader inside its flush — read from their
// stacks, so a test knows its followers joined the round before it ends it.
func parked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if lines := strings.SplitN(g, "\n", 3); len(lines) > 1 && strings.HasPrefix(lines[1], "repro/internal/core.(*GroupCommit).Wait(") {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d followers parked on the round", got, n)
		}
	}
}

// recv returns the error a Wait returned, failing the test if it takes long.
func recv(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("a Wait did not return")
		return nil
	}
}

func noFlush(t *testing.T) func() (uint64, error) {
	return func() (uint64, error) {
		t.Error("a waiter led a round it should not have")
		return 0, errors.New("unexpected flush")
	}
}

// TestGroupCommitFollowersCoalesce: waiters that find a round in flight wait
// on it, and one flush covering them all serves every one.
func TestGroupCommitFollowersCoalesce(t *testing.T) {
	var g GroupCommit
	r := newRound()
	lead := waitAsync(&g, 1, r.flush)
	r.awaitStart(t)
	const n = 4
	var follow [n]<-chan error
	for i := range follow {
		follow[i] = waitAsync(&g, uint64(2+i), r.flush)
	}
	parked(t, n)
	r.result <- gcResult{upTo: n + 1}
	for _, done := range append(follow[:], lead) {
		if err := recv(t, done); err != nil {
			t.Fatal(err)
		}
	}
	if c, d := r.calls.Load(), g.Durable(); c != 1 || d != n+1 {
		t.Fatalf("%d flushes, durable %d; want 1 and %d", c, d, n+1)
	}
}

// TestGroupCommitUncoveredFollowerLeadsNext: a round that started before a
// follower's seq was written does not cover it; the follower re-checks and
// leads the next round.
func TestGroupCommitUncoveredFollowerLeadsNext(t *testing.T) {
	var g GroupCommit
	first, next := newRound(), newRound()
	lead := waitAsync(&g, 1, first.flush)
	first.awaitStart(t)
	follow := waitAsync(&g, 2, next.flush)
	parked(t, 1)
	first.result <- gcResult{upTo: 1}
	if err := recv(t, lead); err != nil {
		t.Fatal(err)
	}
	next.awaitStart(t)
	next.result <- gcResult{upTo: 2}
	if err := recv(t, follow); err != nil {
		t.Fatal(err)
	}
	if c, d := next.calls.Load(), g.Durable(); c != 1 || d != 2 {
		t.Fatalf("the follower led %d rounds, durable %d; want 1 and 2", c, d)
	}
}

// TestGroupCommitErrorReachesFollowers: a failed round's error is every
// waiter's on it, nothing becomes durable, and the next Wait leads afresh.
func TestGroupCommitErrorReachesFollowers(t *testing.T) {
	var g GroupCommit
	r := newRound()
	boom := errors.New("fsync failed")
	lead := waitAsync(&g, 1, r.flush)
	r.awaitStart(t)
	follow := waitAsync(&g, 2, noFlush(t))
	parked(t, 1)
	r.result <- gcResult{upTo: 2, err: boom}
	for _, done := range []<-chan error{lead, follow} {
		if err := recv(t, done); err != boom {
			t.Fatalf("a waiter got %v, want the round's %v", err, boom)
		}
	}
	if d := g.Durable(); d != 0 {
		t.Fatalf("a failed round made %d durable", d)
	}
	again := newRound()
	done := waitAsync(&g, 2, again.flush)
	again.awaitStart(t)
	again.result <- gcResult{upTo: 2}
	if err := recv(t, done); err != nil || g.Durable() != 2 {
		t.Fatalf("the next Wait: %v, durable %d", err, g.Durable())
	}
}

// TestGroupCommitAdvanceReleasesWaiters: an Advance from outside the rounds
// (a WAL truncation) covers waiters with no flush of their own — one parked
// on a round that does not cover it, and one that arrives after.
func TestGroupCommitAdvanceReleasesWaiters(t *testing.T) {
	var g GroupCommit
	r := newRound()
	lead := waitAsync(&g, 1, r.flush)
	r.awaitStart(t)
	follow := waitAsync(&g, 5, noFlush(t))
	parked(t, 1)
	if !g.Advance(5) || g.Advance(4) {
		t.Fatal("Advance reported the wrong move")
	}
	r.result <- gcResult{upTo: 1}
	for _, done := range []<-chan error{lead, follow} {
		if err := recv(t, done); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Wait(5, noFlush(t)); err != nil || g.Durable() != 5 {
		t.Fatalf("a covered Wait: %v, durable %d", err, g.Durable())
	}
}
