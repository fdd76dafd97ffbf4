package core

import "sync"

// GroupCommit is the group commit of the durable engines (the store under
// DurCommit, the WAL): it holds the highest seq known durable and the flush
// round in flight, so one fsync serves every committer ready for it. The zero
// value is ready, with nothing durable.
type GroupCommit struct {
	mu      sync.Mutex
	durable uint64
	cur     *flushRound // nil when no round is in flight
}

// flushRound is one round in flight; followers block on done and read err
// after it closes.
type flushRound struct {
	done chan struct{}
	err  error
}

// Wait blocks until seq target is durable. The first waiter to find no round
// in flight leads one: flush makes every seq up to upTo durable, and Wait
// publishes upTo. The others wait on its outcome and re-check, since it may
// have started before their seqs were written; a failed round's error goes to
// its leader and every follower, and the next Wait leads afresh. The caller
// must not hold a lock that flush takes.
func (g *GroupCommit) Wait(target uint64, flush func() (upTo uint64, err error)) error {
	g.mu.Lock()
	for g.durable < target {
		if r := g.cur; r != nil {
			g.mu.Unlock()
			<-r.done
			if r.err != nil {
				return r.err
			}
			g.mu.Lock()
			continue
		}
		r := &flushRound{done: make(chan struct{})}
		g.cur = r
		g.mu.Unlock()
		upTo, err := flush()
		g.mu.Lock()
		if err == nil {
			g.durable = max(g.durable, upTo)
		}
		r.err, g.cur = err, nil
		close(r.done)
		if err != nil {
			g.mu.Unlock()
			return err
		}
	}
	g.mu.Unlock()
	return nil
}

// Advance raises the durable seq to seq, releasing the waiters it covers at
// their next check, and reports whether it moved.
func (g *GroupCommit) Advance(seq uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if seq <= g.durable {
		return false
	}
	g.durable = seq
	return true
}

// Durable returns the highest seq known durable.
func (g *GroupCommit) Durable() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.durable
}
