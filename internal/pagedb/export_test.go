package pagedb

import "repro/internal/btree"

// budget is the per-node byte budget: the page minus the image header.
func (db *DB) budget() int { return btree.PageLayout.Budget(db.pageSize) }

// crash simulates a process crash for tests: the DB is abandoned without a
// final commit, checkpoint, or store shutdown — on-disk state stays exactly
// as the last Apply left it. The store's file handles leak until the test
// process exits, which keeps the files bit-identical to a real crash.
func (db *DB) crash() {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
}

// drawScratch takes a transaction scratch out of the recycling pool as Begin
// would, or returns nil when the pool has none to give.
func (db *DB) drawScratch() *txnScratch {
	sc, _ := db.scratch.Get().(*txnScratch)
	return sc
}

// TreeNames lists the named trees in creation order.
func (db *DB) TreeNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.order...)
}
