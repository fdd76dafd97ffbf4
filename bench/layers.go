package main

import (
	"syscall"

	"repro/internal/tpcc"
)

// cpuUS is the process's user and system CPU time in microseconds.
func cpuUS(r syscall.Rusage) float64 {
	return float64(r.Utime.Sec+r.Stime.Sec)*1e6 + float64(r.Utime.Usec+r.Stime.Usec)
}

// endToEndMetrics fills the cost ratios of the measured phase. Where that
// phase writes nothing (kv_read_fit, whose reads also allocate nothing), they
// are the ratios of the load, so that no end-to-end metric is ever 0.
func endToEndMetrics(m metrics, ph phase, ld loadPhase) {
	ops, userBytes := float64(ph.attempted), float64(ph.rec.userBytes)
	from, to, fsyncsBefore := ph.before.proc, ph.after, fsyncs(ph.before.obs)
	if ph.rec.userBytes == 0 {
		ops, userBytes = float64(ld.ops), float64(ld.userBytes)
		from, to, fsyncsBefore = ld.start, ld.end, 0 // a fresh engine has issued no fsync
	}
	m["disk_bytes_per_user_byte"] = ratio(float64(to.proc.wchar-from.wchar), userBytes)
	m["fsyncs_per_op"] = ratio(float64(fsyncs(to.obs)-fsyncsBefore), ops)
	m["alloc_bytes_per_op"] = ratio(float64(to.proc.mem.TotalAlloc-from.mem.TotalAlloc), ops)
}

// clientMetrics are the wall-clock view of the closed-loop client:
// throughput and latency, which on a shared box follow the speed of the
// minute and so carry no bound.
func clientMetrics(m metrics, ph phase) {
	lat := sortedCopy(ph.rec.lat)
	m["client.ops_per_s"] = ph.rate()
	m["client.samples"] = float64(len(lat))
	m["client.op_mean_us"] = mean(lat) / 1e3
	m["client.op_p50_us"] = float64(quantile(lat, 0.50)) / 1e3
	m["client.op_p99_us"] = float64(quantile(lat, 0.99)) / 1e3
	m["client.op_p999_us"] = float64(quantile(lat, 0.999)) / 1e3
	m["client.op_max_us"] = float64(quantile(lat, 1)) / 1e3
}

// histDelta is the sample count and mean (in ns) a latency series gained
// over a phase. The series are power-of-two histograms, so the mean is
// approximate.
func histDelta(ph phase, name string) (count, meanNS float64) {
	a, b := ph.after.obs.Histograms[name], ph.before.obs.Histograms[name]
	count = float64(a.Count - b.Count)
	return count, ratio(a.Mean*float64(a.Count)-b.Mean*float64(b.Count), count)
}

// statMetrics are the deltas of the modules' public Stats and Obs series
// over the untraced phase, and the process's own counters.
func statMetrics(m metrics, ph phase) {
	ops := float64(ph.attempted)
	a, b := ph.after.db, ph.before.db
	d := func(after, before uint64) float64 { return float64(after - before) }

	checkpoints := d(a.Commits, b.Commits)
	m["pagedb.checkpoint_pages"] = ratio(d(a.CommittedPages, b.CommittedPages), checkpoints)
	m["pagedb.faults_per_op"] = d(a.Faults, b.Faults) / ops
	_, faultNS := histDelta(ph, "pagedb.fault.ns")
	m["pagedb.fault_us"] = faultNS / 1e3
	m["pagedb.staged_evictions_per_op"] = d(a.StagedEvictions, b.StagedEvictions) / ops

	hits, misses := d(a.Pool.Hits, b.Pool.Hits), d(a.Pool.Misses, b.Pool.Misses)
	m["bufferpool.hit_ratio"] = ratio(hits, hits+misses)
	m["bufferpool.fused_hit_share"] = ratio(d(a.Pool.FusedHits, b.Pool.FusedHits), hits)
	m["bufferpool.evictions_per_op"] = d(a.Pool.Evictions, b.Pool.Evictions) / ops
	m["bufferpool.dirty_evictions_per_op"] = d(a.Pool.DirtyEvictions, b.Pool.DirtyEvictions) / ops
	m["bufferpool.grows"] = d(a.Pool.Grows, b.Pool.Grows)

	commits := d(a.WAL.Commits, b.WAL.Commits)
	m["wal.commits"] = commits
	m["wal.rounds_per_commit"] = ratio(d(a.WAL.Rounds, b.WAL.Rounds), commits)
	m["wal.syncs_per_commit"] = ratio(d(a.WAL.Syncs, b.WAL.Syncs), commits)
	m["wal.truncations"] = d(a.WAL.Truncations, b.WAL.Truncations)
	_, ns := histDelta(ph, "wal.fsync.ns")
	m["wal.fsync_ms"] = ns / 1e6
	_, ns = histDelta(ph, "wal.commit.ns")
	m["wal.commit_wait_ms"] = ns / 1e6

	sa, sb := a.Store, b.Store
	user := d(sa.UserWrites, sb.UserWrites)
	cleaned := d(sa.SegmentsCleaned, sb.SegmentsCleaned)
	m["store.user_pages_per_op"] = user / ops
	m["store.gc_pages_per_user_page"] = ratio(d(sa.GCWrites, sb.GCWrites), user)
	m["store.fill_factor"] = sa.FillFactor
	m["store.mean_e_at_clean"] = ratio(sa.MeanEAtClean*float64(sa.SegmentsCleaned)-sb.MeanEAtClean*float64(sb.SegmentsCleaned), cleaned)
	m["store.segments_cleaned"] = cleaned
	m["store.fsync_rounds_per_commit"] = ratio(d(sa.FsyncRounds, sb.FsyncRounds), d(sa.Commits, sb.Commits))
	m["store.fsyncs"], _ = histDelta(ph, "store.fsync.ns")
	_, ns = histDelta(ph, "store.read.ns")
	m["store.read_us"] = ns / 1e3
	m["store.errfull"] = d(ph.after.obs.Counters["store.errfull"], ph.before.obs.Counters["store.errfull"])

	// The cleaner series are the background goroutine's; cleaning in the
	// foreground (store_zipf_f80) shows under store.* only.
	ca, cb := sa.Cleaner, sb.Cleaner
	m["cleaner.cycles"] = d(ca.Cycles, cb.Cycles)
	m["cleaner.bytes_relocated_per_user_byte"] = ratio(d(ca.BytesRelocated, cb.BytesRelocated), float64(ph.rec.userBytes))
	m["cleaner.writer_stalls"] = d(ca.WriterStalls, cb.WriterStalls)
	m["cleaner.stall_ms_total"] = float64(ca.WriterStallTime-cb.WriterStallTime) / 1e6
	_, ns = histDelta(ph, "cleaner.select.ns")
	m["cleaner.select_us_mean"] = ns / 1e3
	_, ns = histDelta(ph, "cleaner.relocate.ns")
	m["cleaner.relocate_ms_mean"] = ns / 1e6
	_, ns = histDelta(ph, "cleaner.release.ns")
	m["cleaner.release_us_mean"] = ns / 1e3

	pa, pb := ph.after.proc, ph.before.proc
	m["process.cpu_us_per_op"] = (cpuUS(pa.ru) - cpuUS(pb.ru)) / ops
	m["process.allocs_per_op"] = d(pa.mem.Mallocs, pb.mem.Mallocs) / ops
	m["process.gc_pause_ms_total"] = d(pa.mem.PauseTotalNs, pb.mem.PauseTotalNs) / 1e6
	m["process.peak_rss_mb"] = float64(pa.ru.Maxrss) / 1024 // Linux reports KiB
}

// spanMetrics are the roll-up of the traced phase's spans.
func spanMetrics(m metrics, traced, untraced phase, w workload) {
	r := traced.rec.tr.roll()
	wall := float64(traced.wall)
	clients := 1.0
	if t, ok := w.(*tpccWL); ok {
		clients = float64(t.p.workers)
	}

	txns := float64(r.count[spTPCCTxn])
	calls := r.count[spTxnGet] + r.count[spTxnPut] + r.count[spTxnScan] + r.count[spTxnDelete] + r.count[spTxnCommit]
	m["tpcc.txn_self_us"] = ratio(float64(r.self[spTPCCTxn]), txns) / 1e3
	m["tpcc.storage_calls_per_txn"] = ratio(float64(calls), txns)
	for t, metric := range map[tpcc.Tx]string{
		tpcc.TxNewOrder: "tpcc.new_order_p50_us", tpcc.TxPayment: "tpcc.payment_p50_us",
		tpcc.TxOrderStatus: "tpcc.order_status_p50_us", tpcc.TxDelivery: "tpcc.delivery_p50_us",
		tpcc.TxStockLevel: "tpcc.stock_level_p50_us",
	} {
		m[metric] = float64(quantile(sortedCopy(traced.rec.byType[t]), 0.5)) / 1e3
	}

	m["pagedb.txn_get_us"] = r.meanUS(spTxnGet)
	m["pagedb.txn_put_us"] = r.meanUS(spTxnPut)
	m["pagedb.txn_scan_us"] = r.meanUS(spTxnScan)
	m["pagedb.txn_commit_us"] = r.meanUS(spTxnCommit)
	m["pagedb.txn_commit_wall_share"] = float64(r.total[spTxnCommit]) / (wall * clients)
	m["pagedb.tree_get_ns"] = r.meanUS(spTreeGet) * 1e3
	m["pagedb.tree_scan100_us"] = r.meanUS(spTreeScan)
	ckpt := sortedCopy(r.durs[spCheckpoint])
	m["pagedb.checkpoint_count"] = float64(len(ckpt))
	m["pagedb.checkpoint_mean_ms"] = mean(ckpt) / 1e6
	m["pagedb.checkpoint_p99_ms"] = float64(quantile(ckpt, 0.99)) / 1e6
	m["pagedb.checkpoint_wall_share"] = float64(r.total[spCheckpoint]) / wall

	apply := sortedCopy(r.durs[spStoreApply])
	m["store.apply_us"] = mean(apply) / 1e3
	m["store.apply_p99_us"] = float64(quantile(apply, 0.99)) / 1e3

	// Tree shape: a lookup that faults nothing makes one pool access per
	// level, so on kv_read_fit this is the height plus the scans' extra
	// leaves.
	m["btree.height"], m["btree.nodes_per_lookup"] = 0, 0
	if kv, ok := w.(*kvWL); ok {
		a, b := untraced.after.db.Pool, untraced.before.db.Pool
		m["btree.height"] = float64(kv.tree.Height())
		m["btree.nodes_per_lookup"] = float64(a.Hits+a.Misses-b.Hits-b.Misses) / float64(untraced.attempted)
	}
}
