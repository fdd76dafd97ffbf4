package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported number. The same tables are written into
// BENCHMARK.json; TestContractMatchesCode keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics of the untraced run, the same on every
// workload. README.md defines each.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"disk_bytes_per_user_byte", "ratio", "lower"},
	{"space_amp", "ratio", "lower"},
	{"fsyncs_per_op", "ratio", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"heap_live_mb", "MiB", "lower"},
}

// perLayer lists the metrics of the traced run, named <layer>.<metric>. A
// workload that does not reach a layer reports 0 for it.
var perLayer = []metricDef{
	{"tpcc.txn_self_us", "us", "lower"},
	{"tpcc.storage_calls_per_txn", "count", "lower"},
	{"tpcc.new_order_p50_us", "us", "lower"},
	{"tpcc.payment_p50_us", "us", "lower"},
	{"tpcc.order_status_p50_us", "us", "lower"},
	{"tpcc.delivery_p50_us", "us", "lower"},
	{"tpcc.stock_level_p50_us", "us", "lower"},

	{"pagedb.txn_get_us", "us", "lower"},
	{"pagedb.txn_put_us", "us", "lower"},
	{"pagedb.txn_scan_us", "us", "lower"},
	{"pagedb.txn_commit_us", "us", "lower"},
	{"pagedb.txn_commit_wall_share", "ratio", "lower"},
	{"pagedb.tree_get_ns", "ns", "lower"},
	{"pagedb.tree_scan100_us", "us", "lower"},
	{"pagedb.checkpoint_count", "count", "lower"},
	{"pagedb.checkpoint_mean_ms", "ms", "lower"},
	{"pagedb.checkpoint_p99_ms", "ms", "lower"},
	{"pagedb.checkpoint_wall_share", "ratio", "lower"},
	{"pagedb.open_s", "s", "lower"},
	{"pagedb.checkpoint_pages", "count", "lower"},
	{"pagedb.faults_per_op", "ratio", "lower"},
	{"pagedb.fault_us", "us", "lower"},
	{"pagedb.staged_evictions_per_op", "ratio", "lower"},
	{"pagedb.replayed_txns", "count", "lower"},

	{"btree.height", "count", "lower"},
	{"btree.nodes_per_lookup", "ratio", "lower"},
	{"btree.mem_get_ns", "ns", "lower"},
	{"btree.mem_put_ns", "ns", "lower"},

	{"bufferpool.hit_ratio", "ratio", "higher"},
	{"bufferpool.fused_hit_share", "ratio", "higher"},
	{"bufferpool.evictions_per_op", "ratio", "lower"},
	{"bufferpool.dirty_evictions_per_op", "ratio", "lower"},
	{"bufferpool.grows", "count", "lower"},
	{"bufferpool.fetch_release_ns", "ns", "lower"},

	{"wal.commits", "count", "higher"},
	{"wal.rounds_per_commit", "ratio", "lower"},
	{"wal.syncs_per_commit", "ratio", "lower"},
	{"wal.truncations", "count", "lower"},
	{"wal.fsync_ms", "ms", "lower"},
	{"wal.commit_wait_ms", "ms", "lower"},
	{"wal.append_commit_us", "us", "lower"},

	{"store.apply_us", "us", "lower"},
	{"store.apply_p99_us", "us", "lower"},
	{"store.open_s", "s", "lower"},
	{"store.user_pages_per_op", "ratio", "lower"},
	{"store.gc_pages_per_user_page", "ratio", "lower"},
	{"store.fill_factor", "ratio", "higher"},
	{"store.mean_e_at_clean", "ratio", "higher"},
	{"store.segments_cleaned", "count", "lower"},
	{"store.fsync_rounds_per_commit", "ratio", "lower"},
	{"store.fsyncs", "count", "lower"},
	{"store.read_us", "us", "lower"},
	{"store.errfull", "count", "lower"},

	{"cleaner.cycles", "count", "lower"},
	{"cleaner.bytes_relocated_per_user_byte", "ratio", "lower"},
	{"cleaner.writer_stalls", "count", "lower"},
	{"cleaner.stall_ms_total", "ms", "lower"},
	{"cleaner.select_us_mean", "us", "lower"},
	{"cleaner.relocate_ms_mean", "ms", "lower"},
	{"cleaner.release_us_mean", "us", "lower"},

	{"sim.updates_per_s", "1/s", "higher"},
	{"sim.wamp", "ratio", "lower"},
	{"sim.mean_e_at_clean", "ratio", "higher"},
	{"sim.engine_wamp_gap", "ratio", "lower"},

	{"vlog.op_ns", "ns", "lower"},
	{"vlog.wamp", "ratio", "lower"},

	{"process.cpu_us_per_op", "us", "lower"},
	{"process.allocs_per_op", "count", "lower"},
	{"process.gc_pause_ms_total", "ms", "lower"},
	{"process.peak_rss_mb", "MiB", "lower"},

	{"client.ops_per_s", "1/s", "higher"},
	{"client.samples", "count", "higher"},
	{"client.op_mean_us", "us", "lower"},
	{"client.op_p50_us", "us", "lower"},
	{"client.op_p99_us", "us", "lower"},
	{"client.op_p999_us", "us", "lower"},
	{"client.op_max_us", "us", "lower"},

	{"trace.overhead_share", "ratio", "lower"},
}

// metrics collects the numbers of one run by name.
type metrics map[string]float64

// quantile returns the q-quantile of sorted by nearest rank: the smallest
// sample with at least a share q of the samples at or below it.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// ratio is a/b, and 0 when the layer behind b did nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints every metric of defs, by name with its unit, one per
// line for people and then as the one-line JSON object the driver reads. A
// metric the run did not produce is an error: a missing number must not
// pass for a zero.
func writeResult(w io.Writer, defs []metricDef, m metrics, attempted, failed int64) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "%-40s %16d\n%-40s %16d\n", "ops attempted", attempted, "ops failed", failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
