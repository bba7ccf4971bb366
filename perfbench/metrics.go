package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. Every name the benchmark
// prints is declared here once; BENCHMARK.json lists the same names
// with the same units (helpers_test.go checks that).
type metricDef struct {
	name string
	unit string
	// base states what a ratio is divided by, or what a value means.
	base string
}

// endToEnd are the metrics a user of the engine sees and a change is
// judged by. They come from untraced runs only. Latency percentiles
// are medians over the 2-second windows of the timed phase.
var endToEnd = []metricDef{
	{"setup_s", "s", "median of the set-up repetitions: engine open plus load"},
	{"read_p50_us", "us", "read ops"},
	{"write_p50_us", "us", "write ops"},
}

// reportOnly are end-to-end metrics printed and archived with the
// others but left out of the JSON result. Scans read exactly zero on
// two workloads and failures on all of them at this baseline, which a
// bound relative to the median cannot judge; throughput, p90, p99 and peak RSS spread more between
// runs on a shared 2-vCPU host than the largest bound allows (see
// README.md).
var reportOnly = []metricDef{
	{"throughput_ops_s", "1/s", "completed ops per second at 2 closed-loop clients"},
	{"read_p90_us", "us", "read ops"},
	{"write_p90_us", "us", "write ops"},
	{"read_p99_us", "us", "read ops"},
	{"write_p99_us", "us", "write ops"},
	{"scan_p50_us", "us", "scan ops (wire-kv, kv-si-large)"},
	{"scan_p90_us", "us", "scan ops (wire-kv, kv-si-large)"},
	{"scan_p99_us", "us", "scan ops (wire-kv, kv-si-large)"},
	{"failed_frac", "frac", "failed ops / attempted ops"},
	{"peak_rss_mib", "MiB", "VmHWM of the process, which runs one workload"},
}

// perLayer are the metrics of single layers, from traced runs. A layer
// a workload does not cross reports 0.
var perLayer = []metricDef{
	{"server.ping_p50_us", "us", "sampled PING round trips on the client connections"},
	{"server.rtt_mean_us", "us", "traced wire requests, client side"},
	{"server.txn_mean_us", "us", "server-side transactions (obs.TxnPhases totals)"},
	{"server.wire_share", "frac", "1 - txn_mean / rtt_mean"},

	{"core.exec_p50_us", "us", "traced ops: one Exec/ExecSI/ExecSnapshot/Executor.Run call"},
	{"core.body_p50_us", "us", "traced ops: all body attempts of the call"},
	{"core.commit_p50_us", "us", "traced ops: exec minus body"},
	{"core.attempts_per_txn", "count", "body attempts per traced call"},
	{"core.aborts_per_commit", "count", "engine aborts per engine commit"},

	{"lock.acquires_per_txn", "count", "per engine commit"},
	{"lock.waits_per_txn", "count", "per engine commit"},
	{"lock.deadlocks", "count", "per timed phase"},
	{"lock.timeouts", "count", "per timed phase"},
	{"lock.bypasses_per_txn", "count", "per engine commit"},

	{"wal.records_per_txn", "count", "per engine commit"},
	{"wal.bytes_per_txn", "B", "per engine commit"},
	{"wal.txns_per_flush", "count", "engine commits per log flush"},
	{"wal.syncs_per_txn", "count", "flusher syncs per engine commit"},
	{"wal.group_insert_frac", "frac", "records inserted by a consolidation group / records"},
	{"wal.dev_writes_per_flush", "count", "device write submissions per log flush"},

	{"buffer.hit_ratio", "frac", "hits / (hits + misses)"},
	{"buffer.misses_per_txn", "count", "per engine commit"},
	{"buffer.evictions_per_txn", "count", "per engine commit"},
	{"buffer.writebacks_per_txn", "count", "per engine commit"},

	{"core.snapshot_reads_per_op", "count", "per completed benchmark op"},
	{"core.chain_read_frac", "frac", "version-chain reads / snapshot reads"},
	{"core.si_conflict_frac", "frac", "SI conflict aborts / SI begins"},
	{"core.mvcc_live_nodes_max", "count", "largest sampled live version count"},

	{"dora.single_partition_frac", "frac", "single-partition txns / DORA txns"},
	{"dora.jobs_per_batch", "count", "jobs per executor inbox drain"},
	{"dora.queue_wait_p50_us", "us", "enqueue to dispatch, executor histogram"},
	{"dora.queue_wait_p99_us", "us", "enqueue to dispatch, executor histogram"},
	{"dora.service_p50_us", "us", "action body run time, executor histogram"},
	{"dora.local_waits_per_txn", "count", "per DORA txn"},

	{"obs.phase_user_us_per_txn", "us", "per folded engine transaction"},
	{"obs.phase_lock_wait_us_per_txn", "us", "per folded engine transaction"},
	{"obs.phase_latch_wait_us_per_txn", "us", "per folded engine transaction"},
	{"obs.phase_buf_miss_io_us_per_txn", "us", "per folded engine transaction"},
	{"obs.phase_log_insert_us_per_txn", "us", "per folded engine transaction"},
	{"obs.phase_flush_wait_us_per_txn", "us", "per folded engine transaction"},
	{"obs.phase_queue_wait_us_per_txn", "us", "per folded engine transaction"},
	{"obs.phase_exec_run_us_per_txn", "us", "per folded engine transaction"},

	{"runtime.alloc_bytes_per_op", "B", "per completed benchmark op"},
	{"runtime.mallocs_per_op", "count", "per completed benchmark op"},
	{"runtime.gc_cpu_frac", "frac", "GC CPU time / process CPU time"},

	{"trace.overhead_frac", "frac", "1 - traced throughput / untraced throughput, alternating slices"},
	{"trace.self_op_us", "us", "per sampled op: root span self time (benchmark code)"},
	{"trace.self_call_us", "us", "per sampled op: layer call span self time"},
	{"trace.self_body_us", "us", "per sampled op: transaction body span self time"},
}

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between the closest ranks; 0 for an empty sample.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[hi]-sorted[lo])
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// ratio divides, reading 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func nsToUs(ns float64) float64 { return ns / 1e3 }
