package main

import (
	"runtime"
	"runtime/metrics"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/hist"
	"hydra/internal/obs"
)

// counters is one reading of every counter the layers publish.
type counters struct {
	core   core.Stats
	dora   dora.Stats
	phases [obs.NumPaths][obs.NumOutcomes]obs.PhaseSnapshot
	mem    runtime.MemStats
	gcCPU  float64 // seconds
	allCPU float64 // seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCounters(e *core.Engine, d *dora.Engine) *counters {
	c := &counters{core: e.StatsSnapshot()}
	if d != nil {
		c.dora = d.StatsSnapshot()
	}
	for p := range obs.NumPaths {
		for oc := range obs.NumOutcomes {
			c.phases[p][oc] = obs.TxnPhases.Snapshot(p, oc)
		}
	}
	runtime.ReadMemStats(&c.mem)
	metrics.Read(cpuSamples)
	c.gcCPU = cpuSamples[0].Value.Float64()
	c.allCPU = cpuSamples[1].Value.Float64()
	return c
}

// histDelta returns the observations b holds beyond a.
func histDelta(a, b *hist.H) hist.H {
	var counts [hist.NumBuckets]uint64
	for i := range counts {
		counts[i] = b.Bucket(i) - a.Bucket(i)
	}
	return hist.FromRaw(&counts, uint64(b.Sum()-a.Sum()), uint64(b.Max()))
}

// counterMetrics derives the per-layer metrics that come from counter
// deltas over the timed phase. ops is the number of completed
// benchmark ops in it. It returns the mean engine transaction time
// from the phase profile, in us.
func counterMetrics(a, b *counters, ops int64, m map[string]float64) (txnMeanUs float64) {
	commits := float64(b.core.Commits - a.core.Commits)
	perTxn := func(x, y uint64) float64 { return ratio(float64(y-x), commits) }
	m["core.aborts_per_commit"] = perTxn(a.core.Aborts, b.core.Aborts)

	la, lb := a.core.Lock, b.core.Lock
	m["lock.acquires_per_txn"] = perTxn(la.Acquires, lb.Acquires)
	m["lock.waits_per_txn"] = perTxn(la.Waits, lb.Waits)
	m["lock.deadlocks"] = float64(lb.Deadlocks - la.Deadlocks)
	m["lock.timeouts"] = float64(lb.Timeouts - la.Timeouts)
	m["lock.bypasses_per_txn"] = perTxn(la.Bypasses, lb.Bypasses)

	wa, wb := a.core.Log, b.core.Log
	flushes := float64(wb.Flushes - wa.Flushes)
	m["wal.records_per_txn"] = perTxn(wa.Inserts, wb.Inserts)
	m["wal.bytes_per_txn"] = perTxn(wa.InsertedBytes, wb.InsertedBytes)
	m["wal.txns_per_flush"] = ratio(commits, flushes)
	m["wal.syncs_per_txn"] = perTxn(wa.FlushSyncs, wb.FlushSyncs)
	m["wal.group_insert_frac"] = ratio(float64(wb.GroupInserts-wa.GroupInserts), float64(wb.Inserts-wa.Inserts))
	m["wal.dev_writes_per_flush"] = ratio(float64(wb.Dev.Writes-wa.Dev.Writes), flushes)

	ba, bb := a.core.Buffer, b.core.Buffer
	hits, misses := float64(bb.Hits-ba.Hits), float64(bb.Misses-ba.Misses)
	m["buffer.hit_ratio"] = ratio(hits, hits+misses)
	m["buffer.misses_per_txn"] = perTxn(ba.Misses, bb.Misses)
	m["buffer.evictions_per_txn"] = perTxn(ba.Evictions, bb.Evictions)
	m["buffer.writebacks_per_txn"] = perTxn(ba.Writebacks, bb.Writebacks)

	va, vb := a.core.Mvcc, b.core.Mvcc
	snapReads := float64(vb.SnapshotReads - va.SnapshotReads)
	m["core.snapshot_reads_per_op"] = ratio(snapReads, float64(ops))
	m["core.chain_read_frac"] = ratio(float64(vb.ChainReads-va.ChainReads), snapReads)
	m["core.si_conflict_frac"] = ratio(float64(vb.SIConflictAborts-va.SIConflictAborts), float64(vb.SIBegins-va.SIBegins))

	da, db := &a.dora, &b.dora
	single := float64(db.SinglePartition - da.SinglePartition)
	doraTxns := single + float64(db.CrossPartition-da.CrossPartition)
	m["dora.single_partition_frac"] = ratio(single, doraTxns)
	m["dora.jobs_per_batch"] = ratio(float64(db.BatchedJobs-da.BatchedJobs), float64(db.Batches-da.Batches))
	wait := histDelta(&da.Wait, &db.Wait)
	service := histDelta(&da.Service, &db.Service)
	if wait.Count() > 0 {
		m["dora.queue_wait_p50_us"] = nsToUs(float64(wait.Quantile(0.50)))
		m["dora.queue_wait_p99_us"] = nsToUs(float64(wait.Quantile(0.99)))
	}
	if service.Count() > 0 {
		m["dora.service_p50_us"] = nsToUs(float64(service.Quantile(0.50)))
	}
	m["dora.local_waits_per_txn"] = ratio(float64(db.LocalWaits-da.LocalWaits), doraTxns)

	var folded uint64
	var totalNs float64
	var phaseNs [obs.NumPhases]float64
	for p := range obs.NumPaths {
		for oc := range obs.NumOutcomes {
			pa, pb := &a.phases[p][oc], &b.phases[p][oc]
			folded += pb.Count - pa.Count
			totalNs += float64(pb.Total.Sum() - pa.Total.Sum())
			for ph := range obs.NumPhases {
				phaseNs[ph] += float64(pb.Phase[ph].Sum() - pa.Phase[ph].Sum())
			}
		}
	}
	for ph := range obs.NumPhases {
		m["obs.phase_"+ph.String()+"_us_per_txn"] = nsToUs(ratio(phaseNs[ph], float64(folded)))
	}

	m["runtime.alloc_bytes_per_op"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), float64(ops))
	m["runtime.mallocs_per_op"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), float64(ops))
	m["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU)
	return nsToUs(ratio(totalNs, float64(folded)))
}
