package server

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/hist"
	"hydra/internal/obs"
)

// Every metric the server exposes is declared once, in the families
// table below: name, kind, help text, label names and a read function
// over one per-scrape sample. /metrics, /stats and STATS FULL render
// the table, and hydra-top and hydra-cli read the JSON form by family
// name, so adding a counter to a subsystem's Stats struct takes one
// declaration line here and nothing else.

// kind is a family's Prometheus type.
type kind string

const (
	counter   kind = "counter"
	gauge     kind = "gauge"
	histogram kind = "histogram"
)

// sample is one scrape's read of every source the families draw on.
// Each source is read exactly once per scrape. Counters are striped
// atomics, so the view is racy across counters, but each value is a
// real point-in-time sum.
type sample struct {
	core.Stats
	lockWait      hist.H
	dora          dora.Stats
	latches       []obs.TierSnapshot
	phases        []phaseCell
	slowAdmitted  uint64
	slowRotations uint64
	incidents     [numStallKinds]uint64
	traceEvents   int
	traceEnabled  bool
	uptime        time.Duration
}

// phaseCell is one non-empty (path, outcome) cell of the transaction
// phase profile.
type phaseCell struct {
	path, outcome string
	obs.PhaseSnapshot
}

// gather reads every source once. fr may be nil (no flight recorder
// running): the incident counters then read zero.
func gather(e *core.Engine, fr *FlightRecorder) *sample {
	s := &sample{
		Stats:         e.StatsSnapshot(),
		lockWait:      e.Locks().WaitHist(),
		dora:          dora.GlobalStats(),
		latches:       obs.LatchSnapshot(),
		slowAdmitted:  obs.SlowTxns.Admitted(),
		slowRotations: obs.SlowTxns.Rotations(),
		traceEvents:   obs.Trace.Len(),
		traceEnabled:  obs.Trace.Enabled(),
		uptime:        time.Duration(obs.Now()),
	}
	for p := obs.TxnPath(0); p < obs.NumPaths; p++ {
		for oc := obs.TxnOutcome(0); oc < obs.NumOutcomes; oc++ {
			if snap := obs.TxnPhases.Snapshot(p, oc); snap.Count > 0 {
				s.phases = append(s.phases, phaseCell{p.String(), oc.String(), snap})
			}
		}
	}
	if fr != nil {
		for k := range s.incidents {
			s.incidents[k] = fr.Count(StallKind(k))
		}
	}
	return s
}

// series is one labelled point of a family: value for counters and
// gauges, h for histograms. labels holds values in the order of the
// family's label names.
type series struct {
	labels []string
	value  float64
	h      *hist.H
}

// family is one declared metric family.
type family struct {
	name   string
	kind   kind
	help   string
	labels []string
	read   func(s *sample) []series
}

// counterOf declares an unlabelled counter.
func counterOf(name, help string, v func(s *sample) uint64) family {
	return family{name: name, kind: counter, help: help, read: func(s *sample) []series {
		return []series{{value: float64(v(s))}}
	}}
}

// gaugeOf declares an unlabelled gauge.
func gaugeOf(name, help string, v func(s *sample) float64) family {
	return family{name: name, kind: gauge, help: help, read: func(s *sample) []series {
		return []series{{value: v(s)}}
	}}
}

// histOf declares an unlabelled latency histogram.
func histOf(name, help string, h func(s *sample) *hist.H) family {
	return family{name: name, kind: histogram, help: help, read: func(s *sample) []series {
		return []series{{h: h(s)}}
	}}
}

// families is the table, in exposition order. Family names, kinds
// and label names are a compatibility contract with dashboards and
// scrapers: rename nothing.
var families = []family{
	counterOf("hydra_commits_total", "Committed transactions.", func(s *sample) uint64 { return s.Commits }),
	counterOf("hydra_aborts_total", "Aborted transactions.", func(s *sample) uint64 { return s.Aborts }),

	counterOf("hydra_lock_acquires_total", "Logical lock acquisitions requested.", func(s *sample) uint64 { return s.Lock.Acquires }),
	counterOf("hydra_lock_table_ops_total", "Lock acquisitions that reached the lock table.", func(s *sample) uint64 { return s.Lock.TableOps }),
	counterOf("hydra_lock_inherited_total", "Lock acquisitions served from an SLI agent's retained grants.", func(s *sample) uint64 { return s.Lock.Inherited }),
	counterOf("hydra_lock_waits_total", "Lock acquisitions that blocked.", func(s *sample) uint64 { return s.Lock.Waits }),
	counterOf("hydra_lock_deadlocks_total", "Lock waits aborted as deadlock victims.", func(s *sample) uint64 { return s.Lock.Deadlocks }),
	counterOf("hydra_lock_timeouts_total", "Lock waits aborted past the wait timeout.", func(s *sample) uint64 { return s.Lock.Timeouts }),
	counterOf("hydra_lock_upgrades_total", "Lock mode upgrades granted without waiting.", func(s *sample) uint64 { return s.Lock.Upgrades }),
	counterOf("hydra_lock_release_all_total", "Transaction-end releases of a whole lock set.", func(s *sample) uint64 { return s.Lock.ReleaseAll }),
	counterOf("hydra_lock_escalations_total", "Row-to-table lock escalations.", func(s *sample) uint64 { return s.Lock.Escalations }),
	counterOf("hydra_lock_escalated_acquires_total", "Row lock requests absorbed by an escalated table lock.", func(s *sample) uint64 { return s.Lock.EscalatedAcqs }),
	counterOf("hydra_lock_head_allocs_total", "Lock heads freshly allocated on a table miss.", func(s *sample) uint64 { return s.Lock.HeadAllocs }),
	counterOf("hydra_lock_head_recycles_total", "Lock heads reused from a partition freelist.", func(s *sample) uint64 { return s.Lock.HeadRecycles }),
	counterOf("hydra_lock_head_retires_total", "Empty lock heads returned to a partition freelist.", func(s *sample) uint64 { return s.Lock.HeadRetires }),
	counterOf("hydra_lock_heat_evictions_total", "Heat-table entries evicted to keep it under its cap.", func(s *sample) uint64 { return s.Lock.HeatEvictions }),
	counterOf("hydra_lock_bypasses_total", "Lock acquisitions the MVCC snapshot path skipped.", func(s *sample) uint64 { return s.Lock.Bypasses }),

	// The MVCC snapshot-read signature: hydra_lock_bypasses_total
	// climbs with hydra_mvcc_snapshot_reads_total while
	// hydra_lock_acquires_total stays flat.
	counterOf("hydra_mvcc_snapshot_begins_total", "Read-only snapshots pinned.", func(s *sample) uint64 { return s.Mvcc.SnapshotBegins }),
	counterOf("hydra_mvcc_snapshot_reads_total", "Reads and scans served on the snapshot path.", func(s *sample) uint64 { return s.Mvcc.SnapshotReads }),
	counterOf("hydra_mvcc_chain_reads_total", "Snapshot reads answered from a version chain.", func(s *sample) uint64 { return s.Mvcc.ChainReads }),
	counterOf("hydra_mvcc_installs_total", "Version nodes installed.", func(s *sample) uint64 { return s.Mvcc.Installs }),
	counterOf("hydra_mvcc_gc_nodes_total", "Version nodes reclaimed.", func(s *sample) uint64 { return s.Mvcc.GCNodes }),
	counterOf("hydra_mvcc_gc_sweeps_total", "Whole-table version GC sweeps.", func(s *sample) uint64 { return s.Mvcc.GCSweeps }),
	counterOf("hydra_mvcc_si_begins_total", "Snapshot-isolation writers begun.", func(s *sample) uint64 { return s.Mvcc.SIBegins }),
	counterOf("hydra_mvcc_si_commits_total", "Snapshot-isolation writers committed.", func(s *sample) uint64 { return s.Mvcc.SICommits }),
	counterOf("hydra_mvcc_si_conflict_aborts_total", "Snapshot-isolation writers aborted by first-committer-wins.", func(s *sample) uint64 { return s.Mvcc.SIConflictAborts }),
	counterOf("hydra_mvcc_snapshots_expired_total", "Snapshot pins cut loose by MaxSnapshotAge.", func(s *sample) uint64 { return s.Mvcc.SnapshotsExpired }),
	gaugeOf("hydra_mvcc_live_nodes", "Version nodes currently linked.", func(s *sample) float64 { return float64(s.Mvcc.LiveNodes) }),
	gaugeOf("hydra_mvcc_snapshot_floor", "Newest published commit-or-abort LSN.", func(s *sample) float64 { return float64(s.Mvcc.SnapshotFloor) }),
	gaugeOf("hydra_mvcc_active_snapshots", "Snapshots currently pinned.", func(s *sample) float64 { return float64(s.Mvcc.ActiveSnapshots) }),
	gaugeOf("hydra_mvcc_oldest_snapshot_age_seconds", "Age of the oldest pinned snapshot.", func(s *sample) float64 { return time.Duration(s.Mvcc.OldestSnapshotAgeNs).Seconds() }),

	counterOf("hydra_log_inserts_total", "Log records inserted.", func(s *sample) uint64 { return s.Log.Inserts }),
	counterOf("hydra_log_inserted_bytes_total", "Log bytes inserted.", func(s *sample) uint64 { return s.Log.InsertedBytes }),
	counterOf("hydra_log_flushes_total", "Log flush IOs issued.", func(s *sample) uint64 { return s.Log.Flushes }),
	counterOf("hydra_log_leader_flushes_total", "Log flushes run by a committer on its own goroutine.", func(s *sample) uint64 { return s.Log.LeaderFlushes }),
	counterOf("hydra_log_flushed_bytes_total", "Log bytes flushed.", func(s *sample) uint64 { return s.Log.FlushedBytes }),
	counterOf("hydra_log_mutex_acquires_total", "Log allocation-mutex acquisitions.", func(s *sample) uint64 { return s.Log.MutexAcquires }),
	counterOf("hydra_log_group_inserts_total", "Log records that joined a consolidation group led by another.", func(s *sample) uint64 { return s.Log.GroupInserts }),
	counterOf("hydra_log_flush_writes_total", "Write submissions issued by log flushes.", func(s *sample) uint64 { return s.Log.FlushWrites }),
	counterOf("hydra_log_flush_syncs_total", "Device syncs issued by log flushes.", func(s *sample) uint64 { return s.Log.FlushSyncs }),
	counterOf("hydra_wal_dev_writes_total", "Physical log-device write submissions.", func(s *sample) uint64 { return s.Log.Dev.Writes }),
	counterOf("hydra_wal_dev_vec_writes_total", "Vectored log-device write calls.", func(s *sample) uint64 { return s.Log.Dev.VecWrites }),
	counterOf("hydra_wal_dev_syncs_total", "Log-device sync calls.", func(s *sample) uint64 { return s.Log.Dev.Syncs }),
	counterOf("hydra_wal_dev_seg_syncs_total", "Log segment files fsynced.", func(s *sample) uint64 { return s.Log.Dev.SegSyncs }),
	counterOf("hydra_wal_dev_seg_sync_skips_total", "Clean log segments skipped at sync.", func(s *sample) uint64 { return s.Log.Dev.SegSyncSkips }),

	counterOf("hydra_buffer_hits_total", "Buffer pool fetch hits.", func(s *sample) uint64 { return s.Buffer.Hits }),
	counterOf("hydra_buffer_misses_total", "Buffer pool fetch misses.", func(s *sample) uint64 { return s.Buffer.Misses }),
	counterOf("hydra_buffer_evictions_total", "Buffer pool frame evictions.", func(s *sample) uint64 { return s.Buffer.Evictions }),
	counterOf("hydra_buffer_writebacks_total", "Dirty pages written back.", func(s *sample) uint64 { return s.Buffer.Writebacks }),

	// DORA executors belong to the layer above the core engine, so
	// these aggregate every live DORA engine in the process.
	counterOf("hydra_dora_actions_total", "DORA action bodies run on executors.", func(s *sample) uint64 { return s.dora.ActionsExecuted }),
	counterOf("hydra_dora_rendezvous_total", "DORA phase barriers joined.", func(s *sample) uint64 { return s.dora.RendezvousCrossed }),
	counterOf("hydra_dora_local_waits_total", "DORA jobs parked on a partition-local lock.", func(s *sample) uint64 { return s.dora.LocalWaits }),
	counterOf("hydra_dora_timeouts_total", "DORA transactions canceled at a rendezvous.", func(s *sample) uint64 { return s.dora.Timeouts }),
	counterOf("hydra_dora_batches_total", "DORA executor inbox drains.", func(s *sample) uint64 { return s.dora.Batches }),
	counterOf("hydra_dora_batched_jobs_total", "Jobs moved by DORA inbox drains.", func(s *sample) uint64 { return s.dora.BatchedJobs }),
	{name: "hydra_dora_txns_total", kind: counter, help: "DORA transactions by path: shipped whole (single) or coordinated (cross).",
		labels: []string{"path"}, read: func(s *sample) []series {
			return []series{
				{labels: []string{"single"}, value: float64(s.dora.SinglePartition)},
				{labels: []string{"cross"}, value: float64(s.dora.CrossPartition)},
			}
		}},
	{name: "hydra_dora_queue_depth", kind: gauge, help: "Instantaneous DORA executor backlog.",
		labels: []string{"executor"}, read: func(s *sample) []series {
			out := make([]series, len(s.dora.QueueDepths))
			for i, d := range s.dora.QueueDepths {
				out[i] = series{labels: []string{strconv.Itoa(i)}, value: float64(d)}
			}
			return out
		}},
	histOf("hydra_dora_action_service_seconds", "DORA action body runtime.", func(s *sample) *hist.H { return &s.dora.Service }),
	histOf("hydra_dora_action_wait_seconds", "DORA enqueue-to-dispatch inbox delay.", func(s *sample) *hist.H { return &s.dora.Wait }),

	histOf("hydra_lock_wait_seconds", "Time from lock conflict to grant, victims included.", func(s *sample) *hist.H { return &s.lockWait }),

	{name: "hydra_latch_acquires_total", kind: counter, help: "Latch acquisitions by tier.",
		labels: []string{"tier"}, read: func(s *sample) []series {
			out := make([]series, len(s.latches))
			for i, t := range s.latches {
				out[i] = series{labels: []string{t.Tier}, value: float64(t.Ops)}
			}
			return out
		}},
	{name: "hydra_latch_acquire_seconds", kind: histogram, help: "Sampled latch time-to-acquire by tier.",
		labels: []string{"tier"}, read: func(s *sample) []series {
			out := make([]series, len(s.latches))
			for i := range s.latches {
				out[i] = series{labels: []string{s.latches[i].Tier}, h: &s.latches[i].Acquire}
			}
			return out
		}},

	// Transaction critical-path accounting, by execution path and
	// outcome: at most paths × outcomes × (1 + phases) series.
	{name: "hydra_txn_total_seconds", kind: histogram, help: "Transaction wall time.",
		labels: []string{"path", "outcome"}, read: func(s *sample) []series {
			out := make([]series, len(s.phases))
			for i := range s.phases {
				c := &s.phases[i]
				out[i] = series{labels: []string{c.path, c.outcome}, h: &c.Total}
			}
			return out
		}},
	{name: "hydra_txn_phase_seconds", kind: histogram, help: "Transaction time per critical-path phase, over transactions where the phase was non-zero.",
		labels: []string{"phase", "path", "outcome"}, read: func(s *sample) []series {
			var out []series
			for i := range s.phases {
				c := &s.phases[i]
				for p := range c.Phase {
					if c.Phase[p].Count() > 0 {
						out = append(out, series{labels: []string{obs.Phase(p).String(), c.path, c.outcome}, h: &c.Phase[p]})
					}
				}
			}
			return out
		}},

	counterOf("hydra_slow_admitted_total", "Transactions admitted to the slow-transaction reservoir.", func(s *sample) uint64 { return s.slowAdmitted }),
	counterOf("hydra_slow_rotations_total", "Slow-transaction reservoir window rotations.", func(s *sample) uint64 { return s.slowRotations }),
	{name: "hydra_incidents_total", kind: counter, help: "Stall flight-recorder incidents by kind.",
		labels: []string{"kind"}, read: func(s *sample) []series {
			out := make([]series, numStallKinds)
			for k := range out {
				out[k] = series{labels: []string{StallKind(k).String()}, value: float64(s.incidents[k])}
			}
			return out
		}},

	gaugeOf("hydra_trace_events", "Retained transaction tracer events.", func(s *sample) float64 { return float64(s.traceEvents) }),
	gaugeOf("hydra_trace_enabled", "1 while the transaction tracer records.", func(s *sample) float64 {
		if s.traceEnabled {
			return 1
		}
		return 0
	}),
	gaugeOf("hydra_uptime_seconds", "Seconds since the process started.", func(s *sample) float64 { return s.uptime.Seconds() }),
}

// labelEscaper escapes a label value per the Prometheus text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabels renders name="value" pairs, comma separated.
func promLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, labelEscaper.Replace(values[i]))
	}
	return b.String()
}

// writeMetrics renders every family in Prometheus text form. Each
// family's HELP and TYPE lines come once, before all its series.
func writeMetrics(w io.Writer, s *sample) {
	for i := range families {
		f := &families[i]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, sr := range f.read(s) {
			labels := promLabels(f.labels, sr.labels)
			switch {
			case f.kind == histogram:
				writePromHist(w, f.name, labels, sr.h)
			case labels == "":
				fmt.Fprintf(w, "%s %s\n", f.name, strconv.FormatFloat(sr.value, 'f', -1, 64))
			default:
				fmt.Fprintf(w, "%s{%s} %s\n", f.name, labels, strconv.FormatFloat(sr.value, 'f', -1, 64))
			}
		}
	}
}

// writePromHist emits one histogram series. Bucket edges are the
// power-of-two nanosecond upper bounds converted to seconds; empty
// buckets are elided (cumulative counts stay monotone) and +Inf
// closes the series per the exposition format.
func writePromHist(w io.Writer, name, labels string, h *hist.H) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i := 0; i < hist.NumBuckets-1; i++ {
		c := h.Bucket(i)
		if c == 0 {
			continue
		}
		cum += c
		le := strconv.FormatFloat(hist.BucketUpper(i).Seconds(), 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count())
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum().Seconds(), name, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n",
			name, labels, h.Sum().Seconds(), name, labels, h.Count())
	}
}

// StatsJSON is the body of /stats and STATS FULL: every family of the
// table, in table order.
type StatsJSON struct {
	Families []FamilyJSON `json:"families"`
}

// FamilyJSON is one metric family on the wire.
type FamilyJSON struct {
	Name   string       `json:"name"`
	Type   string       `json:"type"`
	Help   string       `json:"help"`
	Series []SeriesJSON `json:"series"`
}

// SeriesJSON is one labelled point of a family. A histogram's Value
// is its observation count and Hist carries its distribution.
type SeriesJSON struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	Hist   *HistJSON         `json:"hist,omitempty"`
}

// HistJSON is the wire form of one latency distribution.
type HistJSON struct {
	Count   uint64 `json:"count"`
	MeanNs  int64  `json:"mean_ns"`
	P50Ns   int64  `json:"p50_ns"`
	P90Ns   int64  `json:"p90_ns"`
	P99Ns   int64  `json:"p99_ns"`
	MaxNs   int64  `json:"max_ns"`
	Summary string `json:"summary"`
}

func histJSON(h *hist.H) *HistJSON {
	return &HistJSON{
		Count:   h.Count(),
		MeanNs:  int64(h.Mean()),
		P50Ns:   int64(h.Quantile(0.50)),
		P90Ns:   int64(h.Quantile(0.90)),
		P99Ns:   int64(h.Quantile(0.99)),
		MaxNs:   int64(h.Max()),
		Summary: h.String(),
	}
}

// statsJSON renders every family in its JSON form.
func statsJSON(s *sample) StatsJSON {
	out := StatsJSON{Families: make([]FamilyJSON, len(families))}
	for i := range families {
		f := &families[i]
		fj := FamilyJSON{Name: f.name, Type: string(f.kind), Help: f.help, Series: []SeriesJSON{}}
		for _, sr := range f.read(s) {
			sj := SeriesJSON{Value: sr.value}
			if len(f.labels) > 0 {
				sj.Labels = make(map[string]string, len(f.labels))
				for j, n := range f.labels {
					sj.Labels[n] = sr.labels[j]
				}
			}
			if sr.h != nil {
				sj.Hist = histJSON(sr.h)
				sj.Value = float64(sr.h.Count())
			}
			fj.Series = append(fj.Series, sj)
		}
		out.Families[i] = fj
	}
	return out
}

// Snapshot gathers one sample and renders it in JSON form. fr may be
// nil (no flight recorder running).
func Snapshot(e *core.Engine, fr *FlightRecorder) StatsJSON {
	return statsJSON(gather(e, fr))
}

// Family returns the named family, or a zero FamilyJSON (no series)
// when st has none.
func (st *StatsJSON) Family(name string) FamilyJSON {
	for _, f := range st.Families {
		if f.Name == name {
			return f
		}
	}
	return FamilyJSON{}
}

// find returns the series of the named family whose labels include
// every name/value pair in kv, or nil.
func (st *StatsJSON) find(name string, kv []string) *SeriesJSON {
	f := st.Family(name)
next:
	for i := range f.Series {
		for j := 0; j+1 < len(kv); j += 2 {
			if f.Series[i].Labels[kv[j]] != kv[j+1] {
				continue next
			}
		}
		return &f.Series[i]
	}
	return nil
}

// Value returns the value of the named family's series matching the
// label name/value pairs kv (none for an unlabelled family), or 0.
func (st *StatsJSON) Value(name string, kv ...string) float64 {
	if s := st.find(name, kv); s != nil {
		return s.Value
	}
	return 0
}

// Hist returns the distribution of the named histogram family's
// series matching kv, or a zero HistJSON.
func (st *StatsJSON) Hist(name string, kv ...string) HistJSON {
	if s := st.find(name, kv); s != nil && s.Hist != nil {
		return *s.Hist
	}
	return HistJSON{}
}
