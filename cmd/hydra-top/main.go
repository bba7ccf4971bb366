// Command hydra-top is a live contention monitor for a running
// hydra-server: it polls the /stats endpoint and redraws a compact
// per-subsystem view — throughput, buffer hit ratio, group-commit
// batch size, and the per-latch-tier time-to-acquire tails that are
// the paper's leading indicator of a scalability pathology.
//
// Usage:
//
//	hydra-top [-addr localhost:7655] [-interval 1s] [-once]
//
// Rates (commits/s, etc.) are derived from successive cumulative
// snapshots; the first frame therefore shows totals only. Every row
// reads its values from /stats by metric family name; the worst slow
// transactions come from /slow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"hydra/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:7655", "observability address of hydra-server (-http)")
	interval := flag.Duration("interval", time.Second, "poll interval")
	once := flag.Bool("once", false, "print a single frame and exit (no ANSI redraw)")
	flag.Parse()

	base := "http://" + *addr
	client := &http.Client{Timeout: 5 * time.Second}

	var prev *server.StatsJSON
	var prevAt time.Time
	for {
		st := new(server.StatsJSON)
		var slow server.SlowJSON
		err := fetch(client, base+"/stats", st)
		if err == nil {
			err = fetch(client, base+"/slow", &slow)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydra-top: %v\n", err)
			os.Exit(1)
		}
		now := time.Now()
		if !*once {
			// Clear screen and home the cursor: a full redraw per
			// frame keeps the renderer stateless.
			fmt.Print("\x1b[2J\x1b[H")
		}
		render(os.Stdout, st, prev, &slow, now.Sub(prevAt))
		if *once {
			return
		}
		prev = st
		prevAt = now
		time.Sleep(*interval)
	}
}

// fetch GETs url and decodes its JSON body into v.
func fetch(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func render(w io.Writer, st, prev *server.StatsJSON, slow *server.SlowJSON, dt time.Duration) {
	v := st.Value
	// r formats the summed families' growth since the previous frame
	// as an events/second figure, or "-" on the first frame.
	r := func(names ...string) string {
		if prev == nil || dt <= 0 {
			return "-"
		}
		var cur, prv float64
		for _, n := range names {
			cur += st.Value(n)
			prv += prev.Value(n)
		}
		if cur < prv {
			return "-"
		}
		return fmt.Sprintf("%.0f/s", (cur-prv)/dt.Seconds())
	}

	fmt.Fprintf(w, "hydra-top  up %s  trace=%v(%.0f events)\n\n",
		(time.Duration(v("hydra_uptime_seconds") * float64(time.Second))).Round(time.Second),
		v("hydra_trace_enabled") == 1, v("hydra_trace_events"))

	fmt.Fprintf(w, "txn     commits=%-10.0f %-9s aborts=%-8.0f %-9s\n",
		v("hydra_commits_total"), r("hydra_commits_total"), v("hydra_aborts_total"), r("hydra_aborts_total"))

	hits, misses := v("hydra_buffer_hits_total"), v("hydra_buffer_misses_total")
	fmt.Fprintf(w, "buffer  hit=%6.2f%%  fetch=%-9s evict=%-8s writeback=%s\n",
		100*ratio(hits, hits+misses), r("hydra_buffer_hits_total", "hydra_buffer_misses_total"),
		r("hydra_buffer_evictions_total"), r("hydra_buffer_writebacks_total"))

	flushes := v("hydra_log_flushes_total")
	fmt.Fprintf(w, "log     insert=%-9s flush=%-9s batch=%.1f rec/flush  group=%.0f\n",
		r("hydra_log_inserts_total"), r("hydra_log_flushes_total"),
		ratio(v("hydra_log_inserts_total"), flushes), v("hydra_log_group_inserts_total"))

	// Per-flush syscall budget of the batched flush path: write
	// submissions and fsyncs per flush (vectored target: 1 write per
	// touched segment, fsyncs only for dirty segments).
	fmt.Fprintf(w, "flushio write=%-9s sync=%-9s %.2f writes/flush  %.2f segsync/flush  skipped=%.0f\n",
		r("hydra_wal_dev_writes_total"), r("hydra_wal_dev_seg_syncs_total"),
		ratio(v("hydra_log_flush_writes_total"), flushes), ratio(v("hydra_wal_dev_seg_syncs_total"), flushes),
		v("hydra_wal_dev_seg_sync_skips_total"))

	fmt.Fprintf(w, "lock    acquire=%-9s wait=%-9s deadlock=%-6.0f timeout=%-6.0f escal=%.0f\n",
		r("hydra_lock_acquires_total"), r("hydra_lock_waits_total"),
		v("hydra_lock_deadlocks_total"), v("hydra_lock_timeouts_total"), v("hydra_lock_escalations_total"))

	// Lock-head lifecycle: a healthy freelist keeps the recycle rate
	// tracking the alloc-path miss rate (allocs stay flat once warm);
	// heat evictions mean distinct-name conflict churn is hitting the
	// bounded heat table's cap.
	allocs, recycles := v("hydra_lock_head_allocs_total"), v("hydra_lock_head_recycles_total")
	fmt.Fprintf(w, "lockhead alloc=%-8s recycle=%-8s retire=%-8s %5.1f%% recycled  heatevict=%.0f\n",
		r("hydra_lock_head_allocs_total"), r("hydra_lock_head_recycles_total"),
		r("hydra_lock_head_retires_total"), 100*ratio(recycles, allocs+recycles),
		v("hydra_lock_heat_evictions_total"))
	if lw := st.Hist("hydra_lock_wait_seconds"); lw.Count > 0 {
		fmt.Fprintf(w, "        wait dist: %s\n", lw.Summary)
	}

	// Thread-to-data execution: the single/cross split is the fast-path
	// hit ratio; batch is jobs moved per executor wakeup; depth sums
	// the instantaneous executor backlogs.
	single := st.Value("hydra_dora_txns_total", "path", "single")
	if txns := single + st.Value("hydra_dora_txns_total", "path", "cross"); txns > 0 {
		depth := 0.0
		for _, d := range st.Family("hydra_dora_queue_depth").Series {
			depth += d.Value
		}
		fmt.Fprintf(w, "dora    action=%-9s single=%5.1f%%  rvp=%-9s waits=%-7.0f timeout=%-6.0f batch=%.1f depth=%.0f\n",
			r("hydra_dora_actions_total"), 100*single/txns, r("hydra_dora_rendezvous_total"),
			v("hydra_dora_local_waits_total"), v("hydra_dora_timeouts_total"),
			ratio(v("hydra_dora_batched_jobs_total"), v("hydra_dora_batches_total")), depth)
		if svc := st.Hist("hydra_dora_action_service_seconds"); svc.Count > 0 {
			wait := st.Hist("hydra_dora_action_wait_seconds")
			fmt.Fprintf(w, "        service: p50=%s p99=%s  inbox wait: p50=%s p99=%s\n",
				ns(svc.P50Ns), ns(svc.P99Ns), ns(wait.P50Ns), ns(wait.P99Ns))
		}
	}

	// Snapshot reads resolve against version chains without touching
	// the lock manager; bypass tracks the lock requests they skipped.
	// live/active are instantaneous gauges (chain nodes retained,
	// snapshots pinned); oldest is the GC watermark's age.
	if v("hydra_mvcc_snapshot_begins_total") > 0 || v("hydra_mvcc_installs_total") > 0 {
		fmt.Fprintf(w, "mvcc    snapread=%-8s chain=%-9s bypass=%-9s install=%-8s live=%-7.0f gc=%.0f\n",
			r("hydra_mvcc_snapshot_reads_total"), r("hydra_mvcc_chain_reads_total"),
			r("hydra_lock_bypasses_total"), r("hydra_mvcc_installs_total"),
			v("hydra_mvcc_live_nodes"), v("hydra_mvcc_gc_nodes_total"))
		if active := v("hydra_mvcc_active_snapshots"); active > 0 {
			fmt.Fprintf(w, "        snapshots active=%.0f oldest=%s floor=%.0f\n", active,
				time.Duration(v("hydra_mvcc_oldest_snapshot_age_seconds")*float64(time.Second)).Round(time.Millisecond),
				v("hydra_mvcc_snapshot_floor"))
		}
		// SI writers: conflict tracks first-committer-wins losers,
		// expired counts pins cut loose by MaxSnapshotAge.
		if v("hydra_mvcc_si_begins_total") > 0 || v("hydra_mvcc_snapshots_expired_total") > 0 {
			fmt.Fprintf(w, "        si begin=%-9s commit=%-8s conflict=%-8s expired=%.0f\n",
				r("hydra_mvcc_si_begins_total"), r("hydra_mvcc_si_commits_total"),
				r("hydra_mvcc_si_conflict_aborts_total"), v("hydra_mvcc_snapshots_expired_total"))
		}
	}

	fmt.Fprintf(w, "\n%-12s %10s  %9s %9s %9s %9s\n",
		"latch tier", "acquires", "p50", "p90", "p99", "max")
	fmt.Fprintln(w, strings.Repeat("-", 64))
	for _, t := range st.Family("hydra_latch_acquires_total").Series {
		tier := t.Labels["tier"]
		h := st.Hist("hydra_latch_acquire_seconds", "tier", tier)
		fmt.Fprintf(w, "%-12s %10.0f  %9s %9s %9s %9s\n",
			tier, t.Value, ns(h.P50Ns), ns(h.P90Ns), ns(h.P99Ns), ns(h.MaxNs))
	}

	renderPhases(w, st)
	renderTail(w, st, slow)
}

// renderPhases prints one line per (path, outcome) profile cell: the
// total latency tail plus the top phases by share of accumulated wall
// time. Shares are estimated from mean*count per phase histogram, so
// they are approximate under the factor-of-two bucketing, but they
// answer the triage question — where do these transactions spend time.
func renderPhases(w io.Writer, st *server.StatsJSON) {
	cells := st.Family("hydra_txn_total_seconds").Series
	if len(cells) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-20s %10s  %9s %9s %9s  %s\n",
		"phase profile", "txns", "p50", "p99", "max", "top phases by time")
	fmt.Fprintln(w, strings.Repeat("-", 90))
	for _, cell := range cells {
		path, outcome := cell.Labels["path"], cell.Labels["outcome"]
		type share struct {
			name string
			ns   float64
		}
		total := float64(cell.Hist.MeanNs) * float64(cell.Hist.Count)
		var shares []share
		for _, ph := range st.Family("hydra_txn_phase_seconds").Series {
			if ph.Labels["path"] == path && ph.Labels["outcome"] == outcome {
				shares = append(shares, share{ph.Labels["phase"], float64(ph.Hist.MeanNs) * float64(ph.Hist.Count)})
			}
		}
		sort.Slice(shares, func(i, j int) bool { return shares[i].ns > shares[j].ns })
		var top []string
		for i, s := range shares {
			if i == 3 || s.ns <= 0 {
				break
			}
			top = append(top, fmt.Sprintf("%s %.0f%%", s.name, 100*ratio(s.ns, total)))
		}
		fmt.Fprintf(w, "%-20s %10d  %9s %9s %9s  %s\n",
			path+"/"+outcome, cell.Hist.Count,
			ns(cell.Hist.P50Ns), ns(cell.Hist.P99Ns), ns(cell.Hist.MaxNs),
			strings.Join(top, "  "))
	}
}

// renderTail prints the worst-K slow-transaction reservoir (top few
// entries with their dominant phase) and the incident count from the
// stall flight recorder.
func renderTail(w io.Writer, st *server.StatsJSON, slow *server.SlowJSON) {
	if slow.Admitted > 0 && len(slow.Entries) > 0 {
		fmt.Fprintf(w, "\nslow    admitted=%d rotated=%d window=%s  worst:\n",
			slow.Admitted, slow.Rotated, time.Duration(slow.WindowNs).Round(time.Second))
		for i, e := range slow.Entries {
			if i == 5 {
				break
			}
			dom, domNs := "", int64(0)
			for name, v := range e.Phase {
				if v > domNs {
					dom, domNs = name, v
				}
			}
			detail := ""
			if dom != "" {
				detail = fmt.Sprintf("  (%s %s)", dom, ns(domNs))
			}
			fmt.Fprintf(w, "        txn=%-8d %s/%s %s%s\n",
				e.Txn, e.Path, e.Outcome, ns(e.TotalNs), detail)
		}
	}
	incidents := 0.0
	for _, s := range st.Family("hydra_incidents_total").Series {
		incidents += s.Value
	}
	if incidents > 0 {
		fmt.Fprintf(w, "\nINCIDENTS %.0f captured — inspect /incidents on the observability port\n",
			incidents)
	}
}

// ns renders a nanosecond figure compactly (the bucket resolution is
// a factor of two, so sub-microsecond precision would be noise).
func ns(v int64) string {
	d := time.Duration(v)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
	return fmt.Sprintf("%dns", v)
}
