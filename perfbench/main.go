// Command perfbench is the engine's end-to-end benchmark. One run sets
// up one workload (several times, to time set-up), drives it with
// closed-loop clients for a fixed time, checks every result, then
// closes and reopens the engine so recovery runs and checks the
// workload's invariants.
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced
// run (-trace 1) alternates untraced and traced slices and reports the
// per-layer metrics: counter deltas of the engine's published stats,
// timings of calls into each layer's public functions, and span self
// times. See README.md for the workloads and the metric to layer map.
//
// Usage, from the directory holding the repository's go.mod:
//
//	python3 perfbench/run.py --workload tpcc-2pl --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"hydra/internal/core"
	"hydra/internal/dora"
)

const (
	// clients is the closed-loop client count (the host's vCPUs).
	clients = 2
	// Set-up is repeated, to report its median, at least minSetups
	// times and until setupBudget has passed, at most maxSetups times.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
	warmup      = time.Second
	// windowLen is the target length of the windows the end-to-end
	// metrics take their median over.
	windowLen = 2 * time.Second
)

// bench is one benchmark workload.
type bench interface {
	// setup opens a fresh engine (under dir when it is durable) and
	// loads it.
	setup(dir string, seed uint64) error
	newClient(i int, seed uint64) (client, error)
	engines() (*core.Engine, *dora.Engine)
	flushPolicy() string
	// check closes the engine, reopens it so recovery runs, and
	// verifies the workload's invariants.
	check() error
	close()
}

// shutdown closes e cleanly: pages flushed, then a checkpoint, so the
// reopen's recovery starts at the checkpoint instead of holding the
// whole log in memory.
func shutdown(e *core.Engine) error {
	if err := e.Pool().FlushAll(); err != nil {
		return err
	}
	if err := e.Checkpoint(); err != nil {
		return err
	}
	return e.Close()
}

// reporter is a workload with extra lines for the report.
type reporter interface {
	report() []string
}

var workloads = map[string]func() bench{
	"wire-kv":     func() bench { return &wireKV{} },
	"tpcc-2pl":    func() bench { return &tpcc2PL{} },
	"tatp-dora":   func() bench { return &tatpDORA{} },
	"kv-si-large": func() bench { return &kvSILarge{} },
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: wire-kv, tpcc-2pl, tatp-dora or kv-si-large")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for data files, spans and archived results")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	code, err := run(mk, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(mk func() bench, name string, seed uint64, seconds time.Duration, traced bool, work string) (int, error) {
	dataDir := filepath.Join(work, fmt.Sprintf("data-%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(dataDir)

	rep := &report{name: name, seed: seed, seconds: seconds.Seconds(), traced: traced}
	rep.env = environment(dataDir)

	// Set up several times; the last set-up is the one measured.
	var w bench
	var spent time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(dataDir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 1, err
		}
		w = mk()
		t0 := time.Now()
		err := w.setup(dir, seed)
		took := time.Since(t0)
		rep.setups = append(rep.setups, took.Nanoseconds())
		spent += took
		if err != nil {
			w.close()
			return 1, fmt.Errorf("setup: %w", err)
		}
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget) {
			break
		}
		w.close()
		w = nil
		// Two collections: the first moves the engine's sync.Pools to
		// the victim cache, the second frees them and returns the
		// memory, so set-ups do not stack up in peak RSS.
		runtime.GC()
		debug.FreeOSMemory()
	}
	defer w.close()
	rep.env["flush_policy"] = w.flushPolicy()

	var cs []client
	for i := range clients {
		c, err := w.newClient(i, seed)
		if err != nil {
			return 1, fmt.Errorf("client %d: %w", i, err)
		}
		cs = append(cs, c)
	}
	r := newRunner(cs, max(1, int(seconds/windowLen)))
	r.start()
	time.Sleep(warmup)
	e, d := w.engines()
	before := readCounters(e, d)
	var liveMax int64
	var tick func()
	if traced {
		tick = func() { liveMax = max(liveMax, e.StatsSnapshot().Mvcc.LiveNodes) }
	}
	steal0, total0 := cpuTicks()
	modeNs := r.measure(seconds, traced, tick)
	after := readCounters(e, d)
	steal1, total1 := cpuTicks()
	rep.env["host_steal_frac"] = fmt.Sprintf("%.4f", ratio(float64(steal1-steal0), float64(total1-total0)))
	r.halt()

	rep.collect(r, modeNs)
	if traced {
		rep.layers(r, before, after, liveMax)
		rep.spanFile = filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := writeSpans(rep.spanFile, rep.spans); err != nil {
			return 1, fmt.Errorf("spans: %w", err)
		}
	}
	if rp, ok := w.(reporter); ok {
		rep.notes = append(rep.notes, rp.report()...)
	}
	if err := w.check(); err != nil {
		rep.checkErr = err.Error()
	}
	rep.peakRSS = peakRSSMiB()
	res := rep.result()
	rep.print(os.Stdout)
	if err := rep.archive(filepath.Join(work, "results")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: archive:", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1, fmt.Errorf("check failed: %s", rep.checkErr)
	}
	return 0, nil
}

// report gathers everything one run measured.
type report struct {
	name     string
	seed     uint64
	seconds  float64
	traced   bool
	env      map[string]string
	setups   []int64 // ns
	peakRSS  float64
	checkErr string
	notes    []string

	attempted, failed int64
	firstErr          string
	ops               int64      // completed ops, both modes
	throughput        [2]float64 // by mode, over the whole timed phase
	windows           []window   // merged across workers, latencies sorted

	layer    map[string]float64
	samples  map[string]int // sample count behind a metric
	spans    []span
	spanFile string
}

func (rep *report) collect(r *runner, modeNs [2]int64) {
	var done [2]int64
	for _, w := range r.workers {
		rep.attempted += w.attempted
		rep.failed += w.failed
		if w.firstErr != nil && rep.firstErr == "" {
			rep.firstErr = w.firstErr.Error()
		}
		for m := range done {
			done[m] += w.done[m]
		}
	}
	rep.windows = make([]window, len(r.workers[0].windows))
	for i := range rep.windows {
		win := &rep.windows[i]
		for _, w := range r.workers {
			for c := range numClasses {
				win.lat[c] = append(win.lat[c], w.windows[i].lat[c]...)
			}
		}
		for c := range numClasses {
			win.lat[c] = sortedCopy(win.lat[c])
		}
	}
	rep.ops = done[0] + done[1]
	for m := range done {
		rep.throughput[m] = ratio(float64(done[m]), float64(modeNs[m])/1e9)
	}
	rep.samples = map[string]int{"throughput_ops_s": int(done[0]), "failed_frac": int(rep.attempted)}
}

// layers fills the per-layer metrics of a traced run.
func (rep *report) layers(r *runner, before, after *counters, liveMax int64) {
	m := make(map[string]float64)
	txnMean := counterMetrics(before, after, rep.ops, m)
	var rtt, exec, body, commit, pings []int64
	var attempts int64
	for _, w := range r.workers {
		rtt = append(rtt, w.serverRTT...)
		exec = append(exec, w.exec...)
		body = append(body, w.body...)
		commit = append(commit, w.commit...)
		pings = append(pings, w.pings...)
		attempts += w.attempts
		rep.spans = append(rep.spans, w.spans...)
	}
	if len(rtt) > 0 {
		rttMean := nsToUs(mean(rtt))
		m["server.rtt_mean_us"] = rttMean
		m["server.txn_mean_us"] = txnMean
		m["server.wire_share"] = 1 - ratio(txnMean, rttMean)
		m["server.ping_p50_us"] = nsToUs(percentile(sortedCopy(pings), 0.5))
	}
	m["core.exec_p50_us"] = nsToUs(percentile(sortedCopy(exec), 0.5))
	m["core.body_p50_us"] = nsToUs(percentile(sortedCopy(body), 0.5))
	m["core.commit_p50_us"] = nsToUs(percentile(sortedCopy(commit), 0.5))
	m["core.attempts_per_txn"] = ratio(float64(attempts), float64(len(exec)))
	m["core.mvcc_live_nodes_max"] = float64(liveMax)
	if rep.throughput[0] > 0 {
		m["trace.overhead_frac"] = 1 - rep.throughput[1]/rep.throughput[0]
	}
	self := selfTimes(rep.spans)
	var sampled float64
	for _, s := range rep.spans {
		if s.Parent < 0 {
			sampled++
		}
	}
	var callSelf int64
	for n, ns := range self {
		if n != spanOp && n != spanBody {
			callSelf += ns
		}
	}
	m["trace.self_op_us"] = nsToUs(ratio(float64(self[spanOp]), sampled))
	m["trace.self_call_us"] = nsToUs(ratio(float64(callSelf), sampled))
	m["trace.self_body_us"] = nsToUs(ratio(float64(self[spanBody]), sampled))
	rep.layer = m
	rep.samples["server.rtt_mean_us"] = len(rtt)
	rep.samples["server.ping_p50_us"] = len(pings)
	rep.samples["core.exec_p50_us"] = len(exec)
	rep.samples["trace.self_op_us"] = int(sampled)
}

// overWindows returns the median over windows of f, skipping windows
// where f has no sample.
func (rep *report) overWindows(f func(w *window) (float64, bool)) float64 {
	var vals []float64
	for i := range rep.windows {
		if v, ok := f(&rep.windows[i]); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n := len(vals); n%2 == 0 {
		return (vals[n/2-1] + vals[n/2]) / 2
	}
	return vals[len(vals)/2]
}

// endToEnd returns the end-to-end values, the report-only ones too.
// Latency percentiles are medians over the windows; throughput is
// over the whole timed phase.
func (rep *report) endToEnd() map[string]float64 {
	p := func(c opClass, q float64) float64 {
		return rep.overWindows(func(w *window) (float64, bool) {
			return nsToUs(percentile(w.lat[c], q)), len(w.lat[c]) > 0
		})
	}
	return map[string]float64{
		"setup_s":          percentile(sortedCopy(rep.setups), 0.5) / 1e9,
		"throughput_ops_s": rep.throughput[0],
		"read_p50_us":      p(classRead, 0.50),
		"read_p90_us":      p(classRead, 0.90),
		"read_p99_us":      p(classRead, 0.99),
		"write_p50_us":     p(classWrite, 0.50),
		"write_p90_us":     p(classWrite, 0.90),
		"write_p99_us":     p(classWrite, 0.99),
		"scan_p50_us":      p(classScan, 0.50),
		"scan_p90_us":      p(classScan, 0.90),
		"scan_p99_us":      p(classScan, 0.99),
		"failed_frac":      ratio(float64(rep.failed), float64(rep.attempted)),
		"peak_rss_mib":     rep.peakRSS,
	}
}

// shown returns the metrics a run reports and their values: the
// end-to-end ones, report-only ones included, for an untraced run and
// the per-layer ones for a traced run.
func (rep *report) shown() ([]metricDef, map[string]float64) {
	if rep.traced {
		return perLayer, rep.layer
	}
	return append(append([]metricDef{}, endToEnd...), reportOnly...), rep.endToEnd()
}

func (rep *report) result() result {
	res := result{
		Correct:   rep.checkErr == "",
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	defs, vals := rep.shown()
	if !rep.traced {
		defs = endToEnd
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

func (rep *report) sampleCount(name string) int {
	for c := range numClasses {
		if strings.HasPrefix(name, classNames[c]+"_") {
			n := 0
			for i := range rep.windows {
				n += len(rep.windows[i].lat[c])
			}
			return n
		}
	}
	if name == "setup_s" {
		return len(rep.setups)
	}
	return rep.samples[name]
}

func (rep *report) print(f *os.File) {
	fmt.Fprintf(f, "perfbench workload=%s seed=%d seconds=%g trace=%v clients=%d closed-loop\n",
		rep.name, rep.seed, rep.seconds, rep.traced, clients)
	keys := make([]string, 0, len(rep.env))
	for k := range rep.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "env %s=%s\n", k, rep.env[k])
	}
	fmt.Fprintf(f, "setup runs: %v\n", rep.setupDurations())
	fmt.Fprintf(f, "ops attempted=%d failed=%d\n", rep.attempted, rep.failed)
	if rep.firstErr != "" {
		fmt.Fprintf(f, "first failure: %s\n", rep.firstErr)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(f, n)
	}
	defs, vals := rep.shown()
	for _, d := range defs {
		fmt.Fprintf(f, "metric %-34s %14.4f %-5s n=%-8d %s\n", d.name, vals[d.name], d.unit, rep.sampleCount(d.name), d.base)
	}
	if rep.traced {
		fmt.Fprintf(f, "traced throughput %.1f 1/s, untraced %.1f 1/s (alternating %v slices)\n",
			rep.throughput[1], rep.throughput[0], traceSlice)
		fmt.Fprintf(f, "spans: %d written to %s\n", len(rep.spans), rep.spanFile)
	}
	if rep.checkErr != "" {
		fmt.Fprintf(f, "check FAILED: %s\n", rep.checkErr)
	} else {
		fmt.Fprintln(f, "check ok: results and post-restart invariants")
	}
}

// archive writes the full report, environment included, as JSON.
func (rep *report) archive(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type entry struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples,omitempty"`
	}
	metrics := map[string]entry{}
	defs, vals := rep.shown()
	for _, d := range defs {
		metrics[d.name] = entry{vals[d.name], d.unit, rep.sampleCount(d.name)}
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload":  rep.name,
		"seed":      rep.seed,
		"seconds":   rep.seconds,
		"traced":    rep.traced,
		"clients":   clients,
		"env":       rep.env,
		"setup_s":   rep.setupDurations(),
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"check":     map[bool]string{true: "ok", false: rep.checkErr}[rep.checkErr == ""],
		"notes":     rep.notes,
		"metrics":   metrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rep.traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.name, rep.seed, trace)), b, 0o644)
}

func (rep *report) setupDurations() []float64 {
	out := make([]float64, len(rep.setups))
	for i, ns := range rep.setups {
		out[i] = float64(ns) / 1e9
	}
	return out
}
