package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/obs"
)

func startMetrics(t *testing.T) (*core.Engine, *httptest.Server) {
	t.Helper()
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFlightRecorder(e, FlightOptions{})
	fr.Start()
	ts := httptest.NewServer(NewMetricsMux(e, fr))
	t.Cleanup(func() {
		ts.Close()
		fr.Stop()
		e.Close()
	})
	return e, ts
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkExposition validates the Prometheus text format line by line:
// every non-comment line must be `name[{labels}] value` with a
// parseable value, histogram buckets must be cumulative, and every
// family must carry a TYPE line.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	lastBucket := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base = name[:i]
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
		}
		family := base
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(base, suf) && typed[strings.TrimSuffix(base, suf)] {
				family = strings.TrimSuffix(base, suf)
			}
		}
		if !typed[family] {
			t.Fatalf("sample %q has no TYPE line (family %q)", line, family)
		}
		if strings.HasSuffix(base, "_bucket") {
			// Cumulative within one labeled series: key by full name
			// minus the le label.
			series := name[:strings.Index(name, "le=")]
			v, _ := strconv.ParseUint(val, 10, 64)
			if v < lastBucket[series] {
				t.Fatalf("non-cumulative bucket in %q", line)
			}
			lastBucket[series] = v
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	e, ts := startMetrics(t)

	// Generate traffic so counters and per-tier histograms are live.
	tbl, err := e.CreateTable("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		if err := e.Exec(func(tx *core.Txn) error {
			return tx.Insert(tbl, i, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}

	body := get(t, ts.URL+"/metrics")
	checkExposition(t, body)
	for _, want := range []string{
		"hydra_commits_total",
		"hydra_log_inserts_total",
		"hydra_buffer_hits_total",
		"hydra_lock_head_allocs_total",
		"hydra_lock_head_recycles_total",
		"hydra_lock_head_retires_total",
		"hydra_lock_heat_evictions_total",
		"hydra_latch_acquires_total{tier=",
		"hydra_latch_acquire_seconds_bucket{tier=",
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPhaseMetricsExposition drives committed traffic and asserts the
// transaction critical-path accounting families — phase histograms,
// the slow-transaction reservoir, and the incident counters — appear
// in the Prometheus exposition and on /stats.
func TestPhaseMetricsExposition(t *testing.T) {
	e, ts := startMetrics(t)
	tbl, err := e.CreateTable("ph")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := e.Exec(func(tx *core.Txn) error {
			return tx.Insert(tbl, i, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}

	body := get(t, ts.URL+"/metrics")
	checkExposition(t, body)
	for _, want := range []string{
		`hydra_txn_total_seconds_bucket{path="conv",outcome="commit"`,
		`hydra_txn_total_seconds_count{path="conv",outcome="commit"}`,
		`hydra_txn_phase_seconds_bucket{phase="flush_wait",path="conv",outcome="commit"`,
		"hydra_slow_admitted_total",
		"hydra_slow_rotations_total",
		`hydra_incidents_total{kind="wal_stall"}`,
		`hydra_incidents_total{kind="dora_queue_pinned"}`,
		`hydra_incidents_total{kind="lock_waiter_stuck"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The same accounting shows on /stats for hydra-top.
	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Family("hydra_txn_total_seconds").Series) == 0 {
		t.Fatal("/stats has no phase cells after committed traffic")
	}
}

// TestDoraMetricsExposition drives live single- and cross-partition
// DORA load and asserts the hydra_dora_* families show it on both
// /metrics and /stats.
func TestDoraMetricsExposition(t *testing.T) {
	e, ts := startMetrics(t)
	tbl, err := e.CreateTable("d")
	if err != nil {
		t.Fatal(err)
	}
	d := dora.New(e, dora.Options{Executors: 4})
	defer d.Close()
	for i := uint64(0); i < 64; i++ {
		if err := d.ExecSingle(dora.Action{Table: tbl, Key: i, Fn: func(tx *core.Txn) error {
			return tx.Insert(tbl, i, []byte("v"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// One guaranteed cross-partition transaction: two keys on
	// different executors.
	k1, k2 := uint64(1), uint64(2)
	for ; d.Route(tbl, k2) == d.Route(tbl, k1); k2++ {
	}
	if err := d.Exec([]dora.Phase{{
		{Table: tbl, Key: k1, Fn: func(tx *core.Txn) error { _, err := tx.Read(tbl, k1); return err }},
		{Table: tbl, Key: k2, Fn: func(tx *core.Txn) error { _, err := tx.Read(tbl, k2); return err }},
	}}); err != nil {
		t.Fatal(err)
	}

	body := get(t, ts.URL+"/metrics")
	checkExposition(t, body)
	for _, want := range []string{
		"hydra_dora_actions_total",
		"hydra_dora_rendezvous_total",
		"hydra_dora_local_waits_total",
		"hydra_dora_timeouts_total",
		"hydra_dora_batches_total",
		"hydra_dora_batched_jobs_total",
		`hydra_dora_txns_total{path="single"}`,
		`hydra_dora_txns_total{path="cross"}`,
		`hydra_dora_queue_depth{executor="0"}`,
		"hydra_dora_action_service_seconds_bucket",
		"hydra_dora_action_wait_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if got := st.Value("hydra_dora_actions_total"); got < 66 {
		t.Errorf("dora actions = %v, want >= 66", got)
	}
	if s, c := st.Value("hydra_dora_txns_total", "path", "single"), st.Value("hydra_dora_txns_total", "path", "cross"); s != 64 || c != 1 {
		t.Errorf("dora txns: single=%v cross=%v", s, c)
	}
	if n := len(st.Family("hydra_dora_queue_depth").Series); n != 4 {
		t.Errorf("queue depths: %d executors, want 4", n)
	}
	if st.Hist("hydra_dora_action_service_seconds").Count == 0 {
		t.Error("dora service histogram empty")
	}
}

func TestStatsJSONEndpoint(t *testing.T) {
	e, ts := startMetrics(t)
	tbl, err := e.CreateTable("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}

	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Value("hydra_commits_total") == 0 {
		t.Error("commits not reported")
	}
	if st.Value("hydra_log_inserts_total") == 0 {
		t.Error("log inserts not reported")
	}
	// The committed insert took and released row/table locks, so the
	// lock-head lifecycle counters must be live on the wire.
	if st.Value("hydra_lock_head_allocs_total") == 0 {
		t.Error("lock head allocs not reported")
	}
	if st.Value("hydra_lock_head_retires_total") == 0 {
		t.Error("lock head retires not reported")
	}
	tiers := st.Family("hydra_latch_acquires_total").Series
	if len(tiers) == 0 {
		t.Error("no latch tiers reported")
	}
	for _, tier := range tiers {
		if tier.Value == 0 {
			t.Errorf("tier %q reported with zero ops", tier.Labels["tier"])
		}
		if st.Hist("hydra_latch_acquire_seconds", "tier", tier.Labels["tier"]).Count == 0 {
			t.Errorf("tier %q has no acquire distribution", tier.Labels["tier"])
		}
	}
}

func TestTraceEndpointToggle(t *testing.T) {
	e, ts := startMetrics(t)
	defer obs.Trace.SetEnabled(false)

	get(t, ts.URL+"/trace?enable=on")
	if !obs.Trace.Enabled() {
		t.Fatal("enable=on did not enable the tracer")
	}
	tbl, err := e.CreateTable("tr")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Enabled bool `json:"enabled"`
		Events  []struct {
			Kind string `json:"kind"`
			Txn  uint64 `json:"txn"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/trace?enable=off")), &out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled {
		t.Fatal("enable=off did not disable the tracer")
	}
	kinds := map[string]bool{}
	for _, ev := range out.Events {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"begin", "log-append", "commit"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events (got %v)", want, kinds)
		}
	}
}

// TestScrapeUnderLoad hammers /metrics and /stats while a write/abort
// workload runs — the concurrency contract of the whole surface. Run
// with -race this is the PR's required scrape-safety proof.
func TestScrapeUnderLoad(t *testing.T) {
	e, ts := startMetrics(t)
	obs.Trace.SetEnabled(true)
	defer obs.Trace.SetEnabled(false)

	tbl, err := e.CreateTable("load")
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers  = 4
		scrapers = 4
		txns     = 150
		scrapes  = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				key := id*txns + uint64(i)
				if i%5 == 4 {
					tx := e.Begin()
					_ = tx.Insert(tbl, key, []byte("doomed"))
					if err := tx.Abort(); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := e.Exec(func(tx *core.Txn) error {
					return tx.Insert(tbl, key, []byte(fmt.Sprintf("v%d", key)))
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w))
	}
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				switch (id + i) % 3 {
				case 0:
					checkExposition(t, get(t, ts.URL+"/metrics"))
				case 1:
					var st StatsJSON
					if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
						t.Error(err)
						return
					}
				case 2:
					get(t, ts.URL+"/trace")
				}
			}
		}(s)
	}
	wg.Wait()

	// After the dust settles the counters must reconcile exactly.
	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	wantAborts := float64(writers * txns / 5)
	if got := st.Value("hydra_aborts_total"); got < wantAborts {
		t.Errorf("aborts = %v, want >= %v", got, wantAborts)
	}
	if got := st.Value("hydra_commits_total"); got < writers*txns-wantAborts {
		t.Errorf("commits = %v, want >= %v", got, writers*txns-wantAborts)
	}
}

func TestStatsFullProtocolCommand(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.CreateTable("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("f", 1, "x"); err != nil {
		t.Fatal(err)
	}
	st, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if st.Value("hydra_commits_total") == 0 {
		t.Error("STATS FULL reported zero commits")
	}
	if len(st.Family("hydra_latch_acquires_total").Series) == 0 {
		t.Error("STATS FULL reported no latch tiers")
	}
}

// TestMVCCMetricsExposition drives snapshot-read traffic on an
// MVCC-enabled engine and asserts the hydra_mvcc_* families (and the
// lock bypass counter) appear in the exposition, with the zero-lock
// signature: snapshot reads climb while lock acquires stay flat.
func TestMVCCMetricsExposition(t *testing.T) {
	cfg := core.Scalable()
	cfg.MVCC = true
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFlightRecorder(e, FlightOptions{})
	fr.Start()
	ts := httptest.NewServer(NewMetricsMux(e, fr))
	t.Cleanup(func() {
		ts.Close()
		fr.Stop()
		e.Close()
	})

	tbl, err := e.CreateTable("mv")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if err := e.Exec(func(tx *core.Txn) error {
			return tx.Insert(tbl, i, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := e.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if _, err := s.Read(tbl, i); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the snapshot across an update so a chain read happens and
	// the active-snapshot gauge is non-zero at scrape time.
	if err := e.Exec(func(tx *core.Txn) error { return tx.Update(tbl, 1, []byte("w")) }); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Read(tbl, 1); err != nil || string(v) != "v" {
		t.Fatalf("chain read %q, %v", v, err)
	}
	// SI writer traffic: one commit and one deterministic
	// first-committer-wins abort, so both si counters are non-zero.
	if err := e.ExecSI(func(tx *core.Txn) error { return tx.Update(tbl, 2, []byte("si")) }); err != nil {
		t.Fatal(err)
	}
	loser, err := e.BeginSnapshotRW()
	if err != nil {
		t.Fatal(err)
	}
	if err := loser.Update(tbl, 3, []byte("l")); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *core.Txn) error { return tx.Update(tbl, 3, []byte("w")) }); err != nil {
		t.Fatal(err)
	}
	if err := loser.Commit(); !errors.Is(err, core.ErrWriteConflict) {
		t.Fatalf("loser commit: %v, want ErrWriteConflict", err)
	}

	body := get(t, ts.URL+"/metrics")
	checkExposition(t, body)
	for _, want := range []string{
		"hydra_mvcc_snapshot_begins_total",
		"hydra_mvcc_snapshot_reads_total",
		"hydra_mvcc_chain_reads_total",
		"hydra_mvcc_installs_total",
		"hydra_mvcc_gc_nodes_total",
		"hydra_mvcc_gc_sweeps_total",
		"hydra_mvcc_live_nodes",
		"hydra_mvcc_active_snapshots 1",
		"hydra_mvcc_oldest_snapshot_age_seconds",
		"hydra_mvcc_si_begins_total",
		"hydra_mvcc_si_commits_total 1",
		"hydra_mvcc_si_conflict_aborts_total 1",
		"hydra_mvcc_snapshots_expired_total",
		"hydra_lock_bypasses_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if got := st.Value("hydra_mvcc_snapshot_reads_total"); got < 65 {
		t.Errorf("snapshot reads = %v, want >= 65", got)
	}
	if st.Value("hydra_mvcc_chain_reads_total") == 0 {
		t.Error("no chain reads recorded")
	}
	if b, a := st.Value("hydra_mvcc_snapshot_begins_total"), st.Value("hydra_mvcc_active_snapshots"); b != 1 || a != 1 {
		t.Errorf("snapshot registry: begins=%v active=%v", b, a)
	}
	if got := st.Value("hydra_lock_bypasses_total"); got < 65 {
		t.Errorf("lock bypasses = %v, want >= 65", got)
	}
	if b, c, x := st.Value("hydra_mvcc_si_begins_total"), st.Value("hydra_mvcc_si_commits_total"), st.Value("hydra_mvcc_si_conflict_aborts_total"); b != 2 || c != 1 || x != 1 {
		t.Errorf("si counters: begins=%v commits=%v conflicts=%v", b, c, x)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}
