package server

import (
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dora"
)

// TestMetricsConformance drives locked, DORA, snapshot-read and SI
// writer traffic, then asserts that every family of the table appears
// with its declared type on /metrics, /stats and STATS FULL, and that
// the load shows through the families it moved. CI's bench-smoke
// target runs it to guard the observability contract.
func TestMetricsConformance(t *testing.T) {
	cfg := core.Scalable()
	cfg.MVCC = true
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFlightRecorder(e, FlightOptions{})
	fr.Start()
	ts := httptest.NewServer(NewMetricsMux(e, fr))
	srv := New(e)
	srv.SetFlightRecorder(fr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
		fr.Stop()
		e.Close()
	})

	// Locked traffic: committed inserts through the lock manager.
	tbl, err := e.CreateTable("conf")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, i, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}

	// DORA traffic: 64 single-partition transactions and one
	// guaranteed cross-partition one (two keys on different executors).
	d := dora.New(e, dora.Options{Executors: 4})
	defer d.Close()
	for i := uint64(0); i < 64; i++ {
		if err := d.ExecSingle(dora.Action{Table: tbl, Key: i, Fn: func(tx *core.Txn) error {
			return tx.Update(tbl, i, []byte("d"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	k1, k2 := uint64(1), uint64(2)
	for ; d.Route(tbl, k2) == d.Route(tbl, k1); k2++ {
	}
	if err := d.Exec([]dora.Phase{{
		{Table: tbl, Key: k1, Fn: func(tx *core.Txn) error { _, err := tx.Read(tbl, k1); return err }},
		{Table: tbl, Key: k2, Fn: func(tx *core.Txn) error { _, err := tx.Read(tbl, k2); return err }},
	}}); err != nil {
		t.Fatal(err)
	}

	// Snapshot reads, with the snapshot held across an update so a
	// chain read happens and the active-snapshot gauge reads 1.
	snap, err := e.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Commit()
	for i := uint64(0); i < 64; i++ {
		if _, err := snap.Read(tbl, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Exec(func(tx *core.Txn) error { return tx.Update(tbl, 1, []byte("w")) }); err != nil {
		t.Fatal(err)
	}
	if v, err := snap.Read(tbl, 1); err != nil || string(v) != "d" {
		t.Fatalf("chain read %q, %v", v, err)
	}

	// SI writers: one commit and one deterministic first-committer-wins
	// abort.
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
	var st StatsJSON
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	c := dial(t, ln.Addr().String())
	full, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}

	// Every family, on every surface, in table order with its type.
	for _, surface := range []struct {
		name string
		st   StatsJSON
	}{{"/stats", st}, {"STATS FULL", full}} {
		if len(surface.st.Families) != len(families) {
			t.Errorf("%s has %d families, the table %d", surface.name, len(surface.st.Families), len(families))
			continue
		}
		for i, f := range families {
			got := surface.st.Families[i]
			if got.Name != f.name || got.Type != string(f.kind) {
				t.Errorf("%s family %d = %s %s, want %s %s", surface.name, i, got.Name, got.Type, f.name, f.kind)
			}
		}
	}
	for _, f := range families {
		if !strings.Contains(body, "# TYPE "+f.name+" "+string(f.kind)+"\n") {
			t.Errorf("/metrics missing TYPE line of %s", f.name)
		}
	}

	for _, want := range []string{
		// Locked traffic and the phase accounting it feeds.
		`hydra_txn_total_seconds_bucket{path="conv",outcome="commit"`,
		`hydra_txn_total_seconds_count{path="conv",outcome="commit"}`,
		`hydra_txn_phase_seconds_bucket{phase="flush_wait",path="conv",outcome="commit"`,
		"hydra_slow_admitted_total",
		"hydra_slow_rotations_total",
		`hydra_incidents_total{kind="wal_stall"}`,
		`hydra_incidents_total{kind="dora_queue_pinned"}`,
		`hydra_incidents_total{kind="lock_waiter_stuck"}`,
		"hydra_latch_acquires_total{tier=",
		"hydra_latch_acquire_seconds_bucket{tier=",
		`le="+Inf"`,
		// DORA.
		`hydra_dora_txns_total{path="single"} 64`,
		`hydra_dora_txns_total{path="cross"} 1`,
		`hydra_dora_queue_depth{executor="0"}`,
		`hydra_dora_queue_depth{executor="3"}`,
		"hydra_dora_action_service_seconds_bucket",
		"hydra_dora_action_wait_seconds_count",
		// Snapshot reads and SI writers.
		"hydra_mvcc_active_snapshots 1",
		"hydra_mvcc_si_commits_total 1",
		"hydra_mvcc_si_conflict_aborts_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The same load, read back by family name from the JSON surfaces.
	for _, surface := range []StatsJSON{st, full} {
		if len(surface.Family("hydra_txn_total_seconds").Series) == 0 {
			t.Error("no phase cells after committed traffic")
		}
		if got := surface.Value("hydra_dora_actions_total"); got < 66 {
			t.Errorf("dora actions = %v, want >= 66", got)
		}
		if s, c := surface.Value("hydra_dora_txns_total", "path", "single"), surface.Value("hydra_dora_txns_total", "path", "cross"); s != 64 || c != 1 {
			t.Errorf("dora txns: single=%v cross=%v", s, c)
		}
		if n := len(surface.Family("hydra_dora_queue_depth").Series); n != 4 {
			t.Errorf("queue depths: %d executors, want 4", n)
		}
		if surface.Hist("hydra_dora_action_service_seconds").Count == 0 {
			t.Error("dora service histogram empty")
		}
		if got := surface.Value("hydra_mvcc_snapshot_reads_total"); got < 65 {
			t.Errorf("snapshot reads = %v, want >= 65", got)
		}
		if surface.Value("hydra_mvcc_chain_reads_total") == 0 {
			t.Error("no chain reads recorded")
		}
		if b, a := surface.Value("hydra_mvcc_snapshot_begins_total"), surface.Value("hydra_mvcc_active_snapshots"); b != 1 || a != 1 {
			t.Errorf("snapshot registry: begins=%v active=%v", b, a)
		}
		if got := surface.Value("hydra_lock_bypasses_total"); got < 65 {
			t.Errorf("lock bypasses = %v, want >= 65", got)
		}
		if b, c, x := surface.Value("hydra_mvcc_si_begins_total"), surface.Value("hydra_mvcc_si_commits_total"), surface.Value("hydra_mvcc_si_conflict_aborts_total"); b != 2 || c != 1 || x != 1 {
			t.Errorf("si counters: begins=%v commits=%v conflicts=%v", b, c, x)
		}
		if surface.Value("hydra_mvcc_snapshot_floor") == 0 {
			t.Error("snapshot floor not reported")
		}
		if surface.Value("hydra_lock_release_all_total") == 0 {
			t.Error("lock release_all not reported")
		}
	}
}
