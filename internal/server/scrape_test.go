package server

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"hydra/internal/buffer"
	"hydra/internal/core"
	"hydra/internal/obs"
	"hydra/internal/wal"
)

// scrapeAll hits every observability surface once and fails the test
// if any call takes longer than the prompt-return budget. The budget
// is generous (scrapes are atomic loads; seconds mean a deadlock).
func scrapeAll(t *testing.T, ts *httptest.Server, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		get(t, ts.URL+"/metrics")
		get(t, ts.URL+"/stats")
		get(t, ts.URL+"/slow")
		get(t, ts.URL+"/incidents")
		get(t, ts.URL+"/trace")
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("scrape did not return promptly")
	}
}

// TestScrapeDuringWALPoison poisons the log mid-workload (failing
// device) and asserts every observability endpoint still returns
// promptly: the surface must never wait on a dead flusher. Run with
// -race this also proves the scrape path is race-free against the
// poison machinery.
func TestScrapeDuringWALPoison(t *testing.T) {
	dev := wal.NewMem()
	e, err := core.OpenWith(core.Scalable(), buffer.NewMemStore(), dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.CreateTable("p")
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFlightRecorder(e, FlightOptions{Poll: 2 * time.Millisecond})
	fr.Start()
	defer fr.Stop()
	ts := httptest.NewServer(NewMetricsMux(e, fr))
	defer ts.Close()

	if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 1, []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	// Kill the device: the next flush poisons the log, and every
	// subsequent commit fails rather than hangs.
	dev.FailAfter(1, errors.New("injected device death"))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(2); i < 50; i++ {
			if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, i, []byte("w")) }); err != nil {
				return // poison surfaced, as designed
			}
		}
	}()
	for i := 0; i < 10; i++ {
		scrapeAll(t, ts, 5*time.Second)
	}
	wg.Wait()
	// Commits against a poisoned log must report the injected error.
	if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, 999, []byte("x")) }); err == nil {
		t.Fatal("commit succeeded against a poisoned log")
	}
}

// TestScrapeDuringShutdown scrapes concurrently with engine Close and
// requires both to return promptly. STATS FULL over the line protocol
// participates too: the TCP server shares the snapshot path.
func TestScrapeDuringShutdown(t *testing.T) {
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("s")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, i, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFlightRecorder(e, FlightOptions{Poll: 2 * time.Millisecond})
	fr.Start()
	ts := httptest.NewServer(NewMetricsMux(e, fr))
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			scrapeAll(t, ts, 5*time.Second)
		}
	}()
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine close did not return while scraping")
	}
	wg.Wait()
	fr.Stop()
}

// TestStatsFullDuringLoad exercises STATS FULL over the line protocol
// while a workload runs; the response must carry the phase-accounting
// sections.
func TestStatsFullDuringLoad(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.CreateTable("sf"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c2 := dial(t, addr)
		for i := 0; i < 100; i++ {
			if err := c2.Set("sf", uint64(i), "v"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		st, err := c.StatsFull()
		if err != nil {
			t.Fatal(err)
		}
		_ = st
	}
	wg.Wait()
	st, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	cells := st.Family("hydra_txn_total_seconds").Series
	if len(cells) == 0 {
		t.Fatal("STATS FULL carries no phase cells after committed traffic")
	}
	cell := cells[0]
	if cell.Labels["path"] != "conv" || cell.Labels["outcome"] != "commit" || cell.Value == 0 {
		t.Fatalf("unexpected first phase cell: %+v", cell)
	}
	if cell.Hist == nil || cell.Hist.Count == 0 {
		t.Fatal("phase cell total histogram empty")
	}
}

// TestTraceTxnFilter drives two transactions with tracing on and
// asserts ?txn= returns only the requested transaction's events and
// ?max= caps the response.
func TestTraceTxnFilter(t *testing.T) {
	e, ts := startMetrics(t)
	obs.Trace.SetEnabled(true)
	defer obs.Trace.SetEnabled(false)
	tbl, err := e.CreateTable("tf")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if err := e.Exec(func(tx *core.Txn) error { return tx.Insert(tbl, i, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}
	var all struct {
		Events []TraceEventJSON `json:"events"`
	}
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/trace")), &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Events) == 0 {
		t.Fatal("no trace events recorded")
	}
	// Pick a txn that has events and filter to it.
	want := all.Events[len(all.Events)/2].Txn
	var filtered struct {
		Txn    uint64           `json:"txn"`
		Events []TraceEventJSON `json:"events"`
	}
	body := get(t, ts.URL+"/trace?txn="+strconv.FormatUint(want, 10))
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Events) == 0 {
		t.Fatalf("filter for txn %d returned nothing", want)
	}
	for _, ev := range filtered.Events {
		if ev.Txn != want {
			t.Fatalf("filter leaked txn %d (wanted %d)", ev.Txn, want)
		}
	}
	// Cap the response to one event.
	var capped struct {
		Capped bool             `json:"capped"`
		Events []TraceEventJSON `json:"events"`
	}
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/trace?max=1")), &capped); err != nil {
		t.Fatal(err)
	}
	if len(capped.Events) != 1 || !capped.Capped {
		t.Fatalf("max=1: got %d events, capped=%v", len(capped.Events), capped.Capped)
	}
}
