package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"hydra/internal/rng"
	"hydra/internal/server"
)

func TestPercentile(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.1, 14}, {0.99, 49.6},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := sortedCopy([]int64{3, 1, 2}); got[0] != 1 || got[2] != 3 {
		t.Errorf("sortedCopy = %v", got)
	}
}

func TestShadowGet(t *testing.T) {
	sh := &shadow{lo: 100, vals: []string{"a", " b  c ", "d"}}
	if err := sh.checkGet(100, "a"); err != nil {
		t.Fatalf("exact value rejected: %v", err)
	}
	if err := sh.checkGet(101, " b  c "); err != nil {
		t.Fatalf("value with spaces rejected: %v", err)
	}
	if err := sh.checkGet(101, "b c"); !errors.Is(err, errMismatch) {
		t.Fatalf("collapsed spaces accepted: %v", err)
	}
	if err := sh.checkGet(102, "x"); !errors.Is(err, errMismatch) {
		t.Fatalf("wrong value accepted: %v", err)
	}
	sh.set(102, "x")
	if err := sh.checkGet(102, "x"); err != nil {
		t.Fatalf("acknowledged SET not in shadow: %v", err)
	}
}

func TestShadowScan(t *testing.T) {
	sh := &shadow{lo: 0, vals: []string{"a", "b", "c", "d"}}
	rows := []server.Row{{Key: 1, Value: "b"}, {Key: 2, Value: "c"}}
	if err := sh.checkScan(1, 3, 2, rows); err != nil {
		t.Fatalf("scan limited by max rejected: %v", err)
	}
	if err := sh.checkScan(1, 2, 5, rows); err != nil {
		t.Fatalf("scan limited by range rejected: %v", err)
	}
	if err := sh.checkScan(1, 3, 5, rows); !errors.Is(err, errMismatch) {
		t.Fatalf("short scan accepted: %v", err)
	}
	gap := []server.Row{{Key: 1, Value: "b"}, {Key: 3, Value: "d"}}
	if err := sh.checkScan(1, 3, 2, gap); !errors.Is(err, errMismatch) {
		t.Fatalf("scan with a missing key accepted: %v", err)
	}
	wrong := []server.Row{{Key: 1, Value: "b"}, {Key: 2, Value: "z"}}
	if err := sh.checkScan(1, 3, 2, wrong); !errors.Is(err, errMismatch) {
		t.Fatalf("scan with a wrong value accepted: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// op 1: root 0..100, call 10..90 with bodies 20..40 and 30..60
		// (overlapping) and 70..80.
		{Op: 1, ID: 0, Parent: -1, Name: spanOp, Start: 0, End: 100},
		{Op: 1, ID: 1, Parent: 0, Name: callExecutor, Start: 10, End: 90},
		{Op: 1, ID: 2, Parent: 1, Name: spanBody, Start: 20, End: 40},
		{Op: 1, ID: 3, Parent: 1, Name: spanBody, Start: 30, End: 60},
		{Op: 1, ID: 4, Parent: 1, Name: spanBody, Start: 70, End: 80},
		// op 2 reuses span ids: root 0..50, one call 5..45 reaching
		// past nothing, and a child clipped to the parent.
		{Op: 2, ID: 0, Parent: -1, Name: spanOp, Start: 0, End: 50},
		{Op: 2, ID: 1, Parent: 0, Name: callServer, Start: 5, End: 60},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		spanOp:       20 + 5,  // op 1: 100-80; op 2: 50-45 (child clipped at 50)
		callExecutor: 80 - 50, // union of bodies is 20..60 and 70..80
		spanBody:     20 + 30 + 10,
		callServer:   55,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestOpLayers(t *testing.T) {
	tr := &opTrace{spans: []span{
		{ID: 0, Parent: -1, Name: spanOp, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: callExecSI, Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: spanBody, Start: 20, End: 30},
		{ID: 3, Parent: 1, Name: spanBody, Start: 50, End: 70},
	}}
	call, exec, body, attempts := tr.opLayers()
	if call != callExecSI || exec != 80 || body != 30 || attempts != 2 {
		t.Fatalf("opLayers = %s %d %d %d, want %s 80 30 2", call, exec, body, attempts, callExecSI)
	}
	var nilTrace *opTrace
	calls := 0
	if err := nilTrace.call(callServer, func() error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("untraced call ran %d times, err %v", calls, err)
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metric declarations in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code declares %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the code %s %s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestWireValues checks that the timed loop's values survive the
// server's SET parsing and that every probe value does not.
func TestWireValues(t *testing.T) {
	fields := func(v string) string { return strings.Join(strings.Fields(v), " ") }
	src := rng.New(7)
	spaces := 0
	for range 2000 {
		v := wireValue(src)
		if len(v) != wireValueSize || fields(v) != v {
			t.Fatalf("value %q would be altered by the server", v)
		}
		spaces += strings.Count(v, " ")
	}
	if spaces == 0 {
		t.Fatal("no value holds a space")
	}
	for i := range wireProbes {
		if v := probeValue(src, i); len(v) != wireValueSize || fields(v) == v {
			t.Fatalf("probe value %q would not be altered by the server", v)
		}
	}
}
