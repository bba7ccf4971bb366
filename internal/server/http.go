// HTTP observability surface: a stdlib-only listener exposing the
// engine's counters and contention profiles while a workload runs.
//
//	GET /metrics    Prometheus text exposition of the metric families
//	GET /stats      the same families as JSON (hydra-top's feed)
//	GET /trace      retained transaction events as JSON;
//	                ?enable=on|off toggles recording,
//	                ?txn=<id> filters to one transaction,
//	                ?max=<n> caps the response (default 4096 events)
//	GET /slow       the worst-K slow-transaction reservoir with phase
//	                breakdowns and captured traces
//	GET /incidents  the stall flight recorder's diagnostic bundles
//
// The handlers live in this package (not internal/obs) deliberately:
// obs must stay import-free of the engine so every subsystem can
// depend on it, while the snapshot here needs *core.Engine to reach
// the per-engine counters. Scraping is read-only and touches only
// atomic loads, so it can run at any frequency against a loaded
// server.
package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"hydra/internal/core"
	"hydra/internal/obs"
)

// SlowTxnJSON is one retained slow transaction on the wire.
type SlowTxnJSON struct {
	Txn     uint64           `json:"txn"`
	Path    string           `json:"path"`
	Outcome string           `json:"outcome"`
	StartNs int64            `json:"start_ns"`
	TotalNs int64            `json:"total_ns"`
	Phase   map[string]int64 `json:"phase_ns"`
	Trace   []TraceEventJSON `json:"trace,omitempty"`
}

// TraceEventJSON is one tracer event on the wire (shared by /trace,
// /slow and incident bundles).
type TraceEventJSON struct {
	TSNs int64  `json:"ts_ns"`
	Txn  uint64 `json:"txn"`
	Kind string `json:"kind"`
	Arg  uint64 `json:"arg"`
	Arg2 uint64 `json:"arg2"`
}

func traceEventsJSON(events []obs.Event) []TraceEventJSON {
	out := make([]TraceEventJSON, 0, len(events))
	for _, ev := range events {
		out = append(out, TraceEventJSON{
			TSNs: ev.TS, Txn: ev.Txn, Kind: ev.Kind.String(),
			Arg: ev.Arg, Arg2: ev.Arg2,
		})
	}
	return out
}

func slowTxnsJSON(entries []obs.SlowTxn) []SlowTxnJSON {
	out := make([]SlowTxnJSON, 0, len(entries))
	for i := range entries {
		e := &entries[i]
		j := SlowTxnJSON{
			Txn: e.Txn, Path: e.Path.String(), Outcome: e.Outcome.String(),
			StartNs: e.Start, TotalNs: e.Total,
			Phase: make(map[string]int64, int(obs.NumPhases)),
		}
		for p := range e.Phase {
			if e.Phase[p] != 0 {
				j.Phase[obs.Phase(p).String()] = e.Phase[p]
			}
		}
		if len(e.Trace) > 0 {
			j.Trace = traceEventsJSON(e.Trace)
		}
		out = append(out, j)
	}
	return out
}

// SlowJSON is the /slow response body.
type SlowJSON struct {
	Admitted uint64        `json:"admitted"`
	Rotated  uint64        `json:"rotated"`
	WindowNs int64         `json:"window_ns"`
	Entries  []SlowTxnJSON `json:"entries"`
}

func slowJSON() SlowJSON {
	s := obs.SlowTxns.Snapshot()
	return SlowJSON{
		Admitted: s.Admitted, Rotated: s.Rotated, WindowNs: s.WindowNs,
		Entries: slowTxnsJSON(s.Entries),
	}
}

// traceMaxDefault caps a /trace response when the caller does not pass
// an explicit ?max=: the retained ring can hold far more events than a
// dashboard wants in one response body.
const traceMaxDefault = 4096

// NewMetricsMux returns the observability mux: /metrics, /stats,
// /trace, /slow, /incidents. Mount it on any listener; it holds only
// references to e and fr. fr may be nil — /incidents then serves an
// empty list and the incident counters read zero.
func NewMetricsMux(e *core.Engine, fr *FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, gather(e, fr))
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(Snapshot(e, fr))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if v := q.Get("enable"); v != "" {
			on := v == "on" || v == "true" || v == "1"
			obs.Trace.SetEnabled(on)
		}
		var txn uint64
		if v := q.Get("txn"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad txn: "+err.Error(), http.StatusBadRequest)
				return
			}
			txn = n
		}
		max := traceMaxDefault
		if v := q.Get("max"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad max", http.StatusBadRequest)
				return
			}
			max = n
		}
		events := obs.Trace.DumpFiltered(txn, max)
		out := struct {
			Enabled bool             `json:"enabled"`
			Txn     uint64           `json:"txn,omitempty"`
			Capped  bool             `json:"capped"`
			Events  []TraceEventJSON `json:"events"`
		}{
			Enabled: obs.Trace.Enabled(),
			Txn:     txn,
			Capped:  max > 0 && len(events) == max,
			Events:  traceEventsJSON(events),
		}
		sort.SliceStable(out.Events, func(a, b int) bool { return out.Events[a].TSNs < out.Events[b].TSNs })
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(slowJSON())
	})
	mux.HandleFunc("/incidents", func(w http.ResponseWriter, r *http.Request) {
		incidents := []Incident{}
		if fr != nil {
			incidents = fr.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Incidents []Incident `json:"incidents"`
		}{incidents})
	})
	return mux
}
