package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// opClass sorts ops for the latency metrics.
type opClass int

const (
	classRead opClass = iota
	classWrite
	classScan
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan"}

// client drives one closed-loop connection or worker of a workload.
type client interface {
	// op runs one operation and reports its class. tr is nil for an
	// untraced op. A non-nil error is a failed op: an error that
	// survived the engine's retries, or a wrong result.
	op(tr *opTrace) (opClass, error)
}

// pinger is a client that can time a no-op round trip on its
// connection (wire-kv).
type pinger interface {
	ping() error
}

const (
	// spanEvery keeps the spans of one traced op in spanEvery.
	spanEvery = 16
	// pingEvery samples a PING after one traced op in pingEvery.
	pingEvery = 16
	// traceSlice is the length of the alternating untraced and traced
	// slices of a traced run.
	traceSlice = 500 * time.Millisecond
)

// worker is one client's loop and its private tallies.
type worker struct {
	id int
	c  client

	windows   []window // untraced ops, by window of the timed phase
	done      [2]int64 // completed ops, by mode (0 untraced, 1 traced)
	attempted int64
	failed    int64
	firstErr  error

	// Traced ops only.
	serverRTT []int64
	exec      []int64
	body      []int64
	commit    []int64
	attempts  int64
	pings     []int64
	spans     []span
	tr        opTrace
	traced    uint64
}

// window holds the untraced ops that completed in one window of the
// timed phase. The end-to-end metrics are medians over windows, so a
// stall in one window moves them little.
type window struct {
	lat [numClasses][]int64 // latencies, ns
}

// runner drives the workers. recording is false during warm-up;
// traced flips between slices in a traced run.
type runner struct {
	workers    []*worker
	base       time.Time
	phaseStart time.Time // of the timed phase
	window     time.Duration
	stop       atomic.Bool
	recording  atomic.Bool
	traced     atomic.Bool
	wg         sync.WaitGroup
}

func newRunner(clients []client, windows int) *runner {
	r := &runner{base: time.Now()}
	for i, c := range clients {
		w := &worker{id: i, c: c, windows: make([]window, windows)}
		w.tr.base = r.base
		r.workers = append(r.workers, w)
	}
	return r
}

// windowAt returns the window an op completing at t belongs to.
func (w *worker) windowAt(r *runner, t time.Time) *window {
	i := int(t.Sub(r.phaseStart) / r.window)
	return &w.windows[max(0, min(i, len(w.windows)-1))]
}

func (r *runner) start() {
	for _, w := range r.workers {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			w.loop(r, uint64(len(r.workers)))
		}()
	}
}

// halt stops the workers and waits for them.
func (r *runner) halt() {
	r.stop.Store(true)
	r.wg.Wait()
}

func (w *worker) loop(r *runner, nworkers uint64) {
	for n := uint64(0); !r.stop.Load(); n++ {
		var tr *opTrace
		mode := 0
		if r.traced.Load() {
			mode = 1
			tr = &w.tr
			tr.begin(n*nworkers + uint64(w.id))
		}
		t0 := time.Now()
		cls, err := w.c.op(tr)
		t1 := time.Now()
		if tr != nil {
			tr.finish()
		}
		if !r.recording.Load() {
			continue
		}
		w.attempted++
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
			continue
		}
		w.done[mode]++
		if tr == nil {
			win := w.windowAt(r, t1)
			win.lat[cls] = append(win.lat[cls], t1.Sub(t0).Nanoseconds())
			continue
		}
		w.recordTrace(tr)
	}
}

func (w *worker) recordTrace(tr *opTrace) {
	w.traced++
	call, exec, body, attempts := tr.opLayers()
	switch {
	case call == callServer:
		w.serverRTT = append(w.serverRTT, exec)
	case attempts > 0:
		w.exec = append(w.exec, exec)
		w.body = append(w.body, body)
		w.commit = append(w.commit, exec-body)
		w.attempts += int64(attempts)
	}
	if w.traced%spanEvery == 0 {
		w.spans = append(w.spans, tr.spans...)
	}
	if p, ok := w.c.(pinger); ok && w.traced%pingEvery == 0 {
		t0 := time.Now()
		if err := p.ping(); err != nil {
			w.failed++
			w.attempted++
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("ping: %w", err)
			}
			return
		}
		w.pings = append(w.pings, time.Since(t0).Nanoseconds())
	}
}

// measure records for d, split into the workers' windows. With
// alternate set it flips between untraced and traced slices and
// returns the time spent in each mode; otherwise everything is
// untraced. tick runs every 50ms.
func (r *runner) measure(d time.Duration, alternate bool, tick func()) (modeNs [2]int64) {
	r.window = d / time.Duration(len(r.workers[0].windows))
	r.phaseStart = time.Now()
	r.recording.Store(true)
	end := time.NewTimer(d)
	defer end.Stop()
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	sliceStart, mode := r.phaseStart, 0
	for {
		select {
		case <-end.C:
			now := time.Now()
			r.recording.Store(false)
			r.traced.Store(false)
			modeNs[mode] += now.Sub(sliceStart).Nanoseconds()
			return modeNs
		case now := <-ticker.C:
			if tick != nil {
				tick()
			}
			if alternate && now.Sub(sliceStart) >= traceSlice {
				modeNs[mode] += now.Sub(sliceStart).Nanoseconds()
				mode = 1 - mode
				r.traced.Store(mode == 1)
				sliceStart = now
			}
		}
	}
}
