// Stall flight recorder: a watchdog goroutine that polls cheap engine
// gauges for sustained no-progress conditions and, when one confirms,
// captures a diagnostic bundle into a bounded ring. The bundles are
// served at /incidents and counted in /metrics, so a hung commit
// pipeline or a wedged executor leaves evidence even if the operator
// only looks after the fact.
//
// Detection is deliberately conservative: a condition must hold for
// Confirm consecutive polls before an incident fires, and each kind
// then cools down for Cooldown so a persistent stall produces one
// bundle, not one per poll.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/obs"
)

// StallKind identifies one watchdog condition.
type StallKind int

const (
	// StallWAL fires when the durable LSN has not advanced across
	// consecutive polls while commit waiters are parked on it: the
	// group-commit pipeline is wedged (dead flusher, stuck device).
	StallWAL StallKind = iota
	// StallDoraQueue fires when a DORA executor queue sits at capacity
	// across consecutive polls: the partition is not draining and
	// every producer into it is blocked.
	StallDoraQueue
	// StallLockWaiter fires when the oldest lock waiter exceeds the
	// configured horizon: admission is stalled behind a lock that is
	// not being released (leaked holder, undetected cycle).
	StallLockWaiter
	// StallMVCCGC fires when the oldest pinned snapshot exceeds the
	// configured horizon WHILE the version store keeps growing: the
	// pin is holding the GC watermark and chains accumulate without
	// bound (the long-snapshot stall; Config.MaxSnapshotAge is the
	// opt-in remedy, this incident is the evidence either way).
	StallMVCCGC

	numStallKinds
)

var stallKindNames = [numStallKinds]string{
	StallWAL:        "wal_stall",
	StallDoraQueue:  "dora_queue_pinned",
	StallLockWaiter: "lock_waiter_stuck",
	StallMVCCGC:     "mvcc_gc_stalled",
}

// String returns the kind label used in /metrics and /incidents.
func (k StallKind) String() string {
	if k >= 0 && k < numStallKinds {
		return stallKindNames[k]
	}
	return "unknown"
}

// FlightOptions configures the recorder. The zero value picks
// production defaults; tests shrink the horizons to milliseconds.
type FlightOptions struct {
	// Poll is the watchdog period. Default 250ms.
	Poll time.Duration
	// Confirm is how many consecutive positive polls arm an incident.
	// Default 3 (i.e. a stall must hold for ~750ms).
	Confirm int
	// Cooldown suppresses repeat incidents of one kind. Default 10s.
	Cooldown time.Duration
	// LockWaiterHorizon is the oldest-waiter age that counts as a
	// stall. Default 2s (beyond any configured lock timeout).
	LockWaiterHorizon time.Duration
	// SnapshotAgeHorizon is the oldest-pinned-snapshot age beyond
	// which a still-growing version store counts as a GC stall.
	// Default 5s.
	SnapshotAgeHorizon time.Duration
}

func (o *FlightOptions) fill() {
	if o.Poll <= 0 {
		o.Poll = 250 * time.Millisecond
	}
	if o.Confirm <= 0 {
		o.Confirm = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 10 * time.Second
	}
	if o.LockWaiterHorizon <= 0 {
		o.LockWaiterHorizon = 2 * time.Second
	}
	if o.SnapshotAgeHorizon <= 0 {
		o.SnapshotAgeHorizon = 5 * time.Second
	}
}

// incidentRing bounds retained bundles; older incidents fall off.
const incidentRing = 8

// maxWaitsForEdges bounds the waits-for graph copied into a bundle.
const maxWaitsForEdges = 64

// Incident is one captured diagnostic bundle.
type Incident struct {
	Seq      uint64    `json:"seq"`
	Kind     string    `json:"kind"`
	Wall     time.Time `json:"wall_time"`
	MonoNs   int64     `json:"mono_ns"`
	Detail   string    `json:"detail"`
	Polls    int       `json:"confirming_polls"`
	Cooldown bool      `json:"cooldown_suppressed_since_last"`

	// Commit-pipeline state at capture.
	FlushedLSN    uint64 `json:"flushed_lsn"`
	CommitWaiters int    `json:"commit_waiters"`
	LogInserts    uint64 `json:"log_inserts"`
	LogFlushes    uint64 `json:"log_flushes"`

	// Executor state at capture.
	QueueDepths []int `json:"queue_depths,omitempty"`
	QueueCaps   []int `json:"queue_caps,omitempty"`

	// Lock state at capture. WaitsFor maps waiting txn -> blockers and
	// is truncated to maxWaitsForEdges entries.
	OldestLockWaitNs int64               `json:"oldest_lock_wait_ns"`
	LockWaiters      int                 `json:"lock_waiters"`
	WaitsFor         map[uint64][]uint64 `json:"waits_for,omitempty"`
	WaitsForTrunc    bool                `json:"waits_for_truncated,omitempty"`

	// MVCC state at capture: the pin holding the watermark and the
	// growth it is causing.
	OldestSnapshotAgeNs int64  `json:"oldest_snapshot_age_ns,omitempty"`
	ActiveSnapshots     int    `json:"active_snapshots,omitempty"`
	MvccLiveNodes       int64  `json:"mvcc_live_nodes,omitempty"`
	MvccGCNodes         uint64 `json:"mvcc_gc_nodes,omitempty"`

	// The slowest retained transactions with their phase breakdowns:
	// where the time of the transactions that did finish went.
	SlowTop []SlowTxnJSON `json:"slow_top,omitempty"`
}

// FlightRecorder owns the watchdog goroutine and the incident ring.
type FlightRecorder struct {
	e    *core.Engine
	opts FlightOptions

	counts [numStallKinds]atomic.Uint64

	mu   sync.Mutex
	ring [incidentRing]Incident
	n    int // valid entries in ring (<= incidentRing)
	next int // ring cursor
	seq  uint64

	// per-kind detector state, watchdog goroutine only
	lastFlushed   uint64
	lastLiveNodes int64
	streak        [numStallKinds]int
	lastFire      [numStallKinds]int64

	stop chan struct{}
	done chan struct{}
}

// NewFlightRecorder builds a recorder for e. Call Start to launch the
// watchdog and Stop to halt it; a recorder that is never started still
// serves empty snapshots.
func NewFlightRecorder(e *core.Engine, opts FlightOptions) *FlightRecorder {
	opts.fill()
	return &FlightRecorder{
		e:    e,
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start launches the watchdog goroutine.
func (fr *FlightRecorder) Start() {
	go fr.run()
}

// Stop halts the watchdog and waits for it to exit.
func (fr *FlightRecorder) Stop() {
	close(fr.stop)
	<-fr.done
}

func (fr *FlightRecorder) run() {
	defer close(fr.done)
	t := time.NewTicker(fr.opts.Poll)
	defer t.Stop()
	fr.lastFlushed = uint64(fr.e.Log().FlushedLSN())
	for {
		select {
		case <-fr.stop:
			return
		case <-t.C:
			fr.poll()
		}
	}
}

// poll evaluates every condition once and fires confirmed incidents.
func (fr *FlightRecorder) poll() {
	now := obs.Now()

	// WAL: durable frontier stuck with committers parked on it.
	flushed := uint64(fr.e.Log().FlushedLSN())
	waiters := fr.e.Log().CommitWaiters()
	if flushed == fr.lastFlushed && waiters > 0 {
		fr.bump(StallWAL, now, func() string {
			return fmt.Sprintf("durable LSN stuck at %d with %d commit waiter(s)", flushed, waiters)
		})
	} else {
		fr.streak[StallWAL] = 0
	}
	fr.lastFlushed = flushed

	// DORA: an executor queue pinned at capacity.
	ds := dora.GlobalStats()
	pinned := -1
	for i, d := range ds.QueueDepths {
		if i < len(ds.QueueCaps) && ds.QueueCaps[i] > 0 && d >= ds.QueueCaps[i] {
			pinned = i
			break
		}
	}
	if pinned >= 0 {
		fr.bump(StallDoraQueue, now, func() string {
			return fmt.Sprintf("executor %d queue pinned at capacity %d", pinned, ds.QueueCaps[pinned])
		})
	} else {
		fr.streak[StallDoraQueue] = 0
	}

	// Locks: a waiter older than the horizon.
	age, nw := fr.e.Locks().OldestWaiterAge()
	if nw > 0 && age > int64(fr.opts.LockWaiterHorizon) {
		fr.bump(StallLockWaiter, now, func() string {
			return fmt.Sprintf("oldest lock waiter %.1fms old (%d waiting)", float64(age)/1e6, nw)
		})
	} else {
		fr.streak[StallLockWaiter] = 0
	}

	// MVCC: an old pin holding the watermark while chains still grow.
	// Both halves matter: an old pin over a quiet store holds nothing
	// live, and growth without an old pin is normal write traffic the
	// next release will sweep.
	mv := fr.e.StatsSnapshot().Mvcc
	if mv.ActiveSnapshots > 0 && mv.OldestSnapshotAgeNs > int64(fr.opts.SnapshotAgeHorizon) &&
		mv.LiveNodes > fr.lastLiveNodes {
		grown := mv.LiveNodes - fr.lastLiveNodes
		fr.bump(StallMVCCGC, now, func() string {
			return fmt.Sprintf("oldest snapshot %.1fms old pins GC watermark; %d live version nodes (+%d since last poll)",
				float64(mv.OldestSnapshotAgeNs)/1e6, mv.LiveNodes, grown)
		})
	} else {
		fr.streak[StallMVCCGC] = 0
	}
	fr.lastLiveNodes = mv.LiveNodes
}

// bump advances one kind's confirmation streak and captures an
// incident when it confirms outside the cooldown. detail is a thunk so
// unconfirmed polls never format strings.
func (fr *FlightRecorder) bump(k StallKind, now int64, detail func() string) {
	fr.streak[k]++
	if fr.streak[k] < fr.opts.Confirm {
		return
	}
	cooled := fr.lastFire[k] != 0
	if cooled && now-fr.lastFire[k] < int64(fr.opts.Cooldown) {
		return
	}
	fr.lastFire[k] = now
	fr.capture(k, now, detail(), fr.streak[k], cooled)
	// Count only once the bundle is retained: a reader that sees the
	// count move must find the incident in Snapshot.
	fr.counts[k].Add(1)
	fr.streak[k] = 0
}

// capture assembles the diagnostic bundle and pushes it on the ring.
func (fr *FlightRecorder) capture(k StallKind, now int64, detail string, polls int, cooled bool) {
	st := fr.e.StatsSnapshot()
	ds := dora.GlobalStats()
	age, nw := fr.e.Locks().OldestWaiterAge()
	wf := fr.e.Locks().WaitsForSnapshot()
	trunc := false
	if len(wf) > maxWaitsForEdges {
		cut := make(map[uint64][]uint64, maxWaitsForEdges)
		for txn, bl := range wf {
			cut[txn] = bl
			if len(cut) == maxWaitsForEdges {
				break
			}
		}
		wf, trunc = cut, true
	}
	slow := obs.SlowTxns.Snapshot()
	top := slow.Entries
	if len(top) > 5 {
		top = top[:5]
	}
	inc := Incident{
		Kind:          k.String(),
		Wall:          time.Now(),
		MonoNs:        now,
		Detail:        detail,
		Polls:         polls,
		Cooldown:      cooled,
		FlushedLSN:    uint64(fr.e.Log().FlushedLSN()),
		CommitWaiters: fr.e.Log().CommitWaiters(),
		LogInserts:    st.Log.Inserts,
		LogFlushes:    st.Log.Flushes,
		QueueDepths:   ds.QueueDepths,
		QueueCaps:     ds.QueueCaps,

		OldestLockWaitNs: age,
		LockWaiters:      nw,
		WaitsFor:         wf,
		WaitsForTrunc:    trunc,

		OldestSnapshotAgeNs: st.Mvcc.OldestSnapshotAgeNs,
		ActiveSnapshots:     st.Mvcc.ActiveSnapshots,
		MvccLiveNodes:       st.Mvcc.LiveNodes,
		MvccGCNodes:         st.Mvcc.GCNodes,

		SlowTop: slowTxnsJSON(top),
	}
	fr.mu.Lock()
	fr.seq++
	inc.Seq = fr.seq
	fr.ring[fr.next] = inc
	fr.next = (fr.next + 1) % incidentRing
	if fr.n < incidentRing {
		fr.n++
	}
	fr.mu.Unlock()
}

// Count returns the cumulative incidents of one kind.
func (fr *FlightRecorder) Count(k StallKind) uint64 {
	if k < 0 || k >= numStallKinds {
		return 0
	}
	return fr.counts[k].Load()
}

// Snapshot returns the retained incidents, newest first.
func (fr *FlightRecorder) Snapshot() []Incident {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]Incident, 0, fr.n)
	for i := 0; i < fr.n; i++ {
		// next-1 is the newest entry; walk backwards.
		idx := (fr.next - 1 - i + 2*incidentRing) % incidentRing
		out = append(out, fr.ring[idx])
	}
	return out
}
