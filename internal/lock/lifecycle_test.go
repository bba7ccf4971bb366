package lock

import (
	"errors"
	"testing"
	"time"
)

// waitQueueLen polls until name's queue holds at least n waiters
// (white-box: the test shares the package and may peek under p.mu).
//
//hydra:vet:nonpropagating -- the deadlock-variant test polls while deliberately holding a waits-for stripe to park the victim's DFS; the stripe is never taken inside this helper
func waitQueueLen(t *testing.T, m *Manager, name Name, n int) {
	t.Helper()
	p := m.part(name)
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		got := 0
		if lh := p.table[name]; lh != nil {
			got = len(lh.queue)
		}
		p.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue on %s never reached %d waiters (at %d)", name, n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertTablesEmpty checks full lock-head reclamation: once every
// transaction has released, no partition may retain a head.
func assertTablesEmpty(t *testing.T, m *Manager) {
	t.Helper()
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		n := len(p.table)
		p.mu.Unlock()
		if n != 0 {
			t.Fatalf("partition %d retains %d lock heads after full release", i, n)
		}
	}
}

// TestWaiterRemovalRegrantsOnTimeout pins the removeWaiter liveness
// fix, timeout variant: holder S, victim X queued, compatible S
// queued behind it. When the X times out, the S behind it must be
// admitted immediately — the holder never releases during the test,
// so only the removal-path regrant can wake it.
func TestWaiterRemovalRegrantsOnTimeout(t *testing.T) {
	m := NewManager(Options{WaitTimeout: 300 * time.Millisecond})
	h := holders(m, 3)
	r := RowName(1, 1)
	if err := h[1].Acquire(r, S); err != nil {
		t.Fatal(err)
	}
	xErr := make(chan error, 1)
	go func() { xErr <- h[2].Acquire(r, X) }()
	waitQueueLen(t, m, r, 1)

	// Stagger the S so its own timeout budget outlives the victim's by
	// a wide margin: its grant must come from the regrant, not be a
	// photo finish with its own timer.
	time.Sleep(150 * time.Millisecond)
	sErr := make(chan error, 1)
	go func() { sErr <- h[3].Acquire(r, S) }()
	waitQueueLen(t, m, r, 2)

	if err := <-xErr; !errors.Is(err, ErrTimeout) {
		t.Fatalf("victim X: err = %v, want ErrTimeout", err)
	}
	select {
	case err := <-sErr:
		if err != nil {
			t.Fatalf("compatible S behind the timed-out X: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("S behind the timed-out X never granted (regrant missing)")
	}
	if h[1].Held(r) != S {
		t.Fatal("holder's S was disturbed")
	}
	h[1].ReleaseAll()
	h[3].ReleaseAll()
	assertTablesEmpty(t, m)
}

// TestWaiterRemovalRegrantsOnDeadlock is the deadlock variant: the
// victim X self-aborts out of the queue and the compatible S behind
// it must be admitted. A deadlock victim normally removes itself
// immediately after enqueueing; to queue the S behind it
// deterministically, the test holds the waits-for stripe the victim's
// cycle DFS must visit, parking the victim between its enqueue and
// its removal.
func TestWaiterRemovalRegrantsOnDeadlock(t *testing.T) {
	m := NewManager(Options{}) // no timeout: only the deadlock path may remove
	r, r2 := RowName(1, 1), RowName(1, 2)
	t1 := uint64(1)
	t2 := uint64(2)
	for wfIdx(t2) == wfIdx(t1) {
		t2++
	}
	t3 := t2 + 1
	h1, h2, h3 := m.NewHolder(t1), m.NewHolder(t2), m.NewHolder(t3)

	if err := h2.Acquire(r2, X); err != nil {
		t.Fatal(err)
	}
	if err := h1.Acquire(r, S); err != nil {
		t.Fatal(err)
	}
	// t1 blocks on r2, installing the t1 -> t2 half of the cycle.
	t1Err := make(chan error, 1)
	go func() { t1Err <- h1.Acquire(r2, X) }()
	waitQueueLen(t, m, r2, 1)

	// Park the victim's upcoming DFS: discovering the cycle requires
	// reading t1's out-edges, which live in the stripe we now hold.
	st := &m.wf[wfIdx(t1)]
	st.mu.Lock()
	t2Err := make(chan error, 1)
	go func() { t2Err <- h2.Acquire(r, X) }()
	waitQueueLen(t, m, r, 1)
	t3Err := make(chan error, 1)
	go func() { t3Err <- h3.Acquire(r, S) }()
	waitQueueLen(t, m, r, 2)
	st.mu.Unlock()

	if err := <-t2Err; !errors.Is(err, ErrDeadlock) {
		t.Fatalf("victim X: err = %v, want ErrDeadlock", err)
	}
	select {
	case err := <-t3Err:
		if err != nil {
			t.Fatalf("compatible S behind the deadlock victim: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("S behind the deadlock victim never granted (regrant missing)")
	}
	if got := m.StatsSnapshot().Deadlocks; got != 1 {
		t.Fatalf("deadlocks = %d, want 1", got)
	}

	// Victim aborts: its release unblocks t1's wait on r2.
	h2.ReleaseAll()
	if err := <-t1Err; err != nil {
		t.Fatal(err)
	}
	h1.ReleaseAll()
	h3.ReleaseAll()
	assertTablesEmpty(t, m)
}

// TestHeatBoundedUnderDistinctNameChurn churns conflicts over far
// more distinct row names than heatCap and asserts the bounded heat
// table stays under its cap — while hot classification of a genuinely
// hot intent-lock name still works afterwards.
func TestHeatBoundedUnderDistinctNameChurn(t *testing.T) {
	m := NewManager(Options{HotThreshold: 4}) // one partition: worst case for the bound
	h := holders(m, 2)
	waitWaits := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for m.StatsSnapshot().Waits < want {
			if time.Now().After(deadline) {
				t.Fatalf("conflict never registered (waits < %d)", want)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := 0; i < 3*heatCap; i++ {
		r := RowName(1, uint64(i))
		if err := h[1].Acquire(r, X); err != nil {
			t.Fatal(err)
		}
		prev := m.StatsSnapshot().Waits
		done := make(chan error, 1)
		go func() { done <- h[2].Acquire(r, S) }()
		waitWaits(prev + 1) // the conflict (and its heat bump) is recorded
		h[1].ReleaseAll()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		h[2].ReleaseAll()
	}
	p := &m.parts[0]
	p.mu.Lock()
	n := len(p.heat)
	p.mu.Unlock()
	if n > heatCap {
		t.Fatalf("heat table grew to %d entries, cap %d", n, heatCap)
	}
	if m.StatsSnapshot().HeatEvictions == 0 {
		t.Fatal("no heat evictions recorded despite churn past the cap")
	}

	// A genuinely hot intent name is bumped on every table pass and
	// must classify hot despite the churned table.
	tbl := TableName(9)
	for i := 0; i < m.opts.HotThreshold; i++ {
		h := m.NewHolder(uint64(100 + i))
		if err := h.Acquire(tbl, IX); err != nil {
			t.Fatal(err)
		}
		h.ReleaseAll()
	}
	if got := m.contentionOf(tbl); got < m.opts.HotThreshold {
		t.Fatalf("hot intent lock heat = %d, want >= %d (SLI would miss it)", got, m.opts.HotThreshold)
	}
	assertTablesEmpty(t, m)
}

// TestHeatDecayHalvesAndDrops drives one decay sweep directly: counts
// halve and entries that reach zero leave the table, so a once-hot
// name cools off instead of occupying its slot forever.
func TestHeatDecayHalvesAndDrops(t *testing.T) {
	m := NewManager(Options{})
	p := &m.parts[0]
	hot, cold, next := RowName(1, 1), RowName(1, 2), RowName(1, 3)
	p.mu.Lock()
	p.heat[hot] = 8
	p.heat[cold] = 1
	p.heatTicks = heatDecayEvery - 1
	m.bumpHeat(p, next) // crosses the interval: sweep runs first
	gotHot := p.heat[hot]
	_, coldAlive := p.heat[cold]
	gotNext := p.heat[next]
	p.mu.Unlock()
	if gotHot != 4 {
		t.Fatalf("hot count after decay = %d, want 4", gotHot)
	}
	if coldAlive {
		t.Fatal("count-1 entry survived a decay sweep")
	}
	if gotNext != 1 {
		t.Fatalf("bumped name after decay = %d, want 1", gotNext)
	}
}

// TestRetiredHeadRecyclesClean pins the recycle protocol: a retired
// head popped for a different name must carry no stale grants, queue,
// or contention, and must enforce conflicts like a fresh head.
func TestRetiredHeadRecyclesClean(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 3)
	a, b := RowName(1, 1), RowName(1, 2)
	if err := h[1].Acquire(a, X); err != nil {
		t.Fatal(err)
	}
	h[1].ReleaseAll()
	if st := m.StatsSnapshot(); st.HeadRetires != 1 {
		t.Fatalf("retires = %d after sole release, want 1", st.HeadRetires)
	}

	if err := h[2].Acquire(b, S); err != nil {
		t.Fatal(err)
	}
	st := m.StatsSnapshot()
	if st.HeadRecycles != 1 {
		t.Fatalf("miss on %s did not pop the retired head (recycles=%d, allocs=%d)",
			b, st.HeadRecycles, st.HeadAllocs)
	}
	p := m.part(b)
	p.mu.Lock()
	lh := p.table[b]
	phantom := len(lh.granted) != 1 || lh.granted[2] == nil
	stale := lh.contention != 0 || len(lh.queue) != 0
	p.mu.Unlock()
	if phantom {
		t.Fatal("recycled head carries phantom grants")
	}
	if stale {
		t.Fatal("recycled head carries stale queue/contention state")
	}

	// The S on the recycled head must block a writer like any other.
	done := make(chan error, 1)
	go func() { done <- h[3].Acquire(b, X) }()
	select {
	case <-done:
		t.Fatal("X granted while S held on a recycled head")
	case <-time.After(20 * time.Millisecond):
	}
	h[2].ReleaseAll()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	h[3].ReleaseAll()
	assertTablesEmpty(t, m)
}
