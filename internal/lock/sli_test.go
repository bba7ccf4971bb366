package lock

import (
	"errors"
	"testing"
	"time"
)

// heatUp drives enough conflict on a name to cross the hot threshold.
func heatUp(t *testing.T, m *Manager, name Name) {
	t.Helper()
	for i := 0; i < 10; i++ {
		ha, hb := m.NewHolder(uint64(9000+i*2)), m.NewHolder(uint64(9001+i*2))
		if err := ha.Acquire(name, S); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- hb.Acquire(name, X) }() // conflicts: contention++
		time.Sleep(2 * time.Millisecond)
		ha.ReleaseAll()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		hb.ReleaseAll()
	}
}

func TestSLIInheritsHotIntentLocks(t *testing.T) {
	m := NewManager(Options{HotThreshold: 2})
	h100, h200 := m.NewHolder(100), m.NewHolder(200)
	tbl := TableName(5)
	heatUp(t, m, tbl)

	a := m.NewAgent()
	defer a.Close()

	// First transaction acquires through the table and commits; the
	// hot IX lock should be inherited by the agent.
	if err := a.AcquireFor(h100, tbl, IX); err != nil {
		t.Fatal(err)
	}
	if err := a.AcquireFor(h100, RowName(5, 1), X); err != nil {
		t.Fatal(err)
	}
	a.OnCommitFor(h100)
	if a.InheritedCount() != 1 {
		t.Fatalf("inherited %d locks, want 1 (the hot table IX)", a.InheritedCount())
	}
	// Row lock must have been fully released, not inherited.
	if err := h200.Acquire(RowName(5, 1), X); err != nil {
		t.Fatal(err)
	}
	h200.ReleaseAll()

	// Subsequent transactions on the same agent skip the table.
	before := m.StatsSnapshot()
	for txn := uint64(101); txn <= 110; txn++ {
		h100.Reset(txn)
		if err := a.AcquireFor(h100, tbl, IX); err != nil {
			t.Fatal(err)
		}
		a.OnCommitFor(h100)
	}
	after := m.StatsSnapshot()
	if hits := after.Inherited - before.Inherited; hits != 10 {
		t.Fatalf("inherited hits = %d, want 10", hits)
	}
	if tableOps := after.TableOps - before.TableOps; tableOps != 0 {
		t.Fatalf("table ops = %d during inherited acquisitions, want 0", tableOps)
	}
}

func TestSLIIntentLocksStayCompatibleAcrossAgents(t *testing.T) {
	m := NewManager(Options{HotThreshold: 1})
	h300, h301 := m.NewHolder(300), m.NewHolder(301)
	tbl := TableName(6)
	heatUp(t, m, tbl)

	a1, a2 := m.NewAgent(), m.NewAgent()
	defer a1.Close()
	defer a2.Close()

	if err := a1.AcquireFor(h300, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a1.OnCommitFor(h300)
	if err := a2.AcquireFor(h301, tbl, IX); err != nil {
		t.Fatal(err) // IX + IX compatible even with a1's retained lock
	}
	a2.OnCommitFor(h301)
	if a1.InheritedCount() == 0 || a2.InheritedCount() == 0 {
		t.Fatal("both agents should retain the hot IX")
	}
}

func TestSLIReclaimOnConflict(t *testing.T) {
	m := NewManager(Options{HotThreshold: 1})
	h400, h401, h500 := m.NewHolder(400), m.NewHolder(401), m.NewHolder(500)
	tbl := TableName(7)
	heatUp(t, m, tbl)

	a := m.NewAgent()
	defer a.Close()
	if err := a.AcquireFor(h400, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a.OnCommitFor(h400)
	if a.InheritedCount() != 1 {
		t.Fatal("setup: lock not inherited")
	}

	// Another transaction wants table X: blocked by the agent's
	// retained IX.
	got := make(chan error, 1)
	go func() { got <- h500.Acquire(tbl, X) }()
	select {
	case <-got:
		t.Fatal("X granted while agent retained IX")
	case <-time.After(20 * time.Millisecond):
	}

	// The agent's next boundary must surrender the retained lock.
	if err := a.AcquireFor(h401, RowName(7, 1), X); err != nil {
		t.Fatal(err)
	}
	a.OnCommitFor(h401)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("agent never surrendered retained lock")
	}
	if a.InheritedCount() != 0 {
		t.Fatal("cache not cleared after reclaim")
	}
	h500.ReleaseAll()
}

func TestSLIDoesNotInheritRowOrExclusive(t *testing.T) {
	m := NewManager(Options{HotThreshold: 1})
	h600 := m.NewHolder(600)
	row := RowName(8, 1)
	heatUp(t, m, row)
	tbl := TableName(8)
	heatUp(t, m, tbl)

	a := m.NewAgent()
	defer a.Close()
	if err := a.AcquireFor(h600, row, X); err != nil {
		t.Fatal(err)
	}
	if err := a.AcquireFor(h600, tbl, S); err != nil { // S is not an intent mode
		t.Fatal(err)
	}
	a.OnCommitFor(h600)
	if a.InheritedCount() != 0 {
		t.Fatalf("agent inherited %d non-intent locks", a.InheritedCount())
	}
}

func TestSLIAbortReleasesEverything(t *testing.T) {
	m := NewManager(Options{HotThreshold: 1})
	h700, h701 := m.NewHolder(700), m.NewHolder(701)
	tbl := TableName(10)
	heatUp(t, m, tbl)
	a := m.NewAgent()
	defer a.Close()
	if err := a.AcquireFor(h700, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a.OnAbortFor(h700)
	if a.InheritedCount() != 0 {
		t.Fatal("abort inherited locks")
	}
	// Table must be immediately lockable in X.
	if err := h701.Acquire(tbl, X); err != nil {
		t.Fatal(err)
	}
	h701.ReleaseAll()
}

// TestSLIInheritedHitNotesHolder pins the bookkeeping contract of a
// cache-satisfied AcquireFor: the transaction logically holds the
// lock (Holder.Held reports it) even though the table grant belongs
// to the agent, and the commit boundary neither drops the agent's
// retained grant nor leaves the name in the holder's set.
func TestSLIInheritedHitNotesHolder(t *testing.T) {
	m := NewManager(Options{HotThreshold: 2})
	h950 := m.NewHolder(950)
	tbl := TableName(11)
	heatUp(t, m, tbl)

	a := m.NewAgent()
	defer a.Close()

	h := m.NewHolder(900)
	if err := a.AcquireFor(h, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a.OnCommitFor(h)
	if a.InheritedCount() != 1 {
		t.Fatal("setup: hot IX not inherited")
	}

	// Second transaction on the same holder: the acquire is satisfied
	// from the agent cache, never visiting the table.
	h.Reset(901)
	before := m.StatsSnapshot()
	if err := a.AcquireFor(h, tbl, IX); err != nil {
		t.Fatal(err)
	}
	after := m.StatsSnapshot()
	if after.Inherited != before.Inherited+1 {
		t.Fatalf("acquire was not cache-satisfied (inherited %d -> %d)",
			before.Inherited, after.Inherited)
	}
	if got := h.Held(tbl); got != IX {
		t.Fatalf("Holder.Held after inherited hit = %v, want IX", got)
	}

	// The boundary releases h's logical hold; the agent's real table
	// grant and cache entry must survive it.
	a.OnCommitFor(h)
	if a.InheritedCount() != 1 {
		t.Fatal("commit of an inherited hit dropped the agent's retained lock")
	}
	if got := h.Held(tbl); got != None {
		t.Fatalf("Holder.Held after commit = %v, want None", got)
	}

	// The retained grant is real: it still blocks a table X until the
	// agent lets go.
	got := make(chan error, 1)
	go func() { got <- h950.Acquire(tbl, X) }()
	select {
	case <-got:
		t.Fatal("X granted past the agent's retained IX")
	case <-time.After(20 * time.Millisecond):
	}
	a.ReleaseInherited()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	h950.ReleaseAll()
}

// TestSLIDeadlockThroughAgent pins the waits-for edge from an agent
// to the transaction its worker runs. The agent retains the hot table
// IX; its current transaction B waits on a row held by A; A then
// escalates to a table X, which the agent's retained IX blocks. The
// agent surrenders only at B's boundary, which never comes while B
// waits on A: a cycle the detector must break with ErrDeadlock rather
// than leave to the wait timeout.
func TestSLIDeadlockThroughAgent(t *testing.T) {
	m := NewManager(Options{HotThreshold: 1, EscalationThreshold: 2, WaitTimeout: 5 * time.Second})
	tbl := TableName(12)
	heatUp(t, m, tbl)
	a := m.NewAgent()
	defer a.Close()

	hb := m.NewHolder(1000)
	if err := a.AcquireFor(hb, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a.OnCommitFor(hb)
	if a.InheritedCount() != 1 {
		t.Fatal("setup: hot IX not inherited")
	}
	hb.Reset(1001)
	if err := a.AcquireFor(hb, tbl, IX); err != nil { // served from the agent's grant
		t.Fatal(err)
	}

	ha := m.NewHolder(2000)
	if err := ha.Acquire(tbl, IX); err != nil {
		t.Fatal(err)
	}
	if err := ha.Acquire(RowName(12, 1), X); err != nil {
		t.Fatal(err)
	}
	bErr := make(chan error, 1)
	go func() { bErr <- a.AcquireFor(hb, RowName(12, 1), X) }()
	waitQueueLen(t, m, RowName(12, 1), 1)

	// The second row lock crosses the threshold: A upgrades its table
	// IX to X and waits on the agent.
	start := time.Now()
	err := ha.Acquire(RowName(12, 2), X)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("escalating txn: err = %v after %v, want ErrDeadlock", err, time.Since(start))
	}
	ha.ReleaseAll()
	if err := <-bErr; err != nil {
		t.Fatalf("agent's transaction after the victim aborted: %v", err)
	}
	a.OnCommitFor(hb)
	if st := m.StatsSnapshot(); st.Timeouts != 0 || st.Deadlocks != 1 {
		t.Fatalf("timeouts=%d deadlocks=%d, want 0 and 1", st.Timeouts, st.Deadlocks)
	}
}

// TestSLIReclaimWaitsForBoundary pins that reclaim happens only at a
// transaction boundary: a transaction served from the agent's
// retained IX logically holds it, so a conflicting table X queued
// mid-transaction must wait until that transaction commits.
func TestSLIReclaimWaitsForBoundary(t *testing.T) {
	m := NewManager(Options{HotThreshold: 1})
	tbl := TableName(13)
	heatUp(t, m, tbl)
	a := m.NewAgent()
	defer a.Close()
	hb, hx := m.NewHolder(1100), m.NewHolder(1200)
	if err := a.AcquireFor(hb, tbl, IX); err != nil {
		t.Fatal(err)
	}
	a.OnCommitFor(hb)
	hb.Reset(1101)
	if err := a.AcquireFor(hb, tbl, IX); err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() { got <- hx.Acquire(tbl, X) }()
	waitQueueLen(t, m, tbl, 1)
	if err := a.AcquireFor(hb, RowName(13, 1), X); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("table X granted while the agent's transaction still held IX")
	case <-time.After(20 * time.Millisecond):
	}
	a.OnCommitFor(hb)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	hx.ReleaseAll()
}
