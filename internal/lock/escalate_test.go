package lock

import (
	"testing"
	"time"
)

func TestEscalationAfterThreshold(t *testing.T) {
	m := NewManager(Options{EscalationThreshold: 5})
	h := holders(m, 2)
	// Acquire row locks up to the threshold.
	for i := uint64(0); i < 4; i++ {
		if err := h[1].Acquire(RowName(3, i), X); err != nil {
			t.Fatal(err)
		}
	}
	if h[1].EscalatedOn(3) {
		t.Fatal("escalated below threshold")
	}
	if err := h[1].Acquire(RowName(3, 4), X); err != nil {
		t.Fatal(err)
	}
	if !h[1].EscalatedOn(3) {
		t.Fatal("threshold crossing did not escalate")
	}
	st := m.StatsSnapshot()
	if st.Escalations != 1 {
		t.Fatalf("escalations = %d", st.Escalations)
	}
	// Subsequent row locks on the table are absorbed, not stored.
	before := m.StatsSnapshot().TableOps
	for i := uint64(100); i < 200; i++ {
		if err := h[1].Acquire(RowName(3, i), X); err != nil {
			t.Fatal(err)
		}
	}
	after := m.StatsSnapshot()
	if after.TableOps != before {
		t.Fatalf("escalated acquisitions still hit the lock table: %d ops", after.TableOps-before)
	}
	if after.EscalatedAcqs != 100 {
		t.Fatalf("escalatedAcqs = %d", after.EscalatedAcqs)
	}
	// The escalated X table lock blocks everyone else (who follows
	// the hierarchical protocol: intent lock on the table first).
	got := make(chan error, 1)
	go func() {
		if err := h[2].Acquire(TableName(3), IX); err != nil {
			got <- err
			return
		}
		got <- h[2].Acquire(RowName(3, 9999), X)
	}()
	select {
	case <-got:
		t.Fatal("row lock granted under another txn's escalated X")
	case <-time.After(20 * time.Millisecond):
	}
	h[1].ReleaseAll()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	h[2].ReleaseAll()
	if h[1].EscalatedOn(3) {
		t.Fatal("escalation survived ReleaseAll")
	}
}

func TestEscalationSharedThenUpgrade(t *testing.T) {
	m := NewManager(Options{EscalationThreshold: 3})
	h := holders(m, 2)
	for i := uint64(0); i < 3; i++ {
		if err := h[1].Acquire(RowName(4, i), S); err != nil {
			t.Fatal(err)
		}
	}
	if !h[1].EscalatedOn(4) {
		t.Fatal("S escalation missing")
	}
	// Another reader can still share the table.
	if err := h[2].Acquire(TableName(4), S); err != nil {
		t.Fatal(err)
	}
	h[2].ReleaseAll()
	// An X row request under the S escalation upgrades the table lock.
	if err := h[1].Acquire(RowName(4, 50), X); err != nil {
		t.Fatal(err)
	}
	if h[1].Held(TableName(4)) != X {
		t.Fatalf("table mode after escalated upgrade = %v", h[1].Held(TableName(4)))
	}
	h[1].ReleaseAll()
}

func TestEscalationDisabledByDefault(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 1)
	for i := uint64(0); i < 100; i++ {
		if err := h[1].Acquire(RowName(5, i), X); err != nil {
			t.Fatal(err)
		}
	}
	if h[1].EscalatedOn(5) {
		t.Fatal("escalation fired while disabled")
	}
	if m.StatsSnapshot().Escalations != 0 {
		t.Fatal("escalation counted while disabled")
	}
	h[1].ReleaseAll()
}

func TestEscalationPerTable(t *testing.T) {
	m := NewManager(Options{EscalationThreshold: 4})
	h := holders(m, 1)
	// Spread row locks over two tables: neither crosses alone.
	for i := uint64(0); i < 3; i++ {
		h[1].Acquire(RowName(10, i), X)
		h[1].Acquire(RowName(11, i), X)
	}
	if h[1].EscalatedOn(10) || h[1].EscalatedOn(11) {
		t.Fatal("escalated despite per-table counts below threshold")
	}
	h[1].Acquire(RowName(10, 99), X)
	if !h[1].EscalatedOn(10) || h[1].EscalatedOn(11) {
		t.Fatal("escalation not table-scoped")
	}
	h[1].ReleaseAll()
}
