package lock

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// holders returns lock contexts for transactions 0..n, indexed by
// transaction id.
func holders(m *Manager, n int) []*Holder {
	hs := make([]*Holder, n+1)
	for i := range hs {
		hs[i] = m.NewHolder(uint64(i))
	}
	return hs
}

func TestCompatibilityMatrix(t *testing.T) {
	// Spot-check the canonical entries.
	cases := []struct {
		held, req Mode
		want      bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, SIX, true}, {IS, X, false},
		{IX, IX, true}, {IX, S, false}, {IX, SIX, false}, {IX, X, false},
		{S, S, true}, {S, IX, false}, {S, X, false},
		{SIX, IS, true}, {SIX, IX, false}, {SIX, S, false},
		{X, IS, false}, {X, X, false},
	}
	for _, c := range cases {
		if got := Compatible(c.held, c.req); got != c.want {
			t.Errorf("Compatible(%v, %v) = %v, want %v", c.held, c.req, got, c.want)
		}
	}
	// Symmetry property of the matrix.
	modes := []Mode{None, IS, IX, S, SIX, X}
	for _, a := range modes {
		for _, b := range modes {
			if Compatible(a, b) != Compatible(b, a) {
				t.Errorf("compatibility not symmetric at (%v, %v)", a, b)
			}
		}
	}
}

func TestSupremumProperties(t *testing.T) {
	modes := []Mode{None, IS, IX, S, SIX, X}
	for _, a := range modes {
		for _, b := range modes {
			s := Supremum(a, b)
			if Supremum(s, a) != s || Supremum(s, b) != s {
				t.Errorf("Supremum(%v,%v)=%v does not cover its arguments", a, b, s)
			}
			if s != Supremum(b, a) {
				t.Errorf("Supremum not commutative at (%v,%v)", a, b)
			}
			// Anything incompatible with a or b is incompatible with s.
			for _, c := range modes {
				if !Compatible(c, a) && Compatible(c, s) {
					t.Errorf("sup(%v,%v)=%v weaker than %v vs %v", a, b, s, a, c)
				}
			}
		}
	}
	if Supremum(S, IX) != SIX {
		t.Error("Supremum(S, IX) should be SIX")
	}
}

func TestBasicAcquireRelease(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 1)
	r := RowName(1, 100)
	if err := h[1].Acquire(r, X); err != nil {
		t.Fatal(err)
	}
	if h[1].Held(r) != X {
		t.Fatalf("Held = %v, want X", h[1].Held(r))
	}
	h[1].Release(r)
	if h[1].Held(r) != None {
		t.Fatal("lock still held after release")
	}
}

func TestSharedConcurrencyExclusiveBlocks(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 3)
	r := RowName(1, 1)
	if err := h[1].Acquire(r, S); err != nil {
		t.Fatal(err)
	}
	if err := h[2].Acquire(r, S); err != nil {
		t.Fatal(err) // S+S compatible
	}
	acquired := make(chan error, 1)
	go func() { acquired <- h[3].Acquire(r, X) }()
	select {
	case err := <-acquired:
		t.Fatalf("X granted while S held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	h[1].Release(r)
	h[2].Release(r)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("X never granted")
	}
}

func TestReentrantAcquire(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 1)
	r := RowName(1, 1)
	for i := 0; i < 3; i++ {
		if err := h[1].Acquire(r, S); err != nil {
			t.Fatal(err)
		}
	}
	// A single Release drops the lock entirely (counts are folded).
	h[1].Release(r)
	if h[1].Held(r) != None {
		t.Fatal("re-entrant lock not fully released")
	}
}

func TestUpgradeSToX(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 2)
	r := RowName(1, 1)
	if err := h[1].Acquire(r, S); err != nil {
		t.Fatal(err)
	}
	if err := h[1].Acquire(r, X); err != nil {
		t.Fatal(err) // sole holder upgrades immediately
	}
	if h[1].Held(r) != X {
		t.Fatalf("Held = %v after upgrade, want X", h[1].Held(r))
	}
	// Another reader must now block.
	got := make(chan error, 1)
	go func() { got <- h[2].Acquire(r, S) }()
	select {
	case <-got:
		t.Fatal("S granted during X")
	case <-time.After(20 * time.Millisecond):
	}
	h[1].Release(r)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

func TestBlockedUpgradeWaitsForReaders(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 2)
	r := RowName(1, 1)
	h[1].Acquire(r, S)
	h[2].Acquire(r, S)
	done := make(chan error, 1)
	go func() { done <- h[1].Acquire(r, X) }()
	select {
	case <-done:
		t.Fatal("upgrade granted with another reader present")
	case <-time.After(20 * time.Millisecond):
	}
	h[2].Release(r)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if h[1].Held(r) != X {
		t.Fatalf("mode after blocked upgrade = %v", h[1].Held(r))
	}
	h[1].ReleaseAll()
}

func TestUpgradePriorityOverQueuedWriters(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 3)
	r := RowName(1, 1)
	h[1].Acquire(r, S)
	h[2].Acquire(r, S)
	// Txn 3 queues for X behind the readers.
	got3 := make(chan error, 1)
	go func() { got3 <- h[3].Acquire(r, X) }()
	time.Sleep(10 * time.Millisecond)
	// Txn 1 upgrades; it must be served before txn 3.
	got1 := make(chan error, 1)
	go func() { got1 <- h[1].Acquire(r, X) }()
	time.Sleep(10 * time.Millisecond)
	h[2].Release(r)
	select {
	case err := <-got1:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("upgrade starved")
	}
	select {
	case <-got3:
		t.Fatal("queued writer served before upgrade completed")
	default:
	}
	h[1].ReleaseAll()
	if err := <-got3; err != nil {
		t.Fatal(err)
	}
	h[3].ReleaseAll()
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 2)
	a, b := RowName(1, 1), RowName(1, 2)
	h[1].Acquire(a, X)
	h[2].Acquire(b, X)
	errs := make(chan error, 2)
	go func() {
		err := h[1].Acquire(b, X) // 1 waits on 2
		if err == nil {
			defer h[1].ReleaseAll()
		}
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	go func() {
		err := h[2].Acquire(a, X) // closes the cycle
		if err == nil {
			defer h[2].ReleaseAll()
		}
		errs <- err
	}()
	var deadlocked int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				deadlocked++
				// Victim aborts: release everything it holds.
				if deadlocked == 1 {
					go func() {
						time.Sleep(5 * time.Millisecond)
						h[2].ReleaseAll()
						h[1].ReleaseAll()
					}()
				}
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock never resolved")
		}
	}
	if deadlocked == 0 {
		t.Fatal("no deadlock detected in a real cycle")
	}
	if got := m.StatsSnapshot().Deadlocks; got == 0 {
		t.Fatal("deadlock counter not bumped")
	}
}

func TestWaitTimeout(t *testing.T) {
	m := NewManager(Options{WaitTimeout: 30 * time.Millisecond})
	h := holders(m, 3)
	r := RowName(1, 1)
	h[1].Acquire(r, X)
	start := time.Now()
	err := h[2].Acquire(r, X)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("timeout fired early")
	}
	h[1].ReleaseAll()
	// The lock must still be grantable after a timed-out waiter.
	if err := h[3].Acquire(r, X); err != nil {
		t.Fatal(err)
	}
	h[3].ReleaseAll()
}

func TestReleaseAllReturnsNames(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 7)
	h[7].Acquire(TableName(1), IX)
	h[7].Acquire(RowName(1, 5), X)
	h[7].Acquire(RowName(1, 6), X)
	names := h[7].ReleaseAll()
	if len(names) != 3 {
		t.Fatalf("ReleaseAll returned %d names, want 3", len(names))
	}
	if h[7].Held(RowName(1, 5)) != None {
		t.Fatal("row lock survived ReleaseAll")
	}
	if h[7].ReleaseAll() != nil {
		t.Fatal("second ReleaseAll returned names")
	}
}

func TestFIFOFairnessNoWriterStarvation(t *testing.T) {
	m := NewManager(Options{})
	h := holders(m, 3)
	r := RowName(1, 1)
	h[1].Acquire(r, S)
	// Writer queues.
	wGot := make(chan error, 1)
	go func() { wGot <- h[2].Acquire(r, X) }()
	time.Sleep(10 * time.Millisecond)
	// A later reader must NOT jump the queued writer.
	rGot := make(chan error, 1)
	go func() { rGot <- h[3].Acquire(r, S) }()
	select {
	case <-rGot:
		t.Fatal("later reader overtook queued writer")
	case <-time.After(20 * time.Millisecond):
	}
	h[1].Release(r)
	if err := <-wGot; err != nil {
		t.Fatal(err)
	}
	h[2].ReleaseAll()
	if err := <-rGot; err != nil {
		t.Fatal(err)
	}
	h[3].ReleaseAll()
}

func TestHierarchicalScenario(t *testing.T) {
	m := NewManager(Options{Partitions: 4})
	h := holders(m, 3)
	// Txn 1: IX on table, X on row 1. Txn 2: IX on table, X on row 2.
	// These must all proceed without blocking.
	done := make(chan error, 2)
	for i := uint64(1); i <= 2; i++ {
		go func(txn uint64) {
			if err := h[txn].Acquire(TableName(9), IX); err != nil {
				done <- err
				return
			}
			if err := h[txn].Acquire(RowName(9, txn), X); err != nil {
				done <- err
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Txn 3 wants S on the whole table: must wait for both IX holders.
	sGot := make(chan error, 1)
	go func() { sGot <- h[3].Acquire(TableName(9), S) }()
	select {
	case <-sGot:
		t.Fatal("table S granted while IX held")
	case <-time.After(20 * time.Millisecond):
	}
	h[1].ReleaseAll()
	h[2].ReleaseAll()
	if err := <-sGot; err != nil {
		t.Fatal(err)
	}
	h[3].ReleaseAll()
}

func TestConcurrentDisjointThroughput(t *testing.T) {
	for _, parts := range []int{1, 16} {
		parts := parts
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			m := NewManager(Options{Partitions: parts})
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := uint64(w * 1000)
					h := m.NewHolder(base)
					for i := 0; i < 500; i++ {
						h.Reset(base + uint64(i))
						key := base + uint64(i%100)
						if err := h.Acquire(RowName(1, key), X); err != nil {
							t.Errorf("acquire: %v", err)
							return
						}
						h.ReleaseAll()
					}
				}(w)
			}
			wg.Wait()
			st := m.StatsSnapshot()
			if st.Acquires != 4000 {
				t.Fatalf("acquires = %d, want 4000", st.Acquires)
			}
		})
	}
}

func TestModeAndLevelStrings(t *testing.T) {
	if X.String() != "X" || IS.String() != "IS" || Mode(9).String() != "mode(9)" {
		t.Fatal("Mode.String mismatch")
	}
	if LevelRow.String() != "row" || Level(9).String() != "level(9)" {
		t.Fatal("Level.String mismatch")
	}
	if RowName(1, 2).String() != "row(1,2)" || TableName(3).String() != "table(3)" || DatabaseName().String() != "db" {
		t.Fatal("Name.String mismatch")
	}
}

func BenchmarkAcquireReleaseDisjoint(b *testing.B) {
	for _, parts := range []int{1, 16} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			m := NewManager(Options{Partitions: parts})
			var id uint64
			var mu sync.Mutex
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				id++
				me := id
				mu.Unlock()
				h := m.NewHolder(me * 1_000_000)
				i := uint64(0)
				for pb.Next() {
					h.Reset(me*1_000_000 + i)
					h.Acquire(RowName(1, me*100000+i%512), X)
					h.ReleaseAll()
					i++
				}
			})
		})
	}
}
