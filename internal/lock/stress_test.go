package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hydra/internal/rng"
)

// TestManagerConcurrentStress drives every public entry point of the
// manager — holder-based acquisition, SLI agents with inheritance and
// reclaim, escalation, and ReleaseAll — from many goroutines at once.
// Meant for -race: the holders, the striped waits-for graph and the
// per-partition heat maps all see cross-goroutine traffic here. Every
// cycle, including one through an agent's retained grant, must be
// broken by the deadlock detector: no wait may run into the timeout.
func TestManagerConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	m := NewManager(Options{
		Partitions:          64,
		WaitTimeout:         2 * time.Second,
		HotThreshold:        2,
		EscalationThreshold: 6,
	})
	const (
		workers = 8
		iters   = 300
		tables  = 3
	)
	expected := func(err error) bool {
		return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrTimeout)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w)*104729 + 7)
			var agent *Agent
			if w%2 == 1 {
				agent = m.NewAgent()
				defer agent.Close()
			}
			// Half the workers recycle one holder, as engine workers
			// do; the rest take a fresh holder per transaction.
			var h *Holder
			if w%4 < 2 {
				h = m.NewHolder(0)
			}
			for i := 0; i < iters; i++ {
				txn := uint64(w)<<32 | uint64(i+1)
				if w%4 < 2 {
					h.Reset(txn)
				} else {
					h = m.NewHolder(txn)
				}
				acquire := func(name Name, mode Mode) error {
					if agent != nil {
						return agent.AcquireFor(h, name, mode)
					}
					return h.Acquire(name, mode)
				}
				release := func() {
					if agent != nil {
						agent.OnCommitFor(h)
						return
					}
					h.ReleaseAll()
				}
				table := uint32(1 + r.Intn(tables))
				ok := true
				if err := acquire(TableName(table), IX); err != nil {
					if !expected(err) {
						t.Errorf("worker %d iter %d: table IX: %v", w, i, err)
					}
					ok = false
				}
				// Enough row locks to cross the escalation threshold on
				// some iterations; a small shared key range forces
				// conflicts and exercises the deadlock detector.
				n := 1 + r.Intn(10)
				for j := 0; j < n && ok; j++ {
					key := uint64(r.Intn(16))
					mode := S
					if r.Bool(0.3) {
						mode = X
					}
					if err := acquire(RowName(table, key), mode); err != nil {
						if !expected(err) {
							t.Errorf("worker %d iter %d: row: %v", w, i, err)
						}
						ok = false
					}
				}
				release()
			}
		}(w)
	}
	wg.Wait()
	if st := m.StatsSnapshot(); st.Timeouts != 0 {
		t.Errorf("%d waits timed out (deadlocks detected: %d): the detector missed a cycle",
			st.Timeouts, st.Deadlocks)
	}

	// Everything must be released or inherited by compatible agent
	// grants: a fresh transaction can take X on every table.
	h := m.NewHolder(1)
	for table := uint32(1); table <= tables; table++ {
		if err := h.Acquire(TableName(table), X); err != nil {
			t.Fatalf("post-stress X on table %d: %v", table, err)
		}
	}
	h.ReleaseAll()
}

// TestLockHeadRecyclingStress churns the full head lifecycle under
// -race: tiny wait timeouts fire removeWaiter constantly, a small hot
// key set keeps heads flipping between live and retired, and every
// path that retires a head (releaseOne, removeWaiter, transfer's
// missing-grant branch) races against the freelist pops of concurrent
// misses. The retire hand-off publishes heads through a CAS on the
// partition freelist, so any touch of recycled state outside the
// protocol shows up as a race or a hydradebug pool assertion.
func TestLockHeadRecyclingStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	m := NewManager(Options{
		Partitions:  4,
		WaitTimeout: 2 * time.Millisecond,
	})
	const (
		workers = 8
		iters   = 400
		keys    = 8
	)
	expected := func(err error) bool {
		return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrTimeout)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w)*7919 + 3)
			h := m.NewHolder(uint64(w+1) << 32)
			for i := 0; i < iters; i++ {
				h.Reset(uint64(w+1)<<32 | uint64(i+1))
				n := 1 + r.Intn(4)
				for j := 0; j < n; j++ {
					mode := S
					if r.Bool(0.5) {
						mode = X
					}
					if err := h.Acquire(RowName(1, uint64(r.Intn(keys))), mode); err != nil {
						if !expected(err) {
							t.Errorf("worker %d iter %d: %v", w, i, err)
						}
						break
					}
				}
				h.ReleaseAll()
			}
		}(w)
	}
	wg.Wait()

	// Full churn must leave nothing behind: every head either granted
	// away and released, or timed out of the queue — so every
	// partition table must be empty, with the freelist having cycled.
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		n := len(p.table)
		p.mu.Unlock()
		if n != 0 {
			t.Errorf("partition %d retains %d heads after stress", i, n)
		}
	}
	st := m.StatsSnapshot()
	if st.HeadRetires == 0 || st.HeadRecycles == 0 {
		t.Fatalf("freelist never cycled: allocs=%d recycles=%d retires=%d",
			st.HeadAllocs, st.HeadRecycles, st.HeadRetires)
	}

	// Recycled heads must still enforce exclusivity correctly.
	h := m.NewHolder(1)
	for k := uint64(0); k < keys; k++ {
		if err := h.Acquire(RowName(1, k), X); err != nil {
			t.Fatalf("post-stress X on key %d: %v", k, err)
		}
	}
	h.ReleaseAll()
}
