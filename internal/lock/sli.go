package lock

import (
	"sync/atomic"
)

// Agent implements Speculative Lock Inheritance (SLI). In a storage
// manager, each worker thread executes a stream of transactions; SLI
// observes that consecutive transactions acquire the same hot,
// compatible locks (typically intent locks on tables and the
// database) and lets the agent thread keep those locks across
// transaction boundaries instead of releasing and re-acquiring them
// through the contended lock table.
//
// An Agent is not safe for concurrent use: it models one worker
// thread. The underlying Manager remains fully thread-safe, and the
// locks an agent retains are real table grants held by the agent's
// pseudo-transaction, so conflicting requests from other threads
// still queue correctly; the agent checks for such waiters at every
// transaction boundary and releases contested locks (lock reclaim).
type Agent struct {
	m  *Manager
	id uint64 // pseudo-transaction id owning retained grants

	h     *Holder       // lock context of the pseudo-transaction
	cache map[Name]Mode // retained locks: name -> mode held by a.id
	st    *agentState   // shared with the manager's wait path
}

// agentState is the part of an agent the manager reads from other
// goroutines' wait paths.
type agentState struct {
	// reclaim is set by the manager when someone waits on the agent.
	reclaim atomic.Bool
	// current is the id of the transaction the agent's worker is
	// running (the last one to acquire through the agent).
	current atomic.Uint64
}

// agentIDBase separates agent pseudo-transactions from real ones.
const agentIDBase = uint64(1) << 62

var agentSeq atomic.Uint64

// NewAgent registers a new SLI agent with the manager.
func (m *Manager) NewAgent() *Agent {
	a := &Agent{
		m:     m,
		id:    agentIDBase + agentSeq.Add(1),
		cache: make(map[Name]Mode),
		st:    new(agentState),
	}
	a.h = m.NewHolder(a.id)
	m.agents.Store(a.id, a.st)
	return a
}

// AcquireFor obtains name in mode for the transaction owning h,
// satisfying the request from the agent's inherited locks when
// possible. A cache-satisfied acquire is still noted in h's held set
// — the transaction logically holds the lock even though the table
// grant belongs to the agent's pseudo-transaction — so Holder.Held
// and the engine agree on what the transaction may touch. At the
// transaction boundary OnCommitFor sees the name, finds it already
// retained (shouldInherit declines re-inheritance) and releases it
// for h.id, which is a no-op at the table: the agent's grant is
// untouched.
func (a *Agent) AcquireFor(h *Holder, name Name, mode Mode) error {
	if a.st.current.Load() != h.id {
		// First acquire of a new transaction: a boundary. Retained
		// grants are never surrendered mid-transaction — the running
		// transaction may hold them logically (see above).
		a.st.current.Store(h.id)
		a.checkReclaim()
	}
	a.m.stats.acquires.Add(1)
	if held, ok := a.cache[name]; ok {
		if Supremum(held, mode) == held && (mode == IS || mode == IX) {
			// Covered by an inherited grant: no table visit at all.
			a.m.stats.inherited.Add(1)
			h.note(name, mode)
			return nil
		}
	}
	return a.m.acquireTable(h, name, mode)
}

// OnCommitFor performs the transaction-boundary work: it releases the
// locks of the transaction owning h, inheriting the hot intent locks
// into the agent instead of returning them to the table.
func (a *Agent) OnCommitFor(h *Holder) {
	a.checkReclaim()
	a.m.stats.releaseAll.Add(1)
	names, modes := h.take()
	for i, name := range names {
		mode := modes[i]
		if a.shouldInherit(name, mode) && a.m.transfer(h.id, a.id, name) {
			a.cache[name] = mode
			a.h.note(name, mode)
			continue
		}
		a.m.releaseOne(h.id, name)
	}
}

// OnAbortFor releases everything without inheritance (an aborted
// transaction's locks are not speculation-worthy).
func (a *Agent) OnAbortFor(h *Holder) {
	h.ReleaseAll()
	a.checkReclaim()
}

// shouldInherit applies the SLI policy: only intent modes above row
// level, only on locks whose observed contention crosses the
// threshold, and only if not already retained.
func (a *Agent) shouldInherit(name Name, mode Mode) bool {
	if name.Level == LevelRow {
		return false
	}
	if mode != IS && mode != IX {
		return false
	}
	if _, already := a.cache[name]; already {
		return false
	}
	return a.m.contentionOf(name) >= a.m.opts.HotThreshold
}

// checkReclaim releases every retained lock if any other transaction
// was observed waiting on this agent.
func (a *Agent) checkReclaim() {
	if !a.st.reclaim.Swap(false) {
		return
	}
	a.ReleaseInherited()
}

// ReleaseInherited returns all retained locks to the table.
func (a *Agent) ReleaseInherited() {
	if len(a.cache) == 0 {
		return
	}
	a.h.ReleaseAll()
	clear(a.cache)
}

// Close releases retained locks and unregisters the agent.
func (a *Agent) Close() {
	a.ReleaseInherited()
	a.m.agents.Delete(a.id)
}

// InheritedCount reports how many locks the agent currently retains.
func (a *Agent) InheritedCount() int { return len(a.cache) }

// transfer moves txn's grant on name to the agent pseudo-transaction
// without releasing it. It reports success; failure (grant vanished,
// or another transaction is queued on name) leaves the caller to
// release normally. Declining when waiters are queued keeps an agent
// from re-inheriting a grant right after a reclaim: those waiters
// flagged the agent once, at enqueue, and would otherwise wait on a
// retained grant nobody asks to surrender. A failure that finds the
// head already empty reclaims it like releaseOne would, so a stale
// head cannot linger in the table.
func (m *Manager) transfer(txn, agent uint64, name Name) bool {
	p := m.part(name)
	p.mu.Lock()
	lh := p.table[name]
	if lh == nil {
		p.mu.Unlock()
		return false
	}
	g, ok := lh.granted[txn]
	if ok && len(lh.queue) != 0 {
		p.mu.Unlock()
		return false
	}
	if !ok {
		retired := reclaimHeadLocked(p, name, lh)
		p.mu.Unlock()
		if retired != nil {
			m.retireHead(p, retired)
		}
		return false
	}
	delete(lh.granted, txn)
	if ag, ok := lh.granted[agent]; ok {
		ag.mode = Supremum(ag.mode, g.mode)
		ag.count++
	} else {
		lh.granted[agent] = &grant{mode: g.mode, count: 1}
	}
	p.mu.Unlock()
	return true
}
