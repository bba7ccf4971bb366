package lock

// Lock escalation: when a transaction accumulates many row locks on
// one table, the manager trades them for a single table-level lock.
// This caps lock-table memory and, more importantly for the paper's
// argument, trades fine-grained concurrency for shorter lock-manager
// critical sections — the same single-thread-vs-scalability knob the
// engine configurations sweep.
//
// Escalation state is per-transaction, so it lives in the Holder
// (protected by the holder's own uncontended mutex) rather than in a
// manager-global map.

// escalationState tracks a transaction's per-table row-lock pressure.
type escalationState struct {
	rowCounts map[uint32]int  // table -> row locks held
	escalated map[uint32]Mode // table -> escalated mode (S or X)
}

func (s *escalationState) clear() {
	// Like the holder's held map, drop instead of clearing once a big
	// transaction has grown the tables (clear walks full capacity).
	if len(s.rowCounts) > holderRetainCap {
		s.rowCounts = make(map[uint32]int)
	} else {
		clear(s.rowCounts)
	}
	if len(s.escalated) > holderRetainCap {
		s.escalated = make(map[uint32]Mode)
	} else {
		clear(s.escalated)
	}
}

// maybeEscalate is consulted on every row-lock request. It returns
// (handled, err): when handled, the row lock is subsumed by an
// escalated table lock and must not be acquired individually.
func (m *Manager) maybeEscalate(h *Holder, name Name, mode Mode) (bool, error) {
	if m.opts.EscalationThreshold <= 0 || name.Level != LevelRow {
		return false, nil
	}
	h.mu.Lock()
	if h.esc.rowCounts == nil {
		h.esc.rowCounts = map[uint32]int{}
		h.esc.escalated = map[uint32]Mode{}
	}
	if escMode, ok := h.esc.escalated[name.Table]; ok {
		// Already escalated. An X request under an S escalation must
		// upgrade the table lock.
		needed := S
		if mode == X {
			needed = X
		}
		h.mu.Unlock()
		if Supremum(escMode, needed) != escMode {
			if err := m.acquireTable(h, TableName(name.Table), needed); err != nil {
				return true, err
			}
			h.mu.Lock()
			h.esc.escalated[name.Table] = Supremum(escMode, needed)
			h.mu.Unlock()
		}
		m.stats.escalatedAcqs.Add(1)
		return true, nil
	}
	h.esc.rowCounts[name.Table]++
	if h.esc.rowCounts[name.Table] < m.opts.EscalationThreshold {
		h.mu.Unlock()
		return false, nil
	}
	h.mu.Unlock()

	// Threshold crossed: acquire the table lock covering the strongest
	// mode this request needs; existing row locks are retained (they
	// are weaker than the table lock and released with ReleaseAll).
	target := S
	if mode == X {
		target = X
	}
	if err := m.acquireTable(h, TableName(name.Table), target); err != nil {
		return true, err
	}
	h.mu.Lock()
	h.esc.escalated[name.Table] = target
	h.mu.Unlock()
	m.stats.escalations.Add(1)
	return true, nil
}

// EscalatedOn reports whether the holder currently has an escalated
// lock on table (test/diagnostic hook).
func (h *Holder) EscalatedOn(table uint32) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.esc.escalated[table]
	return ok
}
