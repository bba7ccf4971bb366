package lock

import (
	"sync"

	"hydra/internal/obs"
)

// Holder is a transaction's private lock context: the set of locks it
// holds and its escalation state, carried by the transaction itself
// instead of living in a manager-global map. A transaction has
// exclusive use of its own lock set, so holder updates never contend
// with other transactions — the holder mutex below is only ever
// uncontended. It exists because the diagnostic reads (Held,
// EscalatedOn) may run on a goroutine other than the one driving the
// transaction, and an uncontended lock is cheaper than proving every
// such reader is ordered after the owner's writes.
//
// Engine transactions create one holder per worker context and Reset
// it between transactions, so steady-state acquisition performs no
// map allocation and touches no manager-global synchronization.
type Holder struct {
	m  *Manager
	id uint64

	// clock, when set, receives the transaction's lock-wait time:
	// the manager's blocking path already measures the wait for its
	// own histogram, so phase attribution costs zero extra clock
	// reads. Written only between transactions (SetClock), read on
	// the owning transaction's wait path.
	clock *obs.PhaseClock

	mu   sync.Mutex
	held map[Name]Mode
	esc  escalationState
}

// NewHolder returns a lock context for the given transaction id. The
// holder is bound to m for its lifetime; use Reset to recycle it for
// a new transaction.
func (m *Manager) NewHolder(txn uint64) *Holder {
	return &Holder{m: m, id: txn, held: make(map[Name]Mode)}
}

// holderRetainCap bounds how large a held map may have grown and
// still be recycled. Go's clear(map) walks the map's full capacity —
// which never shrinks — so after one huge transaction (a bulk load,
// say) a recycled map would pay that transaction's footprint on every
// later clear. Past the bound we drop the map and start small.
const holderRetainCap = 64

func resetLockMap(m map[Name]Mode) map[Name]Mode {
	if len(m) > holderRetainCap {
		return make(map[Name]Mode)
	}
	clear(m)
	return m
}

// Reset recycles the holder for a new transaction. The caller must
// have released all locks of the previous transaction first.
func (h *Holder) Reset(txn uint64) {
	h.mu.Lock()
	h.id = txn
	h.held = resetLockMap(h.held)
	h.esc.clear()
	h.mu.Unlock()
}

// ID returns the transaction id the holder currently represents.
func (h *Holder) ID() uint64 { return h.id }

// SetClock attaches (or detaches, with nil) the phase clock that
// receives this holder's lock-wait time. Call it between
// transactions, alongside Reset.
func (h *Holder) SetClock(c *obs.PhaseClock) { h.clock = c }

// Acquire obtains name in mode for the holder's transaction, blocking
// while incompatible locks are held. Re-acquisition by the same
// transaction upgrades to the supremum mode. It returns ErrDeadlock
// when the wait would close a cycle (the requester is the victim) and
// ErrTimeout past the configured bound.
func (h *Holder) Acquire(name Name, mode Mode) error {
	m := h.m
	m.stats.acquires.Add(1)
	if handled, err := m.maybeEscalate(h, name, mode); handled {
		return err
	}
	return m.acquireTable(h, name, mode)
}

// Release drops the holder's lock on name entirely (all re-entrant
// counts).
func (h *Holder) Release(name Name) {
	h.m.releaseOne(h.id, name)
	h.mu.Lock()
	delete(h.held, name)
	h.mu.Unlock()
}

// ReleaseAll drops every lock the holder has (2PL release phase) and
// returns the names released, which SLI agents use to decide what to
// inherit.
func (h *Holder) ReleaseAll() []Name {
	h.m.stats.releaseAll.Add(1)
	names, _ := h.take()
	for _, name := range names {
		h.m.releaseOne(h.id, name)
	}
	return names
}

// Held returns the mode the holder has on name (None if not held).
func (h *Holder) Held(name Name) Mode {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held[name]
}

// note records a granted (or upgraded) lock.
func (h *Holder) note(name Name, mode Mode) {
	h.mu.Lock()
	h.held[name] = mode
	h.mu.Unlock()
}

// take detaches and returns the held set, clearing the holder's
// bookkeeping (including escalation state) while keeping its maps
// allocated for reuse. The nil, nil return for an empty set preserves
// ReleaseAll's "nothing held" contract.
func (h *Holder) take() ([]Name, []Mode) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.esc.clear()
	if len(h.held) == 0 {
		return nil, nil
	}
	names := make([]Name, 0, len(h.held))
	modes := make([]Mode, 0, len(h.held))
	for n, md := range h.held {
		names = append(names, n)
		modes = append(modes, md)
	}
	h.held = resetLockMap(h.held)
	return names, modes
}
