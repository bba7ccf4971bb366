// Snapshot-isolation writer transactions: reads ride the lock-free
// snapshot path (snapshot.go), writes buffer into a per-transaction
// write set, and commit validates first-committer-wins against the
// version chains (mvcc.go) before applying the buffered writes under
// the ordinary per-row locks and publish machinery.
//
// Protocol:
//
//  1. Begin pins a snapshot exactly like a read-only snapshot
//     transaction. Reads resolve against it with zero lock-manager
//     traffic, overlaid with the transaction's own buffered writes.
//  2. Writes never touch the heap: each Insert/Update/Delete folds
//     into the write set as the key's net effect relative to the
//     snapshot (insert-then-delete nets out; delete-then-insert nets
//     to an update). Existence errors (ErrExists, ErrNotFound) are
//     decided against the snapshot + write set, so they are stable no
//     matter what concurrent writers commit.
//  3. Commit sorts the write set by (table, key) and takes the usual
//     IX table + X row locks in that global order (SI committers can
//     therefore never deadlock each other; against locked writers a
//     deadlock is possible and retried like any other victim).
//  4. Validation, under those X locks: a chain head on any written
//     key that is pending or stamped after the snapshot means some
//     transaction committed the row since this one began — the
//     second committer aborts with ErrWriteConflict (retryable;
//     nothing was logged, so the abort releases nothing into the
//     chains). The snapshot's own pin guarantees a conflicting node
//     cannot have been GC'd (the watermark never passes the pin).
//  5. Apply: the buffered writes run through the locked write bodies
//     (lockedInsert/lockedUpdate/lockedDelete, the same ones Insert,
//     Update and Delete use on the locked modes), which log, install
//     version nodes, and maintain indexes exactly like a locked
//     writer. The commit record then publishes stamp + floor under
//     publishMu, so read-only snapshots and locked writers
//     interoperate with SI committers unchanged.
package core

import (
	"errors"
	"fmt"
	"sort"

	"hydra/internal/lock"
)

// siWrite kinds: the net effect a buffered key carries.
const (
	siWritePut    byte = iota // row exists at commit with value
	siWriteDelete             // row absent at commit
)

// siWrite is one buffered snapshot-isolation write: the key's net
// effect relative to the transaction's snapshot.
type siWrite struct {
	tbl   *Table
	kind  byte
	base  bool   // key existed at the snapshot (fixed at first touch)
	value []byte // owned copy; nil for deletes
}

// BeginSnapshotRW starts a snapshot-isolation writer transaction:
// reads see a fixed snapshot (like BeginSnapshot) and writes buffer
// locally until Commit, which validates first-committer-wins and
// aborts with ErrWriteConflict if any written key was committed by
// another transaction after this one's snapshot. Requires Config.MVCC.
func (e *Engine) BeginSnapshotRW() (*Txn, error) {
	return e.begin(modeSI, nil)
}

// ExecSI runs fn in a snapshot-isolation writer transaction,
// committing on nil and aborting on error. Write conflicts, expired
// snapshots, and lock victims (deadlock/timeout during the commit
// apply) are retried on a fresh snapshot with the shared capped
// backoff.
func (e *Engine) ExecSI(fn func(tx *Txn) error) error {
	return e.exec(modeSI, nil, fn)
}

// siRead is Read on both pinned modes (and ReadForUpdate on SI): the
// transaction's own buffered write wins, otherwise the pinned snapshot
// answers. A read-only snapshot has an empty write set and goes
// straight to snapshotRead.
func (t *Txn) siRead(tbl *Table, key uint64) ([]byte, error) {
	if t.snapExpired.Load() {
		// The MaxSnapshotAge expirer dropped this transaction's pin; its
		// chains may already be swept, so reads must stop.
		return nil, ErrSnapshotExpired
	}
	if len(t.writeSet) > 0 {
		if w, ok := t.writeSet[verKey{table: tbl.ID, key: key}]; ok {
			if w.kind == siWriteDelete {
				return nil, notFound(tbl, key)
			}
			return append([]byte(nil), w.value...), nil
		}
	}
	return t.snapshotRead(tbl, key)
}

// siStage records w as key's buffered effect, tracking first-touch
// order in siKeys (the scan overlay iterates it; commit sorts it).
func (t *Txn) siStage(k verKey, w siWrite) {
	if t.writeSet == nil {
		t.writeSet = make(map[verKey]siWrite) // kept across pooled reuse
	}
	if _, ok := t.writeSet[k]; !ok {
		t.siKeys = append(t.siKeys, k)
	}
	t.writeSet[k] = w
}

// siBaseExists reports whether key is visible at the snapshot. Used
// only on a key's first touch; afterwards the write set is
// authoritative.
func (t *Txn) siBaseExists(tbl *Table, key uint64) (bool, error) {
	_, err := t.snapshotRead(tbl, key)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	return false, err
}

// siInsert buffers an insert; duplicate keys (against the snapshot
// overlaid with the write set) fail with ErrExists.
func (t *Txn) siInsert(tbl *Table, key uint64, value []byte) error {
	if t.snapExpired.Load() {
		return ErrSnapshotExpired
	}
	k := verKey{table: tbl.ID, key: key}
	if w, ok := t.writeSet[k]; ok {
		if w.kind == siWritePut {
			return fmt.Errorf("%w: table %s key %d", ErrExists, tbl.Name, key)
		}
		w.kind = siWritePut
		w.value = append([]byte(nil), value...)
		t.writeSet[k] = w
		return nil
	}
	exists, err := t.siBaseExists(tbl, key)
	if err != nil {
		return err
	}
	if exists {
		return fmt.Errorf("%w: table %s key %d", ErrExists, tbl.Name, key)
	}
	t.siStage(k, siWrite{tbl: tbl, kind: siWritePut, value: append([]byte(nil), value...)})
	return nil
}

// siUpdate buffers an update; a key absent from the snapshot + write
// set fails with ErrNotFound.
func (t *Txn) siUpdate(tbl *Table, key uint64, value []byte) error {
	if t.snapExpired.Load() {
		return ErrSnapshotExpired
	}
	k := verKey{table: tbl.ID, key: key}
	if w, ok := t.writeSet[k]; ok {
		if w.kind == siWriteDelete {
			return notFound(tbl, key)
		}
		w.value = append([]byte(nil), value...)
		t.writeSet[k] = w
		return nil
	}
	exists, err := t.siBaseExists(tbl, key)
	if err != nil {
		return err
	}
	if !exists {
		return notFound(tbl, key)
	}
	t.siStage(k, siWrite{tbl: tbl, kind: siWritePut, base: true, value: append([]byte(nil), value...)})
	return nil
}

// siDelete buffers a delete; a key absent from the snapshot + write
// set fails with ErrNotFound. Deleting a key this transaction
// inserted nets out: the entry stays for validation but applies
// nothing.
func (t *Txn) siDelete(tbl *Table, key uint64) error {
	if t.snapExpired.Load() {
		return ErrSnapshotExpired
	}
	k := verKey{table: tbl.ID, key: key}
	if w, ok := t.writeSet[k]; ok {
		if w.kind == siWriteDelete {
			return notFound(tbl, key)
		}
		w.kind = siWriteDelete
		w.value = nil
		t.writeSet[k] = w
		return nil
	}
	exists, err := t.siBaseExists(tbl, key)
	if err != nil {
		return err
	}
	if !exists {
		return notFound(tbl, key)
	}
	t.siStage(k, siWrite{tbl: tbl, kind: siWriteDelete, base: true})
	return nil
}

// siScan is Scan on both pinned modes: the snapshot scan merged, in
// key order, with the transaction's buffered writes — puts override or
// extend the snapshot rows, deletes hide them. A read-only snapshot
// has no buffered writes and goes straight to snapshotScan.
func (t *Txn) siScan(tbl *Table, lo, hi uint64, fn func(key uint64, value []byte) bool) error {
	if t.snapExpired.Load() {
		return ErrSnapshotExpired
	}
	if len(t.siKeys) == 0 {
		return t.snapshotScan(tbl, lo, hi, fn)
	}
	type overlay struct {
		key uint64
		del bool
		val []byte
	}
	var ovl []overlay
	for _, k := range t.siKeys {
		if k.table != tbl.ID || k.key < lo || k.key > hi {
			continue
		}
		w := t.writeSet[k]
		ovl = append(ovl, overlay{key: k.key, del: w.kind == siWriteDelete, val: w.value})
	}
	sort.Slice(ovl, func(i, j int) bool { return ovl[i].key < ovl[j].key })
	i := 0
	stopped := false
	err := t.snapshotScan(tbl, lo, hi, func(key uint64, value []byte) bool {
		for i < len(ovl) && ovl[i].key < key {
			o := ovl[i]
			i++
			if !o.del && !fn(o.key, o.val) {
				stopped = true
				return false
			}
		}
		if i < len(ovl) && ovl[i].key == key {
			o := ovl[i]
			i++
			if o.del {
				return true
			}
			if !fn(key, o.val) {
				stopped = true
				return false
			}
			return true
		}
		if !fn(key, value) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	for ; i < len(ovl); i++ {
		if !ovl[i].del && !fn(ovl[i].key, ovl[i].val) {
			return nil
		}
	}
	return nil
}

// commitSI validates and applies a snapshot-isolation writer.
// See the package comment at the top of this file for the protocol.
func (t *Txn) commitSI() error {
	if err := t.checkActive(); err != nil {
		return err
	}
	e := t.e
	// The conflict and expiry exits retire the handle unlogged (locks
	// and pin released, nothing entered the chains) and surface the
	// retryable abort cause. retire cannot fail there: checkActive just
	// passed.
	if t.snapExpired.Load() {
		_ = t.retire(txnAborted, 0, true)
		return ErrSnapshotExpired
	}
	if len(t.writeSet) == 0 {
		// Read-only SI transaction: nothing to validate or log.
		return t.retire(txnCommitted, 0, true)
	}
	keys := t.siKeys
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.table != b.table {
			return a.table < b.table
		}
		return a.key < b.key
	})
	// Lock in global (table, key) order; a lock error leaves the
	// transaction active and the caller's Abort releases everything.
	for _, k := range keys {
		if err := t.acquire(lock.TableName(k.table), lock.IX); err != nil {
			return err
		}
		if err := t.acquire(lock.RowName(k.table, k.key), lock.X); err != nil {
			return err
		}
	}
	// First-committer-wins validation under the row X locks: see
	// verTable.hasConflict for why the chain head check is sufficient
	// and why the pin makes it sound against GC.
	for _, k := range keys {
		if e.mvcc.hasConflict(k.table, k.key, t.snap, &t.clock) {
			e.mvcc.siConflicts.Inc()
			_ = t.retire(txnAborted, 0, true)
			return ErrWriteConflict
		}
	}
	// Apply through the locked write bodies: validation passed under
	// the X locks, so for every written key the heap state equals the
	// snapshot state and the staged existence decisions hold.
	for _, k := range keys {
		w := t.writeSet[k]
		var err error
		switch {
		case w.kind == siWriteDelete && !w.base:
			continue // insert-then-delete nets out
		case w.kind == siWriteDelete:
			err = t.lockedDelete(w.tbl, k.key)
		case w.base:
			err = t.lockedUpdate(w.tbl, k.key, w.value)
		default:
			err = t.lockedInsert(w.tbl, k.key, w.value)
		}
		if err != nil {
			// Partially applied: the transaction is logged and active;
			// the caller's Abort runs the normal undo path.
			return err
		}
	}
	if err := t.commitLogged(); err != nil {
		return err
	}
	e.mvcc.siCommits.Inc()
	return nil
}

// maybeExpireSnapshots samples the MaxSnapshotAge scan from the
// writer publish path (txn finish, outside every latch): one registry
// walk per expireEvery version-installing transactions.
func (e *Engine) maybeExpireSnapshots() {
	if e.cfg.MaxSnapshotAge <= 0 {
		return
	}
	if e.mvcc.expireTick.Add(1)%expireEvery != 0 {
		return
	}
	e.expireStaleSnapshots()
}

// expireStaleSnapshots expires every snapshot pin older than
// Config.MaxSnapshotAge: the pins leave the registry (the watermark
// advances and dead versions sweep), and the owning transactions —
// flagged through the active registry, under activeMu so a recycled
// handle can never be hit — fail their next read or commit with
// ErrSnapshotExpired. Returns how many pins were expired.
func (e *Engine) expireStaleSnapshots() int {
	expired, sweepTo := e.mvcc.expireStale(int64(e.cfg.MaxSnapshotAge))
	if len(expired) == 0 {
		return 0
	}
	e.activeMu.Lock()
	for _, id := range expired {
		if t := e.active[id]; t != nil && t.mode.pinned() {
			t.snapExpired.Store(true)
		}
	}
	e.activeMu.Unlock()
	if sweepTo != 0 {
		e.mvcc.sweep(sweepTo)
	}
	return len(expired)
}
