// The transaction retry loop: the one loop behind Exec, ExecWithAgent,
// ExecSI and ExecSnapshot, which errors are worth re-running a
// transaction for, and how long to back off between attempts so
// victims don't re-collide immediately.
package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"hydra/internal/lock"
)

// maxTxnRetries bounds how many times exec re-runs a retryable victim
// before surfacing the error (so 1 + maxTxnRetries attempts).
const maxTxnRetries = 10

// Backoff window: attempt 0 may retry immediately (full jitter can
// draw zero — the fast path for a transient collision), the window
// doubles per attempt, and the cap keeps the worst case bounded.
const (
	retryBase = 10 * time.Microsecond
	retryCap  = 5 * time.Millisecond
)

// backoffDelay returns the randomized sleep before retry attempt
// (0-based): full jitter over a capped exponential window,
// uniform in [0, min(retryBase<<attempt, retryCap)). Jitter — not
// just growth — is what de-synchronizes a convoy of victims: equal
// deterministic delays would re-collide the same transactions on
// every round.
func backoffDelay(attempt int) time.Duration {
	window := retryBase << uint(attempt)
	if window <= 0 || window > retryCap {
		window = retryCap
	}
	return time.Duration(rand.Int64N(int64(window)))
}

// retrySleep sleeps the backoff for a retry attempt. It is a variable
// so tests can count attempts and strip the real delay.
var retrySleep = func(attempt int) { time.Sleep(backoffDelay(attempt)) }

// retryableTxnErr reports whether err names a transient victim worth
// re-running: lock victims (deadlock, timeout) on the locked modes and
// an SI commit's apply, write-conflict aborts on SI, and expired
// snapshots on both pinned modes.
func retryableTxnErr(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) ||
		errors.Is(err, lock.ErrTimeout) ||
		errors.Is(err, ErrWriteConflict) ||
		errors.Is(err, ErrSnapshotExpired)
}

// exec runs fn in a transaction of the given mode (with lock agent a on
// the locked mode), committing on nil and aborting on error, and
// re-runs retryable victims on a fresh transaction — a fresh snapshot,
// for the pinned modes — after backing off.
func (e *Engine) exec(mode txnMode, a *lock.Agent, fn func(*Txn) error) error {
	for attempt := 0; ; attempt++ {
		t, err := e.begin(mode, a)
		if err != nil {
			return err
		}
		if err = fn(t); err == nil {
			if err = t.Commit(); err == nil {
				return nil
			}
			// Commit's conflict and expiry exits retire the handle, and
			// the pool may already have handed it to another
			// transaction: it must not be read again. Every other
			// commit error leaves it active.
			if errors.Is(err, ErrWriteConflict) || errors.Is(err, ErrSnapshotExpired) {
				t = nil
			}
		}
		if t != nil && t.state == txnActive {
			if aerr := t.Abort(); aerr != nil {
				return fmt.Errorf("core: abort after %v: %w", err, aerr)
			}
		}
		if !retryableTxnErr(err) || attempt >= maxTxnRetries {
			return err
		}
		retrySleep(attempt)
	}
}
