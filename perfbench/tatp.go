package main

import (
	"fmt"

	"hydra/internal/buffer"
	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/rng"
	"hydra/internal/wal"
	"hydra/internal/workload"
)

// tatp-dora: the TATP mix through DORA executors on in-memory devices,
// with more data than the buffer pool holds.
const (
	tatpSubscribers = 200000
	tatpExecutors   = 2
	tatpRouteShift  = 4
)

type tatpDORA struct {
	cfg   core.Config
	store *buffer.MemStore
	dev   *wal.MemDevice
	e     *core.Engine
	d     *dora.Engine
	w     *workload.TATP
}

func (t *tatpDORA) setup(string, uint64) error {
	t.cfg = core.Scalable()
	t.store, t.dev = buffer.NewMemStore(), wal.NewMem()
	e, err := core.OpenWith(t.cfg, t.store, t.dev)
	if err != nil {
		return err
	}
	t.e = e
	if t.w, err = workload.SetupTATP(e, tatpSubscribers); err != nil {
		return err
	}
	t.d = dora.New(e, dora.Options{Executors: tatpExecutors, RouteShift: tatpRouteShift})
	return nil
}

func (t *tatpDORA) newClient(i int, seed uint64) (client, error) {
	return &kitClient{
		src: rng.New(seed).Split(uint64(i)),
		x:   &layerExec{inner: workload.DoraExecutor{Engine: t.d}},
		run: t.w.RunOne,
		// RunOne draws the subscriber, then the transaction: the first
		// 80 of 100 are the three read transactions.
		class: func(peek *rng.Source) opClass {
			peek.Intn(tatpSubscribers)
			if peek.Intn(100) < 80 {
				return classRead
			}
			return classWrite
		},
	}, nil
}

func (t *tatpDORA) engines() (*core.Engine, *dora.Engine) { return t.e, t.d }

func (t *tatpDORA) flushPolicy() string {
	return "in-memory page store and WAL device (no fsync), SyncCommit on, DORA executors"
}

func (t *tatpDORA) close() {
	if t.d != nil {
		t.d.Close()
	}
	if t.e != nil {
		t.e.Close()
	}
}

// check closes and reopens the same in-memory stores (recovery runs)
// and runs the kit's invariant check.
func (t *tatpDORA) check() error {
	t.d.Close()
	t.d = nil
	if err := shutdown(t.e); err != nil {
		return err
	}
	e, err := core.OpenWith(t.cfg, t.store, t.dev)
	if err != nil {
		return err
	}
	t.e = e
	if t.w.Subscriber, err = e.Table("tatp_subscriber"); err != nil {
		return err
	}
	if err := t.w.Check(e); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	return nil
}
