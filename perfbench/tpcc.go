package main

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/rng"
	"hydra/internal/workload"
)

// tpcc-2pl: the TPC-C mix of internal/workload through the lock
// manager on a durable engine.
const (
	tpccWarehouses = 2
	tpccDistricts  = 10
	tpccCustomers  = 300
	tpccItems      = 10000
)

type tpcc2PL struct {
	cfg core.Config
	e   *core.Engine
	w   *workload.TPCC
}

func (t *tpcc2PL) setup(dir string, _ uint64) error {
	t.cfg = core.Scalable()
	t.cfg.Dir = dir
	t.cfg.SyncCommit = false // see README.md: the host's fsync latency drifts
	e, err := core.Open(t.cfg)
	if err != nil {
		return err
	}
	t.e = e
	t.w, err = workload.SetupTPCC(e, tpccWarehouses, tpccDistricts, tpccCustomers, tpccItems)
	return err
}

func (t *tpcc2PL) newClient(i int, seed uint64) (client, error) {
	return &kitClient{
		src: rng.New(seed).Split(uint64(i)),
		x:   &layerExec{inner: workload.LockExecutor{Engine: t.e}},
		run: t.w.RunOne,
		// RunOne's first draw picks the transaction: NewOrder <45,
		// Payment <88, OrderStatus <92, Delivery <96, StockLevel.
		class: func(peek *rng.Source) opClass {
			switch roll := peek.Intn(100); {
			case roll < 88:
				return classWrite
			case roll < 92:
				return classRead
			case roll < 96:
				return classWrite
			default:
				return classRead
			}
		},
	}, nil
}

func (t *tpcc2PL) engines() (*core.Engine, *dora.Engine) { return t.e, nil }

func (t *tpcc2PL) flushPolicy() string {
	return "file WAL and page file, SyncCommit off (commits do not wait for fsync), 2PL lock manager, MVCC off"
}

func (t *tpcc2PL) close() {
	if t.e != nil {
		t.e.Close()
	}
}

// check closes and reopens the directory (recovery runs) and runs
// the kit's invariant check on the recovered engine.
func (t *tpcc2PL) check() error {
	if err := shutdown(t.e); err != nil {
		return err
	}
	e, err := core.Open(t.cfg)
	if err != nil {
		return err
	}
	t.e = e
	for _, b := range []struct {
		name string
		dst  **core.Table
	}{
		{"tpcc_warehouse", &t.w.Warehouse},
		{"tpcc_district", &t.w.District},
		{"tpcc_customer", &t.w.Customer},
		{"tpcc_stock", &t.w.Stock},
		{"tpcc_order", &t.w.Order},
		{"tpcc_orderline", &t.w.OrderLine},
		{"tpcc_history", &t.w.History},
		{"tpcc_neworder", &t.w.NewOrderQ},
	} {
		if *b.dst, err = e.Table(b.name); err != nil {
			return err
		}
	}
	if err := t.w.Check(e); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	return nil
}

// kitClient drives a workload kit's RunOne through a timed executor.
// class reads the op's class from a copy of the client's source, so
// the kit draws the same transaction from the original.
type kitClient struct {
	src   *rng.Source
	x     *layerExec
	run   func(*rng.Source, workload.Executor) error
	class func(peek *rng.Source) opClass
}

func (c *kitClient) op(tr *opTrace) (opClass, error) {
	peek := *c.src
	cls := c.class(&peek)
	c.x.tr = tr
	return cls, c.run(c.src, c.x)
}

// layerExec is a workload.Executor that, on traced ops, records the
// call into the wrapped executor and each body attempt as spans.
type layerExec struct {
	inner workload.Executor
	tr    *opTrace
}

func (x *layerExec) Run(tbl *core.Table, key uint64, fn func(tx *core.Txn) error) error {
	if x.tr == nil {
		return x.inner.Run(tbl, key, fn)
	}
	return x.tr.call(callExecutor, func() error {
		return x.inner.Run(tbl, key, x.tr.body(fn))
	})
}
