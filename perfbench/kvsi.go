package main

import (
	"errors"
	"fmt"
	"sync/atomic"

	"hydra/internal/buffer"
	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/rng"
	"hydra/internal/wal"
	"hydra/internal/workload"
)

// kv-si-large: snapshot point reads and range scans plus SI
// read-modify-write increments over more data than the buffer pool
// holds, on in-memory devices with MVCC on.
const (
	siKeys      = 300000
	siValueSize = 100
	siScanRows  = 100
	// A small hot set overlays the uniform key draw so SI writers
	// collide now and then and snapshot reads meet version chains.
	siHotKeys = 8
	siHotFrac = 0.25
)

var errWrongRead = errors.New("kv-si-large: wrong read result")

type kvSILarge struct {
	cfg   core.Config
	store *buffer.MemStore
	dev   *wal.MemDevice
	e     *core.Engine
	m     *workload.Micro
	// acked counts SI increments whose commit returned nil; the
	// counters in the table must sum to it.
	acked atomic.Uint64
}

func (k *kvSILarge) setup(string, uint64) error {
	k.cfg = core.Scalable()
	k.cfg.MVCC = true
	k.store, k.dev = buffer.NewMemStore(), wal.NewMem()
	e, err := core.OpenWith(k.cfg, k.store, k.dev)
	if err != nil {
		return err
	}
	k.e = e
	if k.m, err = workload.SetupMicro(e, siKeys, 0, 0, siValueSize); err != nil {
		return err
	}
	k.m.HotKeys, k.m.HotFrac = siHotKeys, siHotFrac
	return nil
}

func (k *kvSILarge) newClient(i int, seed uint64) (client, error) {
	return &siClient{k: k, s: k.m.NewSampler(rng.New(seed).Split(uint64(i)).Uint64())}, nil
}

func (k *kvSILarge) engines() (*core.Engine, *dora.Engine) { return k.e, nil }

func (k *kvSILarge) flushPolicy() string {
	return "in-memory page store and WAL device (no fsync), SyncCommit on, MVCC on"
}

func (k *kvSILarge) close() {
	if k.e != nil {
		k.e.Close()
	}
}

// check closes and reopens the same in-memory stores (recovery runs)
// and requires the per-key counters to sum to the acknowledged SI
// commits.
func (k *kvSILarge) check() error {
	if err := shutdown(k.e); err != nil {
		return err
	}
	e, err := core.OpenWith(k.cfg, k.store, k.dev)
	if err != nil {
		return err
	}
	k.e = e
	if k.m.Table, err = e.Table("micro_kv"); err != nil {
		return err
	}
	total, err := k.m.TotalWrites(e)
	if err != nil {
		return err
	}
	if acked := k.acked.Load(); total != acked {
		return fmt.Errorf("kv-si-large: counters sum to %d after restart, %d SI commits acknowledged", total, acked)
	}
	return nil
}

type siClient struct {
	k *kvSILarge
	s *workload.Sampler
}

func (c *siClient) op(tr *opTrace) (opClass, error) {
	e, tbl := c.k.e, c.k.m.Table
	key := c.s.Next()
	switch roll := c.s.Src().Intn(100); {
	case roll < 90:
		return classRead, tr.call(callSnapshot, func() error {
			return e.ExecSnapshot(tr.body(func(tx *core.Txn) error {
				v, err := tx.Read(tbl, key)
				if err == nil && len(v) != siValueSize {
					err = fmt.Errorf("%w: key %d has %d bytes", errWrongRead, key, len(v))
				}
				return err
			}))
		})
	case roll < 95:
		hi := min(key+siScanRows-1, siKeys-1)
		return classScan, tr.call(callSnapshot, func() error {
			return e.ExecSnapshot(tr.body(func(tx *core.Txn) error {
				n := uint64(0)
				if err := tx.Scan(tbl, key, hi, func(uint64, []byte) bool {
					n++
					return true
				}); err != nil {
					return err
				}
				if n != hi-key+1 {
					return fmt.Errorf("%w: scan [%d,%d] saw %d rows", errWrongRead, key, hi, n)
				}
				return nil
			}))
		})
	default:
		err := tr.call(callExecSI, func() error {
			return e.ExecSI(tr.body(func(tx *core.Txn) error {
				v, err := tx.Read(tbl, key)
				if err != nil {
					return err
				}
				copy(v, workload.U64(workload.DecU64(v)+1))
				return tx.Update(tbl, key, v)
			}))
		})
		if err == nil {
			c.k.acked.Add(1)
		}
		return classWrite, err
	}
}
