package main

import (
	"errors"
	"fmt"
	"net"

	"hydra/internal/core"
	"hydra/internal/dora"
	"hydra/internal/rng"
	"hydra/internal/server"
)

// wire-kv: autocommit GET/SET/SCAN (80/15/5) over loopback to an
// in-process server on a durable MVCC engine. Each connection owns a
// disjoint key range and checks every read against its shadow.
const (
	wireKeys      = 50000
	wireValueSize = 100
	wireScanMax   = 20
	wireLoadBatch = 500
	wireTable     = "kv"
	// wireProbes values with leading, trailing or repeated spaces are
	// written and read back after the timed phase (see probe).
	wireProbes     = 64
	wireProbeTable = "kv_probe"
)

type wireKV struct {
	cfg      core.Config
	e        *core.Engine
	srv      *server.Server
	addr     string
	done     chan error // Serve's return
	seed     uint64
	probeErr error    // fails check
	loaded   []string // value of each key after the load
	clients  []*wireClient
}

func (w *wireKV) setup(dir string, seed uint64) error {
	w.seed = seed
	w.cfg = core.Scalable()
	w.cfg.Dir = dir
	w.cfg.SyncCommit = false // see README.md: the host's fsync latency drifts
	w.cfg.MVCC = true
	e, err := core.Open(w.cfg)
	if err != nil {
		return err
	}
	w.e = e
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = server.New(e)
	w.addr = ln.Addr().String()
	w.done = make(chan error, 1)
	go func() { w.done <- w.srv.Serve(ln) }()

	c, err := server.Dial(w.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.CreateTable(wireTable); err != nil {
		return err
	}
	// Load in explicit transactions: one commit flush per batch.
	src := rng.New(seed).Split(100)
	w.loaded = make([]string, wireKeys)
	for lo := 0; lo < wireKeys; lo += wireLoadBatch {
		if err := c.Begin(); err != nil {
			return err
		}
		for k := lo; k < min(lo+wireLoadBatch, wireKeys); k++ {
			w.loaded[k] = wireValue(src)
			if err := c.Set(wireTable, uint64(k), w.loaded[k]); err != nil {
				return fmt.Errorf("load key %d: %w", k, err)
			}
		}
		if err := c.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// wireValue draws a value from the full printable ASCII range. Spaces
// occur only inside a value and one at a time: the server rebuilds a
// SET value from its space-separated fields, so a leading, trailing or
// repeated space would not survive (a ROADMAP defect, which probe
// shows on every run) and every later read of that key would fail.
func wireValue(src *rng.Source) string {
	b := make([]byte, wireValueSize)
	for i := range b {
		b[i] = byte(0x20 + src.Intn(0x7f-0x20))
		if b[i] == ' ' && (i == 0 || i == len(b)-1 || b[i-1] == ' ') {
			b[i] = byte(0x21 + src.Intn(0x7f-0x21))
		}
	}
	return string(b)
}

// probeValue is wireValue with a leading, a trailing or a repeated
// space, by i.
func probeValue(src *rng.Source, i int) string {
	v := wireValue(src)
	switch i % 3 {
	case 0:
		return " " + v[1:]
	case 1:
		return v[:len(v)-1] + " "
	default:
		return v[:wireValueSize/2] + "  " + v[wireValueSize/2+2:]
	}
}

// probe SETs and GETs wireProbes values with leading, trailing or
// repeated spaces in a table of their own, and returns how many came
// back altered. It runs after the timed phase, so it moves no metric.
func (w *wireKV) probe() (int, error) {
	c, err := server.Dial(w.addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.CreateTable(wireProbeTable); err != nil {
		return 0, err
	}
	src := rng.New(w.seed).Split(101)
	altered := 0
	for k := range wireProbes {
		v := probeValue(src, k)
		if err := c.Set(wireProbeTable, uint64(k), v); err != nil {
			return altered, err
		}
		got, err := c.Get(wireProbeTable, uint64(k))
		if err != nil {
			return altered, err
		}
		if got != v {
			altered++
		}
	}
	return altered, nil
}

func (w *wireKV) newClient(i int, seed uint64) (client, error) {
	c, err := server.Dial(w.addr)
	if err != nil {
		return nil, err
	}
	per := uint64(wireKeys / clients)
	lo := uint64(i) * per
	sh := &shadow{lo: lo, vals: append([]string(nil), w.loaded[lo:lo+per]...)}
	wc := &wireClient{c: c, src: rng.New(seed).Split(uint64(i)), sh: sh}
	w.clients = append(w.clients, wc)
	return wc, nil
}

func (w *wireKV) engines() (*core.Engine, *dora.Engine) { return w.e, nil }

func (w *wireKV) flushPolicy() string {
	return "file WAL and page file, SyncCommit off (commits do not wait for fsync), MVCC on"
}

func (w *wireKV) report() []string {
	var all int64
	for _, c := range w.clients {
		all += c.mismatches
	}
	lines := []string{fmt.Sprintf("wire-kv shadow mismatches over the whole run, warm-up included: %d", all)}
	altered, err := w.probe()
	if err != nil {
		w.probeErr = fmt.Errorf("wire-kv space probe: %w", err)
		return lines
	}
	return append(lines, fmt.Sprintf("wire-kv space probe: %d of %d values with a leading, trailing or repeated space came back altered (the server rebuilds SET values from their fields; ROADMAP defect)", altered, wireProbes))
}

func (w *wireKV) stopServing() error {
	for _, c := range w.clients {
		c.c.Close()
	}
	if w.srv == nil {
		return nil
	}
	err := w.srv.Close()
	if serr := <-w.done; err == nil {
		err = serr
	}
	w.srv = nil
	return err
}

func (w *wireKV) close() {
	w.stopServing()
	if w.e != nil {
		w.e.Close()
	}
}

// check reads the table, closes and reopens the engine (recovery
// runs), and requires the same contents after the restart.
func (w *wireKV) check() error {
	if w.probeErr != nil {
		return w.probeErr
	}
	if err := w.stopServing(); err != nil {
		return err
	}
	before, err := dumpTable(w.e, wireTable)
	if err != nil {
		return err
	}
	if len(before) != wireKeys {
		return fmt.Errorf("wire-kv: %d keys before restart, want %d", len(before), wireKeys)
	}
	if err := shutdown(w.e); err != nil {
		return err
	}
	e, err := core.Open(w.cfg)
	if err != nil {
		return err
	}
	w.e = e
	after, err := dumpTable(e, wireTable)
	if err != nil {
		return err
	}
	if len(after) != len(before) {
		return fmt.Errorf("wire-kv: %d keys after restart, %d before", len(after), len(before))
	}
	for k, v := range before {
		if after[k] != v {
			return fmt.Errorf("wire-kv: key %d changed across restart", k)
		}
	}
	return nil
}

func dumpTable(e *core.Engine, name string) (map[uint64]string, error) {
	tbl, err := e.Table(name)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]string)
	err = e.Exec(func(tx *core.Txn) error {
		clear(out)
		return tx.Scan(tbl, 0, ^uint64(0), func(k uint64, v []byte) bool {
			out[k] = string(v)
			return true
		})
	})
	return out, err
}

type wireClient struct {
	c          *server.Client
	src        *rng.Source
	sh         *shadow
	mismatches int64
}

func (c *wireClient) op(tr *opTrace) (opClass, error) {
	per := uint64(len(c.sh.vals))
	k := c.sh.lo + uint64(c.src.Intn(int(per)))
	roll := c.src.Intn(100)
	var cls opClass
	var err error
	switch {
	case roll < 80:
		cls = classRead
		var got string
		if err = tr.call(callServer, func() error {
			got, err = c.c.Get(wireTable, k)
			return err
		}); err == nil {
			err = c.sh.checkGet(k, got)
		}
	case roll < 95:
		cls = classWrite
		v := wireValue(c.src)
		if err = tr.call(callServer, func() error { return c.c.Set(wireTable, k, v) }); err == nil {
			c.sh.set(k, v)
		}
	default:
		cls = classScan
		hi := min(k+wireScanMax-1, c.sh.lo+per-1)
		var rows []server.Row
		if err = tr.call(callServer, func() error {
			rows, err = c.c.Scan(wireTable, k, hi, wireScanMax)
			return err
		}); err == nil {
			err = c.sh.checkScan(k, hi, wireScanMax, rows)
		}
	}
	if errors.Is(err, errMismatch) {
		c.mismatches++
	}
	return cls, err
}

func (c *wireClient) ping() error { return c.c.Ping() }
