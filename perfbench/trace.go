package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"hydra/internal/core"
)

// Span names. The root span is the whole op as its client saw it; a
// call span is one call into a layer's public function; a body span
// is one attempt of the transaction body passed to that call.
const (
	spanOp   = "op"
	spanBody = "body"

	callServer   = "server.Client"
	callExecutor = "workload.Executor.Run"
	callExecSI   = "core.Engine.ExecSI"
	callSnapshot = "core.Engine.ExecSnapshot"
)

// span is one timed interval of a traced op. Spans of one op share Op;
// Parent indexes the op's span list (-1 for the root).
type span struct {
	Op     uint64 `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opTrace collects the spans of the op in flight on one client. A nil
// *opTrace is an untraced op: call and body then add nothing.
type opTrace struct {
	base  time.Time
	op    uint64
	cur   int32 // open call span, parent of body spans
	spans []span
}

func (t *opTrace) now() int64 { return int64(time.Since(t.base)) }

func (t *opTrace) begin(op uint64) {
	t.op = op
	t.spans = append(t.spans[:0], span{Op: op, ID: 0, Parent: -1, Name: spanOp, Start: t.now()})
	t.cur = 0
}

func (t *opTrace) finish() { t.spans[0].End = t.now() }

func (t *opTrace) open(name string, parent int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: t.now()})
	return id
}

// call times f as one call into a layer.
func (t *opTrace) call(name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.open(name, 0)
	t.cur = id
	err := f()
	t.spans[id].End = t.now()
	return err
}

// body wraps a transaction body so each attempt is a span under the
// open call. The body may run on another goroutine (a DORA executor)
// while the caller waits for it.
func (t *opTrace) body(fn func(*core.Txn) error) func(*core.Txn) error {
	if t == nil {
		return fn
	}
	return func(tx *core.Txn) error {
		id := t.open(spanBody, t.cur)
		err := fn(tx)
		t.spans[id].End = t.now()
		return err
	}
}

// opLayers sums the op's call and body spans: exec is the time in
// layer calls, body the time in body attempts.
func (t *opTrace) opLayers() (call string, exec, body int64, attempts int) {
	for _, s := range t.spans[1:] {
		if s.Name == spanBody {
			body += s.End - s.Start
			attempts++
		} else {
			call = s.Name
			exec += s.End - s.Start
		}
	}
	return call, exec, body, attempts
}

// selfTimes returns, per span name, the summed self time of spans: a
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]int64 {
	type key struct {
		op uint64
		id int32
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[key{s.Op, s.ID}])
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
