package main

import (
	"errors"
	"fmt"

	"hydra/internal/server"
)

// errMismatch marks a wire read whose result differs from the
// connection's shadow.
var errMismatch = errors.New("wire-kv: result differs from acknowledged SETs")

// shadow is one connection's record of the values the server has
// acknowledged, over the key range [lo, lo+len(vals)) that the
// connection alone writes.
type shadow struct {
	lo   uint64
	vals []string
}

func (s *shadow) set(k uint64, v string) { s.vals[k-s.lo] = v }

func (s *shadow) want(k uint64) string { return s.vals[k-s.lo] }

func (s *shadow) compare(k uint64, got string) error {
	want := s.want(k)
	if got == want {
		return nil
	}
	return fmt.Errorf("%w: key %d", errMismatch, k)
}

// checkGet checks a GET reply.
func (s *shadow) checkGet(k uint64, got string) error { return s.compare(k, got) }

// checkScan checks a SCAN over [lo, hi] limited to max rows: every key
// in the owned range exists, so the reply must be exactly the first
// max keys from lo, in order, with their shadow values.
func (s *shadow) checkScan(lo, hi uint64, max int, rows []server.Row) error {
	n := hi - lo + 1
	if uint64(max) < n {
		n = uint64(max)
	}
	if uint64(len(rows)) != n {
		return fmt.Errorf("%w: scan [%d,%d] returned %d rows, want %d", errMismatch, lo, hi, len(rows), n)
	}
	for i, r := range rows {
		if r.Key != lo+uint64(i) {
			return fmt.Errorf("%w: scan row %d has key %d, want %d", errMismatch, i, r.Key, lo+uint64(i))
		}
		if err := s.compare(r.Key, r.Value); err != nil {
			return err
		}
	}
	return nil
}
