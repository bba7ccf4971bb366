package lock

import (
	"sync/atomic"
	"testing"
)

// BenchmarkLockAcquireRelease measures the full acquire/release cycle
// of a short transaction — one intent lock, a handful of row locks,
// then ReleaseAll — on a partitioned table with one goroutine per
// core. Rows are disjoint per goroutine, so the numbers isolate
// lock-manager bookkeeping overhead (and its allocations) rather than
// conflict waits. Each worker owns one Holder and Resets it between
// transactions, as engine workers do, so steady state performs no
// per-transaction map allocation.
func BenchmarkLockAcquireRelease(b *testing.B) {
	m := NewManager(Options{Partitions: 64})
	var seq atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		worker := seq.Add(1)
		txn := worker << 32
		h := m.NewHolder(txn)
		i := uint64(0)
		for pb.Next() {
			txn++
			i++
			h.Reset(txn)
			if err := h.Acquire(TableName(1), IX); err != nil {
				b.Error(err)
				return
			}
			for r := uint64(0); r < 4; r++ {
				key := worker<<40 | i<<2 | r
				if err := h.Acquire(RowName(1, key), X); err != nil {
					b.Error(err)
					return
				}
			}
			h.ReleaseAll()
		}
	})
}

// BenchmarkAcquireReleaseChurn is the distinct-name churn shape the
// freelist targets: every transaction locks four rows never seen
// before, so each acquire is a table miss and each ReleaseAll retires
// the heads. Without the freelist every miss allocated a lockHead and
// its grant map; with it, steady state pops retired heads back off
// the partition freelist and allocs/op drops to the grants
// themselves. The recycle-ratio metric should sit near 1.0 once warm.
func BenchmarkAcquireReleaseChurn(b *testing.B) {
	m := NewManager(Options{Partitions: 64})
	var seq atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		worker := seq.Add(1)
		txn := worker << 32
		h := m.NewHolder(txn)
		i := uint64(0)
		for pb.Next() {
			txn++
			i++
			h.Reset(txn)
			for r := uint64(0); r < 4; r++ {
				key := worker<<40 | i<<2 | r
				if err := h.Acquire(RowName(1, key), X); err != nil {
					b.Error(err)
					return
				}
			}
			h.ReleaseAll()
		}
	})
	st := m.StatsSnapshot()
	if tot := st.HeadAllocs + st.HeadRecycles; tot > 0 {
		b.ReportMetric(float64(st.HeadRecycles)/float64(tot), "recycle-ratio")
	}
}
