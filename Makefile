GO ?= go
VET_SUMMARIES := .hydra-vet/summaries.json
VET_BASELINE  := vet.baseline.json

.PHONY: build test race vet lint vet-baseline vet-update-baseline stress stress-dora bench bench-json bench-wal bench-lock bench-dora bench-smoke perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/lock/... ./internal/core/... ./internal/buffer/... ./internal/wal/... ./internal/obs/... ./internal/server/... ./internal/dora/... ./internal/sync2/...

# stress-dora runs the DORA mixed-path stress tests under the race
# detector: fast-path, cross-partition and timeout-cancel transactions
# over few executors with tiny queue depths, plus engine close under
# load and the canceled-parked-action regression.
stress-dora:
	$(GO) test -race -count=1 -run 'TestStressMixedPaths|TestCanceledParkedActionNeverRuns|TestCloseUnderLoad' ./internal/dora/

vet:
	$(GO) vet ./...

# perfbench-check vets and tests the benchmark harness. perfbench/ is
# a separate module, so the root ./... never compiles it: without this
# target an API change in the engine would break the benchmark
# silently.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# lint runs hydra-vet (internal/analysis) over the whole module in two
# passes. The standalone pass loads the full source tree, so the
# latchsum closure resolves cross-package call chains from source, and
# it persists the computed summaries; the go vet -vettool pass (which
# sees one package at a time, but additionally covers test files)
# reads them back via HYDRA_VET_SUMMARIES so dora → core → lock chains
# stay visible there too.
lint:
	$(GO) build -o bin/hydra-vet ./cmd/hydra-vet
	./bin/hydra-vet -summaries $(VET_SUMMARIES) ./...
	HYDRA_VET_SUMMARIES=$(abspath $(VET_SUMMARIES)) $(GO) vet -vettool=$(abspath bin/hydra-vet) ./...

# vet-baseline asserts hydra-vet reports exactly the committed
# baseline: zero new findings (matched by file/analyzer/message,
# ignoring line numbers). CI runs this; the baseline is committed.
vet-baseline:
	$(GO) build -o bin/hydra-vet ./cmd/hydra-vet
	./bin/hydra-vet -tests -json -baseline $(VET_BASELINE) ./...

# vet-update-baseline regenerates the committed baseline from the
# current tree. Run it (and review the diff) after intentionally
# accepting a finding instead of fixing or marker-suppressing it.
vet-update-baseline:
	$(GO) build -o bin/hydra-vet ./cmd/hydra-vet
	./bin/hydra-vet -tests -write-baseline $(VET_BASELINE) ./...

# stress exercises the hydradebug runtime assertions (latch-order and
# pool-ownership checks compiled in via the build tag). The lock
# package is included for the freelist pool-ownership assertions on
# the lock-head retire/recycle protocol.
stress:
	$(GO) test -tags hydradebug -count=1 ./internal/invariant/... ./internal/latch/... ./internal/buffer/... ./internal/wal/... ./internal/core/... ./internal/sync2/... ./internal/lock/...

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkLockAcquireRelease|BenchmarkCommitPipeline|BenchmarkPoolFetchParallel' -benchmem ./internal/lock/ ./internal/core/ ./internal/buffer/

# bench-json runs the full experiment suite and archives the results
# as a dated machine-readable document (schema hydra-bench/v1, see
# EXPERIMENTS.md "Machine-readable runs"). Override BENCH_SCALE=full
# for report sizing. This is the only sanctioned bench artifact path:
# do not commit raw `make bench | tee` dumps (bench_full_output.txt is
# gitignored for exactly that reason) — archive a dated BENCH_*.json.
BENCH_SCALE ?= quick
bench-json:
	$(GO) run ./cmd/hydra-bench -scale $(BENCH_SCALE) -json BENCH_$$(date +%Y-%m-%d).json

# bench-wal runs the WAL flush-path benchmarks with enough iterations
# for the per-flush metrics (writes/flush, segsyncs/sync) to settle:
# the numbers cited in EXPERIMENTS.md E11 come from this target.
bench-wal:
	$(GO) test -run '^$$' -bench 'BenchmarkFlushWrap|BenchmarkSegmentedSync|BenchmarkSegmentedWriteVec|BenchmarkLogAppendSegmented' -benchtime 200x -benchmem ./internal/wal/

# bench-lock runs the lock-manager benchmarks, including the
# distinct-name churn shape that exercises the lock-head freelist: the
# allocs/op and recycle-ratio figures in EXPERIMENTS.md E12 come from
# this target.
bench-lock:
	$(GO) test -run '^$$' -bench 'BenchmarkLockAcquireRelease|BenchmarkAcquireReleaseChurn' -benchtime 2s -benchmem ./internal/lock/

# bench-dora runs the DORA execution-path benchmarks: the
# single-partition fast path allocs/op and the cross-partition
# rendezvous figures in EXPERIMENTS.md E13 come from this target.
bench-dora:
	$(GO) test -run '^$$' -bench 'BenchmarkDoraExecSingle|BenchmarkDoraExecCross' -benchtime 2s -benchmem ./internal/dora/

# bench-smoke compiles and runs every benchmark for a single
# iteration: it catches benchmarks that crash or no longer build
# without paying for a timed run (CI's guard against bench rot).
# ./... picks up the WAL flush benchmarks (bench_test.go) too; the
# explicit wal run below it asserts the vectored path's counters are
# live, not just that the benchmarks compile. The final server test
# drives locked, DORA, snapshot-read and SI traffic and asserts every
# declared metric family appears on /metrics, /stats and STATS FULL,
# with the hydra_dora_*, hydra_mvcc_*, lock-bypass, phase-accounting
# (hydra_txn_phase_*, the slow-transaction reservoir counters, and the
# hydra_incidents_total kinds) families showing that load. The
# accounting itself is budgeted at <=3% ns/op and zero extra allocs/op
# on the commit/lock/DORA hot paths — regressions show up in the bench
# targets above against the figures recorded in EXPERIMENTS.md.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench 'BenchmarkFlushWrap|BenchmarkSegmentedSync' -benchtime 20x ./internal/wal/
	$(GO) test -run '^$$' -bench 'BenchmarkAcquireReleaseChurn' -benchtime 20x ./internal/lock/
	$(GO) test -run 'TestMetricsConformance' -count=1 ./internal/server/
