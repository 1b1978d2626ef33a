# Mirrors the CI gates (.github/workflows/ci.yml) so contributors run
# the same checks locally before pushing.

GO ?= go

.PHONY: all build test lint bench cover scenarios bench-regress bench-perf bench-cache bench-metrics bench-strategy bench-trace golden

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 20

# Scenario-conformance: replay every named scenario on both targets and
# require bit-identical agreement with the committed golden traces. The
# TestGoldenScenarioTraces prefix also matches ...TracesSharded, which
# replays every cluster golden on parallel device shards (Parallelism 8
# and -1) against the same bytes.
scenarios:
	$(GO) test -count=1 -run 'TestGoldenScenarioTraces|TestGoldenTracesDecodable|TestScenarioRunDeterministic' -v .

# Regression sweep: run the full scenario matrix through fastttsbench,
# check it against the goldens, and emit BENCH_scenarios.json (the CI
# gate artifact). Fails on any mismatch or missing golden.
bench-regress:
	$(GO) run ./cmd/fastttsbench -suite scenarios -golden testdata/golden -out .

# Fleet-core perf smoke: a reduced fastttsbench perf suite emitting
# bench-smoke/BENCH_core.json (the CI bench-perf artifact; the directory
# is gitignored so the smoke run never clobbers the committed artifact).
# One pass times every (devices, requests, router) cell as its base run,
# with the elastic control plane attached, and at each -perf-shards
# count >= 2, and writes all three sections: current,
# controller_overhead and parallel_scaling (with the host's cores and
# GOMAXPROCS). It fails if any shard count serves, rejects or requeues
# differently from the base run.
# The committed BENCH_core.json is the full default grid
# ({1..1024} devices x {1k..100k} requests x five routers x shards
# {1,2,4,8}), with the previous report's current runs carried forward
# as its baseline, from
#   fastttsbench -suite perf -perf-baseline BENCH_core.json \
#       -perf-label "one fleet engine" -out .
# Refresh it when a PR claims a fleet-core speedup or touches the
# control plane's hot path or the shard layer.
bench-perf:
	$(GO) run ./cmd/fastttsbench -suite perf -perf-devices 8,64,256 \
		-perf-requests 1000 -perf-routers rr,least-work,jsq,p2c,prefix \
		-perf-shards 1,4,8 -out bench-smoke

# KV memory-plane cache sweep: serve the cache-thrash few-shot stream
# under every router × capacity regime (constrained / unconstrained /
# uncached) and emit BENCH_cache.json. Exits nonzero unless the plane's
# success metric holds: residency-aware routing (cache-aware, prefix)
# beats load-only jsq on p99 by more when cache-constrained than when
# capacity is plentiful. The run is deterministic, so the emitted cells
# match the committed BENCH_cache.json up to elapsed_ms timings.
bench-cache:
	$(GO) run ./cmd/fastttsbench -suite cache -out .

# Test-time-compute strategy sweep: serve the first-finish-mix and
# hedged-tail streams under each strategy override on the identical
# trace and emit BENCH_strategy.json. Exits nonzero unless both success
# metrics hold: first-finish strictly beats full-beam on p99 on
# first-finish-mix (accuracy recorded under the same majority-vote
# accounting), and hedged strictly beats full-beam on p99 on
# hedged-tail. The run is deterministic, so the emitted cells match the
# committed BENCH_strategy.json up to elapsed_ms timings.
bench-strategy:
	$(GO) run ./cmd/fastttsbench -suite strategy -out .

# Streaming-metrics sweep: feed every synthetic metrics stream —
# including the 10M-request mega-steady stream, run with no trace
# retention and its heap growth measured — plus every catalog scenario
# through both the streaming sketch and the exact sort path, and emit
# BENCH_metrics.json. Exits nonzero if any p50/p95/p99/mean relative
# error exceeds the documented bound (metrics.SketchRelErr = 1%) or the
# mega-steady pass retains more than a constant amount of heap.
bench-metrics:
	$(GO) run ./cmd/fastttsbench -suite metrics -out .

# Flight-recorder trace sweep: run every catalog scenario with the span
# recorder attached — span lifecycles must verify and every request's
# attribution components must sum to its measured wall latency within
# 1 ulp — then time recorder-off vs recorder-on on long streams
# (best-of-5, overhead gate <= 10%). Exits nonzero when either gate
# fails. Emits BENCH_trace.json plus trace.json, a representative
# Perfetto export of the fleet-churn scenario (load it at
# ui.perfetto.dev). The attribution cells are deterministic and match
# the committed BENCH_trace.json up to elapsed_ms and overhead timings.
bench-trace:
	$(GO) run ./cmd/fastttsbench -suite trace -out .

# Regenerate the golden traces after an *intentional* behavior change.
# Review the resulting diff like code before committing it.
golden:
	$(GO) test -count=1 -run TestGoldenScenarioTraces . -update
	@git --no-pager diff --stat -- testdata/golden 2>/dev/null || true
