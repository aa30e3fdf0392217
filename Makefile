GO ?= go

.PHONY: check fmt vet lint-metrics lint-docs lint-api build test test-race bench bench-smoke fuzz-smoke

## check runs the tier-1 verification gate: formatting, vet, the metric-
## cardinality lint, the exported-godoc lint, the route-table/API.md
## bijection lint, build, the full test suite under the race detector, a
## short fuzz pass over the WAL replay contract, and a smoke pass over the
## read-path microbenchmarks. CI and pre-merge runs use this.
check: fmt vet lint-metrics lint-docs lint-api build test-race fuzz-smoke bench-smoke

## lint-metrics fails when any obs.L / obs.Label value is not a
## compile-time constant — the static half of the bounded-cardinality
## contract (the registry's per-family series cap is the dynamic half).
lint-metrics:
	$(GO) run ./cmd/obs-lint ./...

## lint-docs fails when an exported identifier in any internal package or
## the Go client lacks a doc comment (the whole library surface, matview
## and the once-uncovered packages included).
lint-docs:
	$(GO) run ./cmd/doc-lint ./internal/... ./client

## lint-api fails when the served route table (internal/core/router.go)
## and the documented route table (API.md) disagree in either direction.
lint-api:
	$(GO) run ./cmd/api-lint

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

## fuzz-smoke runs the WAL-replay, block-decode and visit-skim fuzzers
## for short, bounded bursts: long enough to shake out regressions in the
## torn-tail / mid-log corruption contract, the untrusted-block parsing
## contract and the skim-equals-full-decode contract, short enough for
## every pre-merge run.
fuzz-smoke:
	$(GO) test ./internal/kvstore -run FuzzReplayWAL -fuzz FuzzReplayWAL -fuzztime=10s
	$(GO) test ./internal/kvstore -run FuzzBlockDecode -fuzz FuzzBlockDecode -fuzztime=5s
	$(GO) test ./internal/kvstore -run FuzzLZDecompress -fuzz FuzzLZDecompress -fuzztime=5s
	$(GO) test ./internal/model -run FuzzSkimVisitBinary -fuzz FuzzSkimVisitBinary -fuzztime=5s

bench:
	$(GO) run ./cmd/modissense-bench -exp all -quick

## bench-smoke runs the scan-kernel and coprocessor read-path
## microbenchmarks (memtable-only and over flushed segments) a fixed small
## number of iterations — it verifies the benchmarks still build and run,
## not their timings — then scrapes
## GET /metrics after live API traffic into BENCH_metrics.json, runs the
## seeded fault-injection workload into BENCH_faults.json, the
## primary-kill failover workload into BENCH_failover.json, and runs the
## overload-protection stall-storm workload into BENCH_overload.json, and
## the write-path ingest workload into BENCH_ingest.json, and the
## block-format workload into BENCH_blocks.json, and the standing-query
## pub/sub workload into BENCH_pubsub.json, and the materialized-trending
## workload into BENCH_trending.json so each run records the
## fault-tolerance, failover, shedding, group-commit, compression,
## block-cache, continuous-query and view/cache gates alongside the
## latency figures.
bench-smoke:
	$(GO) test ./internal/kvstore -run XXX -bench 'BenchmarkScanPath' -benchmem -benchtime=100x
	$(GO) test ./internal/kvstore -run XXX -bench 'BenchmarkMergeIterator' -benchmem -benchtime=50x
	$(GO) test ./internal/query -run XXX -bench 'BenchmarkCoprocessor200' -benchmem -benchtime=100x
	$(GO) test ./internal/query -run XXX -bench 'BenchmarkCoprocessorSegments' -benchmem -benchtime=100x
	$(GO) run ./cmd/modissense-bench -exp metrics -quick
	$(GO) run ./cmd/modissense-bench -exp faults -quick
	$(GO) run ./cmd/modissense-bench -exp failover -quick
	$(GO) run ./cmd/modissense-bench -exp overload -quick
	$(GO) run ./cmd/modissense-bench -exp ingest -quick
	$(GO) run ./cmd/modissense-bench -exp blocks -quick
	$(GO) run ./cmd/modissense-bench -exp pubsub -quick
	$(GO) run ./cmd/modissense-bench -exp trending -quick
