GO ?= go

.PHONY: all build vet lint test race faults serve-smoke serve-cluster regauge-smoke multilevel-smoke bench-orders bench-alloc bench-refine check

all: check

# The benchmark harness is a nested module that the root ./... pattern
# skips, so it is built and vetted on its own: a change to an internal API
# it uses must fail here, not in the benchmark run.
build:
	$(GO) build ./...
	cd perfbench && $(GO) build ./... && $(GO) vet ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (internal/analysis via cmd/geolint), with
# go vet alongside. Exits non-zero on any finding not suppressed by a
# justified //geolint:ignore directive; -staleignores also fails on
# directives that no longer suppress anything.
lint: vet
	$(GO) run ./cmd/geolint -staleignores ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages that spawn goroutines (the virtual
# MPI scheduler, the network simulator, the mapping service's pool/
# cache/snapshot-store, the core mapper's parallel order search, and the
# re-gauging control loop), the comm graph's freeze on concurrent first
# reads, plus the analysis loader's concurrent type-check waves.
race:
	$(GO) test -race ./internal/mpi/... ./internal/netsim/... ./internal/service/... ./internal/core/... ./internal/regauge/... ./internal/multilevel/... ./internal/comm/...
	$(GO) test -race -run TestLoadParallelDeterministic ./internal/analysis

# Fault-injection smoke: replay LU through the FlakyWAN preset and run the
# failure-aware remap path end to end (internal/faults + netsim faulty
# engines + core.Remap). Must terminate without hangs or leaks.
faults:
	$(GO) run ./cmd/geosim -app LU -n 64 -faults FlakyWAN

# Service smoke: boot geomapd on an ephemeral port, replay the same
# seeded geoload mix twice, and require byte-identical placement
# digests, a fully cache-served warm run, and a clean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Cluster smoke: boot a 3-daemon fleet wired via -peers (each pinned to
# GOMAXPROCS=1), and require byte-identical geoload digests between the
# single-node baseline and the hash-routed and round-robin fleet runs,
# nonzero cross-node peer_hits, >= 2x aggregate throughput on hosts with
# at least 4 cores (reported but unenforced under the single-core
# ceiling), and a clean SIGTERM drain of all three daemons.
serve-cluster:
	./scripts/serve_cluster_smoke.sh

# Re-gauging smoke: boot geomapd with the closed calibration loop live
# against FlakyWAN at a fast timescale, and require at least one
# automatic snapshot publication, at least one hysteresis-suppressed
# remap, and a clean drain that stops the loop.
regauge-smoke:
	./scripts/regauge_smoke.sh

# Multilevel smoke: map a 16-site, 4096-process instance with the
# multilevel pipeline at Workers = 1 and Workers = GOMAXPROCS under a
# wall-clock budget; the run fails unless the two placements are
# byte-identical.
multilevel-smoke:
	./scripts/multilevel_smoke.sh

# Serial-vs-parallel order-search baseline: full-scale sweep (κ = 6..8,
# N = 64/256) written to results/BENCH_orders.json. Speedup depends on
# host core count, which the report records.
bench-orders:
	$(GO) run ./cmd/geobench -exp orders -out results -json
	cp results/orders.json results/BENCH_orders.json

# Zero-allocation gate: the BenchmarkAlloc* family measures every
# //geolint:allocfree hot path with -benchmem and fails on any nonzero
# allocs/op (the dynamic counterpart of the static allocsafe rule).
# Measurements land in results/BENCH_alloc.json; ns/op is informational.
bench-alloc:
	./scripts/bench_alloc.sh

# Refinement ns/move baseline: the BenchmarkRefineMove* family measures
# the multilevel local-search hot path (move/swap deltas, candidate scan,
# full proposal sweep) and fails on any nonzero allocs/op. Measurements
# land in results/BENCH_refine.json.
bench-refine:
	./scripts/bench_refine.sh

check: build vet lint test race faults serve-smoke serve-cluster regauge-smoke multilevel-smoke bench-alloc bench-refine
