# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test test-short test-race benchmark benchmark-trace benchmark-compare bench bench-save bench-engine experiments examples audit chaos campaign byzantine disciplines serve-bench flight attr-bench

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Skips the heaviest PTP packet-level load experiments.
test-short:
	go test -short ./...

# The telemetry registry and tracer are scraped concurrently with the
# simulation; the race detector proves that sound.
test-race:
	go test -race -short ./...

# The repo's benchmark (BENCHMARK.json, benchmark/README.md): all five
# workloads, correctness-gated, end-to-end metrics with tracing off
# (~70 s) into benchmark/out/results.json; exits non-zero, naming the
# workload, when a correctness check fails.
benchmark:
	go run ./benchmark

# The same with spans and the per-layer probes (~110 s):
# benchmark/out/results-trace.json and benchmark/out/trace.json.
benchmark-trace:
	go run ./benchmark -trace 1

# Compare two results files (A is the base): every end-to-end metric
# against its bound, then failed == 0, exact statistics and digests
# identical. make benchmark-compare A=parent.json B=change.json
benchmark-compare:
	go run ./benchmark -compare $(A) $(B)

# One iteration of every paper table/figure benchmark with its metrics.
bench:
	go test -bench . -benchtime 1x -benchmem -run '^$$' .

# Engine throughput gate: refresh BENCH_8.json (events/sec on
# fattree:8, calendar vs heap-reference vs recorded seed baseline) and
# fail if throughput regressed more than 15% below the committed
# record, or fell under 5x the seed. Both gates arm only on hosts with
# >= 8 CPUs (the BENCH_5/BENCH_6 policy); smaller hosts still refresh
# the record. The baseline is read before the record is rewritten.
bench-engine:
	BENCH8_OUT=$$(pwd)/BENCH_8.json BENCH8_BASELINE=$$(pwd)/BENCH_8.json \
		go test -bench 'BenchmarkEngineFattree8|BenchmarkCampaignJobsScaling' -benchtime 1x -run '^$$' .

# Snapshot benchmark output to a dated file for benchstat against
# future PRs, refresh BENCH_5.json with the campaign runner's
# parallel-vs-serial numbers, and refresh BENCH_8.json in full (the
# fattree:16 capacity run and the campaign -jobs scaling sweep ride
# along under BENCH8_FULL=1) with the regression gate armed.
bench-save:
	mkdir -p bench
	go test -bench . -benchtime 1x -benchmem -run '^$$' . | tee bench/$$(date +%Y%m%d)-$$(git rev-parse --short HEAD).txt
	CAMPAIGN_BENCH_OUT=$$(pwd)/BENCH_5.json go test -bench BenchmarkCampaign$$ -benchtime 1x -run '^$$' ./internal/campaign
	BENCH8_FULL=1 BENCH8_OUT=$$(pwd)/BENCH_8.json BENCH8_BASELINE=$$(pwd)/BENCH_8.json \
		go test -bench 'BenchmarkEngineFattree8|BenchmarkCampaignJobsScaling' -benchtime 1x -timeout 30m -run '^$$' .

# Run the online 4TD-bound auditor over the quickstart topology under
# MTU load; dtpsim exits nonzero on any bound violation.
audit:
	go run ./cmd/dtpsim -topo pair -duration 500ms -load mtu -audit
	go run ./cmd/dtpsim -topo tree -duration 200ms -audit

# Multi-seed chaos soak: the fault-injection engine's own tests under
# the race detector, then the canned storm campaign (flap storm + BER
# burst + crash/restart on a 6-device chain) on seeds 1-3 through the
# campaign runner. Every run must show zero bound violations outside
# the declared fault windows and reconverge within the scenario
# deadline, or dtpsim exits 1.
chaos:
	go test -race -count=1 ./internal/chaos
	go run ./cmd/dtpsim -topo chain:5 -chaos examples/chaos/storm.json -duration 5ms -seed 1 -sweep-seeds 3 -jobs 4

# Campaign runner: determinism tests under the race detector, then a
# small mixed grid across 4 workers and the example grid file.
campaign:
	go test -race -count=1 ./internal/campaign ./internal/par ./internal/cliutil
	go run ./cmd/dtpsim -topo chain:3 -duration 5ms -sweep-seeds 4 -jobs 4 > /dev/null
	go run ./cmd/dtpsim -campaign examples/campaign/smoke.json -jobs 4 > /dev/null

# Byzantine tolerance: hardened-mode admission/quarantine tests and the
# break-even campaign grid under the race detector, then the paired
# liar demo — plain mode must fail the verdict (exit 1), hardened mode
# must pass it with zero unexcused violations (exit 0).
byzantine:
	go test -race -count=1 -run 'Harden|Admit|Quarantine|Liar|Byzantine' ./internal/core ./internal/chaos ./internal/campaign
	! go run ./cmd/dtpsim -topo tree -chaos examples/chaos/liar.json -duration 160ms > /dev/null
	go run ./cmd/dtpsim -topo tree -chaos examples/chaos/liar.json -duration 160ms -hardened > /dev/null

# Clock-discipline lab: the estimator and daemon tests under the race
# detector (golden convergence, restart-reset regression, campaign
# discipline-axis determinism), then the dtpexp comparison table — all
# four estimators under clean / pcie-jitter / osc-wander noise.
disciplines:
	go test -race -count=1 ./internal/discipline ./internal/daemon
	go test -race -count=1 -run 'Discipline' ./internal/campaign ./internal/cliutil .
	go run ./cmd/dtpexp -sweep disciplines -duration 1500ms

# Time-service fast path: the seqlock/clock tests under the race
# detector, then cmd/dtpload calibrates a serving plane in-sim and
# hammers the lock-free read path from every core, refreshing
# BENCH_6.json. The 1M reads/sec floor is only asserted on hosts with
# >= 8 CPUs (the BENCH_5 policy), so laptops and small CI runners
# still produce records without failing.
serve-bench:
	go test -race -count=1 ./internal/timesvc
	go run ./cmd/dtpload -duration 300ms -hammer 2s -assert -out BENCH_6.json

# Attribution instrumentation cost: A/B hammer (bare vs striped width
# histogram on the hot path) refreshing BENCH_7.json. The <5% overhead
# budget is asserted only on hosts with >= 8 CPUs, like the qps floor.
attr-bench:
	go run ./cmd/dtpload -duration 300ms -hammer 2s -attr-bench -assert -out BENCH_7.json

# Flight-recorder smoke: the telemetry tests under the race detector,
# then a chaos run that silences one peer (grey_loss p=1) so the beacon
# watchdog demotes the port and trips a bundle, which dtptrace -bundle
# must validate and summarize. Fails if no bundle appears.
flight:
	go test -race -count=1 ./internal/telemetry
	rm -rf flight-smoke
	go run ./cmd/dtpsim -topo pair -duration 200ms -time-service \
		-chaos examples/chaos/breaker.json -flight-dir flight-smoke \
		-timeline-out flight-smoke/timeline.jsonl
	test -f flight-smoke/flight-1-00-port_demoted.json
	go run ./cmd/dtptrace -bundle flight-smoke/flight-1-00-port_demoted.json -topo pair
	rm -rf flight-smoke

# Regenerate every table and figure (long; see EXPERIMENTS.md).
experiments:
	go run ./cmd/dtpexp -all

examples:
	go run ./examples/quickstart
	go run ./examples/partition
	go run ./examples/owd
	go run ./examples/mixedspeed
	go run ./examples/fattree
	go run ./examples/truetime
