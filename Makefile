# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test test-race benchmark benchmark-trace benchmark-compare experiments examples audit chaos campaign byzantine disciplines flight

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The telemetry registry and tracer are scraped concurrently with the
# simulation; the race detector proves that sound.
test-race:
	go test -race -short ./...

# The repo's benchmark and its only source of speed figures
# (BENCHMARK.json, benchmark/README.md): all five workloads,
# correctness-gated, end-to-end metrics with tracing off (~70 s) into
# benchmark/out/results.json; exits non-zero, naming the workload, when
# a correctness check fails.
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
# must pass it with zero unexcused violations (exit 0). The hardened
# half runs twice: on the default seed nothing has to follow the liar
# s8 afterwards, so a port left deaf to it goes unnoticed; on seed 64
# s8 holds the clock the fabric must follow once the fault clears.
# Single-mode -chaos attaches a tracer, which keeps every beacon an
# event; the closing four-seed sweep runs untraced, so it is the one
# step whose beacons are admitted from the device inboxes.
byzantine:
	go test -race -count=1 -run 'Harden|Admit|Quarantine|Liar|Byzantine' ./internal/core ./internal/chaos ./internal/campaign
	! go run ./cmd/dtpsim -topo tree -chaos examples/chaos/liar.json -duration 160ms > /dev/null
	go run ./cmd/dtpsim -topo tree -chaos examples/chaos/liar.json -duration 160ms -hardened > /dev/null
	go run ./cmd/dtpsim -topo tree -chaos examples/chaos/liar.json -duration 160ms -hardened -seed 64 > /dev/null
	go run ./cmd/dtpsim -topo tree -chaos examples/chaos/liar.json -duration 160ms -hardened -seed 17 -sweep-seeds 4 -jobs 2 > /dev/null

# Clock-discipline lab: the estimator and daemon tests under the race
# detector (golden convergence, restart-reset regression, campaign
# discipline-axis determinism), then the dtpexp comparison table — all
# four estimators under clean / pcie-jitter / osc-wander noise — and a
# short sweep at one worker and at two, whose outputs must be identical.
disciplines:
	go test -race -count=1 ./internal/discipline ./internal/daemon
	go test -race -count=1 -run 'Discipline' ./internal/campaign ./internal/cliutil .
	go run ./cmd/dtpexp -sweep disciplines -duration 1500ms
	go run ./cmd/dtpexp -sweep disciplines -duration 300ms -jobs 1 > disciplines-jobs1.txt
	go run ./cmd/dtpexp -sweep disciplines -duration 300ms -jobs 2 > disciplines-jobs2.txt
	cmp disciplines-jobs1.txt disciplines-jobs2.txt
	rm -f disciplines-jobs1.txt disciplines-jobs2.txt

# Flight-recorder smoke: the telemetry and time-service tests under the
# race detector at full length (the snapshot-store torn-read hammer included),
# then a -time-service chaos run that silences one peer (grey_loss p=1)
# so the beacon watchdog demotes the port and trips a bundle, which
# dtptrace -bundle must validate and summarize. Fails if no bundle
# appears.
flight:
	go test -race -count=1 ./internal/telemetry ./internal/timesvc
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
