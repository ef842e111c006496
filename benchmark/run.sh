#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds ./benchmark from source into
# .bench_build/ inside the checkout (build cache and temporaries too, so
# nothing outside the checkout is read or written) and runs it with the
# driver's arguments. `go run ./benchmark` is the same program.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/dtpbench" ./benchmark
exec "$build/dtpbench" "$@"
