#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds benchmarks/e2e from source
# and runs it with the arguments given, e.g.
#
#   bash benchmarks/run.sh --workload commit-mem --seed 1 --seconds 15 --trace 0
#
# Run from the root of a checkout. Everything it writes — the Go build
# cache, the binary, the durable workload's data dirs, a traced run's spans —
# goes under .bench_build/ there and nowhere else.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export TMPDIR="$build/tmp"
go build -o "$build/e2e" ./benchmarks/e2e
exec "$build/e2e" "$@"
