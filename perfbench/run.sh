#!/usr/bin/env bash
# run.sh builds the benchmark from the checkout's sources and runs it.
# Run it from the repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload exact-search --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary and the trace files all stay under
# .bench_build in the repository root.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
