#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload paper-campaign --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build/
# in the current directory, and results go to bench-out/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
