#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-matrix --seed 0 --seconds 10 --trace 0
#
# Everything the build leaves behind (Go build cache, binary, spans,
# profiles, scratch cache dirs) goes under .bench_build/ in the current
# directory; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build"
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOWORK=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
