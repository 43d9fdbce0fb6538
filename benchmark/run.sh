#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout (Go's build cache, temp files and telemetry are redirected into
# .bench_build/ so nothing is written outside the checkout) and runs it with
# the caller's arguments from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/vada-benchmark" .
cd "$root"
exec "$build/vada-benchmark" "$@"
