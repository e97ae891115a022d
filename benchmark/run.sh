#!/usr/bin/env bash
# Driver entry point named in BENCHMARK.json: build the benchmark program
# from source inside the checkout and run it with the driver's arguments.
# Every byte Go writes (build cache, temp files, binaries) stays under
# .bench_build/, so the benchmark reads and writes only inside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off

# Fails (non-zero, no result line) when the repository the benchmark
# measures is not around it: the module's replace target is the parent dir.
go build -C "$here" -o "$build/bin/benchmark" .

cd "$root"
exec "$build/bin/benchmark" "$@"
