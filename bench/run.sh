#!/usr/bin/env bash
# Entry point the pipeline calls (BENCHMARK.json "command"), from the
# root of a checkout:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# It builds ./bench from source into .bench_build/ and runs it with the
# same arguments. Build cache and binary stay inside the checkout, so
# the first run of a checkout pays for compiling the standard library;
# later runs re-use the cache. `go run ./bench` does the same with the
# user's own Go cache.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$root/.bench_build/bench" ./bench
exec "$root/.bench_build/bench" "$@"
