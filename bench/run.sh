#!/usr/bin/env bash
# What BENCHMARK.json's command runs: build the benchmark from the
# checkout it stands in, keeping the Go build cache inside the checkout
# too, then hand every argument to it. Run from the repository root.
set -euo pipefail
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build"
go build -o "$root/.bench_build/djinn-bench" ./bench
exec "$root/.bench_build/djinn-bench" "$@"
