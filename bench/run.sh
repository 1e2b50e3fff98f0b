#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (build cache included,
# so nothing is written outside the checkout) and runs it with the driver's
# arguments. Run from the root of a checkout: bash bench/run.sh --workload ...
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
