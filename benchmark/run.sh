#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout
# root with the given arguments. This is the command BENCHMARK.json names:
#
#   bash benchmark/run.sh --workload replay-day --seed 2006 --seconds 32 --trace 0
#   bash benchmark/run.sh -seed 2006        # every workload, layers, traced runs
#   bash benchmark/run.sh -aa               # measure twice, compare against the bounds
#
# Everything the toolchain writes (binary, build cache, temporary files,
# its own usage counters) goes under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
(cd "$root/benchmark" &&
  GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
    go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
