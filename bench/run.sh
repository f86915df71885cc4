#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash bench/run.sh --workload static --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, Go's build cache, its temporary
# files) stays under .bench_build in the checkout, so a run touches nothing
# outside it. The first build in a checkout compiles the standard library too
# (about a minute on two cores); later ones only check that nothing changed.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
cd bench
exec "$build/bench" "$@"
