#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload games --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout, and
# the toolchain never reaches for the network: the benchmark depends on the
# standard library and this repository alone.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
