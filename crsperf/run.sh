#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root with the benchmark's flags, e.g.
#   bash crsperf/run.sh --workload wire-durable --seed 1 --seconds 20 --trace 0
# Everything the build and the run write goes under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C crsperf build -o "$out/crsperf" .
exec "$out/crsperf" --work "$out" "$@"
