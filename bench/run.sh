#!/usr/bin/env bash
# Builds satcell's benchmark from the sources of the checkout it runs
# in, then runs it with the given flags. Run it from the repository
# root:
#
#   bash bench/run.sh -workload campaign -seed 1 -seconds 20 -trace 0
#
# The binary, the Go build cache and the benchmark's run directories
# all go to .bench_build/ under the working directory. Outside a full
# checkout (no go.mod above bench/) the build fails and so does this
# script, before any result is printed.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/satcell-bench" .
exec "$out/satcell-bench" "$@"
