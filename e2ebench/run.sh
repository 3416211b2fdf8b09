#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# arguments given, from the root of a checkout:
#
#   bash e2ebench/run.sh --workload batch-r1-vertica --seed 1 --seconds 30 --trace 0
#
# Every Go cache lives under .bench_build/, so nothing is read from or written
# to the user's Go environment beyond the toolchain itself.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
