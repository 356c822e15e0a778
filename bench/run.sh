#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it there.
#
#   bash bench/run.sh --workload fig7_lu64 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, the binary, and the traced
# pass's profiles and spans all stay under .bench_build/ in that directory;
# the build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C bench build -o "$out/ibmig-bench" .
exec "$out/ibmig-bench" "$@"
