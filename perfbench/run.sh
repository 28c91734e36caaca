#!/usr/bin/env bash
# Builds the udwn benchmark from the sources of the checkout it runs in and
# executes it with the given arguments (see README.md). Run from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload local-dense --seed 1 --seconds 25 --trace 0
#
# Every build artefact, the Go build cache and the benchmark's scratch files
# stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build" "$@"
