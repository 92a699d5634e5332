#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one workload:
#
#   bash _perfbench/run.sh --workload map|sweep|serve --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Every file the Go toolchain writes
# (build cache, binary, span files) stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/_perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
