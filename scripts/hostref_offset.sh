#!/usr/bin/env bash
# hostref_offset.sh — where the benchmark's host-speed kernel lands.
#
# _perfbench scales every timed metric by the speed of a reference kernel,
# main.(*hostRef).sample, and that kernel runs about 25% faster when it
# starts on a 64-byte boundary than at offset 32 (EXPERIMENTS.md §P8). Its
# address depends only on how much code links before it, so a timed A/B of
# two commits compares like with like only when both print the same offset.
#
# Builds _perfbench with the environment of _perfbench/run.sh (build cache
# under .bench_build/, no module proxy, local toolchain) into a temporary
# directory and prints the kernel's address and its offset mod 64. Exits
# non-zero only when the build fails. Run from the repository root:
#   ./scripts/hostref_offset.sh
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off

workdir=$(mktemp -d "$build/tmp/hostref.XXXXXX")
trap 'rm -rf "$workdir"' EXIT

(cd "$root/_perfbench" && go build -o "$workdir/perfbench" .)

go tool nm "$workdir/perfbench" >"$workdir/nm"
addr=$(awk '$3 == "main.(*hostRef).sample" { print $1; exit }' "$workdir/nm")
if [ -z "$addr" ]; then
	echo "main.(*hostRef).sample: not found in the benchmark binary"
	exit 0
fi
echo "main.(*hostRef).sample at 0x$addr, offset $((16#$addr % 64)) mod 64"
