#!/usr/bin/env bash
# prodlines.sh — production line counts of the repository.
#
# Counts the lines of every non-test .go file, per top-level directory and
# in total. The benchmark module (_perfbench/), test fixtures (testdata/)
# and the benchmark's build cache (.bench_build/) are left out, so the
# total is the code the solver and its tools ship. Run from anywhere:
#   ./scripts/prodlines.sh
set -euo pipefail

cd "$(dirname "$0")/.."
find . \( -name _perfbench -o -name testdata -o -name .bench_build -o -name .git \) -prune -o \
	-type f -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		path = substr($2, 3)
		dir = index(path, "/") ? substr(path, 1, index(path, "/") - 1) : "."
		lines[dir] += $1
	}
	END { for (d in lines) printf "%s %d\n", d, lines[d] }' |
	sort |
	awk '{ printf "%7d %s\n", $2, $1; total += $2 } END { printf "%7d total\n", total }'
