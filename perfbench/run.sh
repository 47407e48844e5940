#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload amazon --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the stamp log and traced-run spans
# all live under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/core ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, internal/core and perfbench/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
# Flush the build's writes so their writeback does not compete with the
# measurement.
sync
exec "$out/perfbench" "$@"
