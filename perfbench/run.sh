#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload zipf-prompt --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "perfbench: no go.mod here; run from the root of a full checkout" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
	go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
