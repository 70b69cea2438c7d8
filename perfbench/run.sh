#!/usr/bin/env bash
# Builds incdbd and the perfbench binary from the checkout this is run in
# (its root must be the working directory), then runs perfbench with the
# given arguments:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/incdbd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an incdb checkout (go.mod, cmd/incdbd and perfbench/ needed)" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps its telemetry counters
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -o "$out/incdbd" ./cmd/incdbd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -incdbd "$out/incdbd" -work "$out/runs" "$@"
