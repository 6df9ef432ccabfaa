#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in and
# runs one workload. Start it from the repository root:
#
#   bash perfbench/run.sh --workload hub-sat-64 --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache and the CPU profiles go under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: start from the repository root; no distauction module here" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	PPROF_TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
