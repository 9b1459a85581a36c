#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root, e.g.
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 30 --trace 0
#
# The build cache and binary go to .bench_build in the repository root,
# so the run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of an anomalyx checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
