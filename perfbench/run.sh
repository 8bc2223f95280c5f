#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it:
#
#   bash perfbench/run.sh --workload replay-ddos --seed 1 --seconds 10 --trace 0
#
# Every build and cache file stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: $root is not a stat4 checkout (go.mod or internal/ missing)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/perfbench" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -C perfbench -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" "$@"
