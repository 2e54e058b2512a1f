#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash perfbench/run.sh --workload query_read --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and run data stay under .bench_build.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
