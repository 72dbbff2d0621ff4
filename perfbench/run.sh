#!/usr/bin/env bash
# Builds the benchmark and the dstressd daemon from this checkout's sources
# into .bench_build/perfbench, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload search-data64 --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/dstressd" dstress/cmd/dstressd)
exec "$out/perfbench" -root "$root" -daemon "$out/dstressd" "$@"
