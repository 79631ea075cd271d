#!/usr/bin/env bash
# Builds the waybench command from this checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash waybench/run.sh --workload sim-walker --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/waybench" && go build -o "$out/waybench" .)
exec "$out/waybench" "$@"
