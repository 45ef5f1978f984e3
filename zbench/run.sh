#!/usr/bin/env bash
# Builds zbench from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash zbench/run.sh --workload paper-long --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary,
# traced runs' span files) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/zbench" && go build -o "$out/zbench" .)
cd "$root"
exec "$out/zbench" "$@"
