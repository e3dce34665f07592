#!/usr/bin/env bash
# Builds the smaperf benchmark from source and runs one workload.
#
#   bash smaperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, data directories, span dumps) goes to
# .bench_build/ in the repository root.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain local and its caches inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/smaperf" build -o "$out/smaperf" .
cd "$root"
exec "$out/smaperf" "$@"
