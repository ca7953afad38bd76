#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root. All build
# output, Go's caches included, stays inside the checkout under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$out/sflow-benchmark" .
exec "$out/sflow-benchmark" -root "$root" "$@"
