#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes — the
# Go build cache, the binary, the data directories of a run — stays under
# .bench_build/ in the checkout this script sits in.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/storebench" .
cd "$root"
exec "$build/storebench" -dir "$build/data" "$@"
