#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the caller's arguments.
# Everything the build writes — the binary and Go's build cache — stays in
# .bench_build/ at the root of the checkout. In a directory without the
# program's sources the build fails and this script exits non-zero.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -C "$bench" -o "$build/bench" .
exec "$build/bench" "$@"
