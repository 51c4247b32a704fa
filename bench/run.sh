#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. The Go build
# cache and temp files stay inside the checkout (.bench_build/), so a fresh
# checkout's first run compiles everything and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/ldms-bench" .
cd "$root"
exec "$build/ldms-bench" "$@"
