#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments. The Go build cache, the binary and every temp
# file (stores, spill runs) stay under .bench_build in the checkout, so a
# run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local TMPDIR="$build/tmp"
go build -o "$build/casm-benchmark" ./benchmark
exec "$build/casm-benchmark" "$@"
