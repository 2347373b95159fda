#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Keeps everything the Go toolchain
# writes (build cache, temporary files) inside the checkout, under
# .bench_build/, then builds and runs the bench program with the arguments
# given. Run from the repository root: bash bench/run.sh --workload engine_serial
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
cd "$here"
exec go run . "$@"
