#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given arguments. Everything the build and the run write — Go's build
# cache and temporary files, the binary, the traces — stays under
# .bench_build/ in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$(dirname "$0")" -o "$build/bracebench" .
exec "$build/bracebench" "$@"
