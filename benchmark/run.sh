#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the current checkout and
# runs it from the checkout root with the given arguments. The Go build
# cache and GOPATH live there too, so nothing is read or written outside
# the checkout and nothing is fetched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
