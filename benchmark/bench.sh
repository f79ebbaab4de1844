#!/bin/sh
# The command BENCHMARK.json names: `go run ./benchmark` with the Go build
# cache and temporary files kept inside the checkout (.bench_build/), so a
# run reads and writes nothing outside it. Arguments pass through.
set -eu
mkdir -p .bench_build/go-cache .bench_build/tmp
GOCACHE="$PWD/.bench_build/go-cache" GOTMPDIR="$PWD/.bench_build/tmp" exec go run ./benchmark "$@"
