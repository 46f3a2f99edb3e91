#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the bench program from source
# and runs it. Everything the Go toolchain writes (build cache, work dirs,
# telemetry) is kept under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -C "$here" -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
