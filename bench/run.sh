#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root and runs it
# from there. Everything the Go toolchain writes (build cache, temp files,
# module cache, its telemetry counters under XDG_CONFIG_HOME) is pointed
# inside .bench_build/ too, so a run reads and writes only inside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
b=$PWD/.bench_build
mkdir -p "$b/gocache" "$b/gotmp"
GOCACHE=$b/gocache GOTMPDIR=$b/gotmp GOPATH=$b/gopath XDG_CONFIG_HOME=$b/config GOTOOLCHAIN=local \
	go build -C bench -o "$b/bench" .
exec "$b/bench" "$@"
