#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; the arguments are passed on, e.g.
#
#   bash perfbench/run.sh --workload paper-crawl --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, the disk store and the span dumps all go
# under $CARGO_TARGET_DIR (default .bench_build) in the repository root.
set -euo pipefail

root=$(pwd)
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) build=$CARGO_TARGET_DIR ;; esac
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$build/perfbench-data" "$@"
