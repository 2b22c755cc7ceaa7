#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the build and the run write stays
# under the build directory ($CARGO_TARGET_DIR when set, else .bench_build):
# the Go build and module caches, the binary, the serve stores and the span
# files. The benchmark is its own module (perfbench/go.mod) that replaces the
# program module with the parent directory, so outside a full checkout the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/out" "$@"
