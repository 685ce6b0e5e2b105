#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload alloc-steady --seed 1 --seconds 10 --trace 0
#
# The build output, the Go build cache and the benchmark's scratch files
# (WAL directories, span dumps) all live under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --tmpdir "$build/tmp" "$@"
