#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout, then runs it
# with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload pivot-link --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every other file the toolchain
# writes stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero without a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp" "$out/config"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off \
	GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
