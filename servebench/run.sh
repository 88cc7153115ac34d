#!/usr/bin/env bash
# Builds nocap-serve and the benchmark from the tree it is run in, then
# runs the benchmark. Run from the repository root:
#
#   bash servebench/run.sh --workload paper-circuits --seed 1 --seconds 30 --trace 0
#
# Everything built or written goes under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/nocap-serve || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the repository root (needs go.mod, cmd/nocap-serve and servebench/)" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/nocap-serve" ./cmd/nocap-serve
go -C servebench build -o "$out/bin/servebench" .
exec "$out/bin/servebench" -root "$root" -bin "$out/bin" -work "$out" "$@"
