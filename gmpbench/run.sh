#!/usr/bin/env bash
# Builds the benchmark program and gmpd from source, then runs the
# benchmark. Run from the repository root:
#
#   bash gmpbench/run.sh --workload fig4-gmp --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, Go build cache, temporary files)
# stays under .bench_build in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gmpd || ! -f gmpbench/go.mod || ! -f BENCHMARK.json ]]; then
	echo "gmpbench: run from the root of a gmp checkout" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/gmpd" ./cmd/gmpd
(cd gmpbench && go build -o "$out/gmpbench" .)
exec "$out/gmpbench" --gmpd "$out/gmpd" "$@"
