#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark and the spdbd server
# it drives from the checkout's sources, then runs the benchmark with the
# caller's arguments. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload hot_bsdj --seed 42 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, temp databases, traces)
# stays inside the checkout: .bench_build/ and benchmark/out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off

# The benchmark is a module of its own that builds against the checkout
# around it; without that checkout there is nothing to measure.
[ -f "$root/go.mod" ] || { echo "run.sh: no go.mod in $root: run from the root of a repro checkout" >&2; exit 2; }

mkdir -p "$build/bin"
(cd "$root/benchmark" &&
	go build -o "$build/bin/spbench" . &&
	go build -o "$build/bin/spdbd" repro/cmd/spdbd) >&2

exec "$build/bin/spbench" -spdbd "$build/bin/spdbd" -workdir "$root/benchmark/out" "$@"
