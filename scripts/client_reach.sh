#!/usr/bin/env bash
# Client reach: the engine's language layers (internal/sql, internal/exec,
# internal/record) exist for the packages that issue SQL — the root facade,
# cmd/..., internal/{core,sweep,fem,oracle,labels,shard,bench} and the
# benchmark/ module — and carry nothing those packages' tests do not reach.
# This runs them with -coverpkg on the three layers and fails if any
# function there is reached by none of them, so the dialect cannot quietly
# regrow. Functions with an empty body (the AST marker methods, no-op Close)
# have no statement to reach and are exempt.
#
# usage: scripts/client_reach.sh [dir for the coverage profiles]
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-$(mktemp -d)}
mkdir -p "$out"
layers=repro/internal/sql,repro/internal/exec,repro/internal/record

go test -coverpkg=$layers -coverprofile="$out/root.cov" . ./cmd/... \
	./internal/core ./internal/sweep ./internal/fem ./internal/oracle \
	./internal/labels ./internal/shard ./internal/bench >/dev/null
go -C benchmark test -coverpkg=$layers -coverprofile="$out/benchmark.cov" ./... >/dev/null
{ echo "mode: set"; grep -hv '^mode:' "$out/root.cov" "$out/benchmark.cov"; } >"$out/all.cov"

go tool cover -func="$out/all.cov" | tee "$out/func.txt" | tail -1
unreached=$(awk '$NF == "0.0%" && $1 != "total:" { split($1, at, ":"); print at[1] ":" at[2], $2 }' "$out/func.txt" |
	while read -r at name; do
		file=${at%%:*} line=${at##*:}
		sed -n "${line}p" "${file#repro/}" | grep -q '{}[[:space:]]*$' || echo "$at $name"
	done)
if [ -n "$unreached" ]; then
	echo "functions no client package reaches:"
	echo "$unreached"
	exit 1
fi
echo "client reach: every function of internal/sql, internal/exec and internal/record is reached"
