#!/usr/bin/env bash
# Inline check: the B+tree's per-slot kernels make no call per slot. The
# slot loop (match) must have the cell lookup (entrySpan) and the pred
# compare (record.Pred.Holds) inlined into it, and the leaf key compare
# (bound, the binary search and end walk of every probe) the cell lookup
# and the key compare (cmp). This builds internal/btree with -gcflags=-m
# and fails unless the compiler reports each of those calls inlined inside
# the function's lines. An edit that pushes a callee over the inliner's
# budget turns a compare back into a call per row, and nothing else would
# say so.
#
# usage: scripts/inline_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
file=internal/btree/btree.go
out=$(go build -gcflags=-m ./internal/btree 2>&1)

status=0
# want FUNC CALLEE: CALLEE is inlined at a call site inside func FUNC.
want() {
	local span
	span=$(awk -v fn="$1" '
		!start && $0 ~ "^func (\\([^)]*\\) )?" fn "\\(" { start = NR }
		start && /^}/ { print start, NR; exit }' "$file")
	if [ -z "$span" ]; then
		echo "inline_check: no func $1 in $file" >&2
		status=1
		return
	fi
	read -r from to <<<"$span"
	if ! awk -F: -v f="$file" -v from="$from" -v to="$to" -v callee="$2" '
		$1 == f && $2 >= from && $2 <= to && $0 ~ ": inlining call to " callee "$" { found = 1 }
		END { exit !found }' <<<"$out"; then
		echo "inline_check: $2 is not inlined into $1 ($file:$from-$to)" >&2
		status=1
	fi
}

want match entrySpan
want match 'record\.Pred\.Holds'
want bound entrySpan
want bound cmp
[ "$status" -eq 0 ] && echo "inline_check: match and bound make no call per slot"
exit "$status"
