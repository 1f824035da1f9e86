#!/usr/bin/env bash
# Checks, at a commit that still has core.CombinedKeySort, that every
# combined-key run that did not spill prices exactly as the two-pass run
# of the same query with its value bytes shipped twice and no in-group
# sort. Usage: combinedkey.sh CHECKOUT > combinedkey-at-parent.txt
# CHECKOUT is a clean checkout of such a commit (git archive or clone);
# counters.patch (two observed mr counters) and the test file are put
# into it and taken out again.
set -euo pipefail
dir=${1:?usage: combinedkey.sh CHECKOUT}
here=$(cd "$(dirname "$0")" && pwd)
dst="$dir/internal/figures/combinedkey_test.go"
cd "$dir"
git apply "$here/counters.patch"
cp "$here/combinedkey_test.go.txt" "$dst"
trap 'rm -f "$dst"; git apply -R "$here/counters.patch"' EXIT
go test -count=1 -v -timeout 30m -run '^TestCombinedKeyTable$' ./internal/figures | grep -v -e '^ok' -e '^PASS' -e '^=== RUN' -e '^--- PASS'
