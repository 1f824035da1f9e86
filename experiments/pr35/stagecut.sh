#!/usr/bin/env bash
# Checks, at a commit that still has core.Config.Stage, that every
# stage-stopped run prices exactly as the full run's counters cut at that
# stage. Usage: stagecut.sh CHECKOUT > table.txt
# CHECKOUT is a clean checkout of such a commit (git archive or clone);
# the test file is copied into it and removed again.
set -euo pipefail
dir=${1:?usage: stagecut.sh CHECKOUT}
here=$(cd "$(dirname "$0")" && pwd)
dst="$dir/internal/figures/stagecut_test.go"
cp "$here/stagecut_test.go.txt" "$dst"
trap 'rm -f "$dst"' EXIT
cd "$dir"
go test -count=1 -v -run '^TestStageCutTable$' ./internal/figures | grep -v -e '^ok' -e '^PASS' -e '^=== RUN' -e '^--- PASS'
