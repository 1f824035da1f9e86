#!/usr/bin/env bash
# Alternating parent/change runs of the wall-clock benchmark. Each workload
# gets PAIRS pairs on its own seeds (reduce_fineout 4401-, scan_earlyagg
# 4421-, window_stream 4441-, serve_mixed 4461-); the side that runs first
# alternates pair by pair.
# Usage: pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT PAIRS [WORKLOAD...]
# (default: all four workloads). Appends to parent.jsonl and change.jsonl
# in the current directory; compare them with
# go run ./benchmark -compare parent.jsonl change.jsonl
set -euo pipefail
usage="usage: pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT PAIRS [WORKLOAD...]"
parent=${1:?$usage}
change=${2:?$usage}
pairs=${3:?$usage}
shift 3
workloads=${*:-reduce_fineout scan_earlyagg window_stream serve_mixed}
out=$(pwd)
for w in $workloads; do
  case $w in
    reduce_fineout) base=4401 ;;
    scan_earlyagg) base=4421 ;;
    window_stream) base=4441 ;;
    serve_mixed) base=4461 ;;
    *) echo "unknown workload $w" >&2; exit 2 ;;
  esac
  for ((k = 0; k < pairs; k++)); do
    seed=$((base + k))
    if [ $((k % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
      bash "$dir/benchmark/run.sh" -workload "$w" -seed "$seed" -seconds 20 -trace 0 -out "$out/$side.jsonl" >/dev/null
    done
  done
done
