#!/usr/bin/env bash
# Alternating parent/change pairs of every workload, 20 s windows, ten
# pairs each, the side that runs first alternating (parent on even pair
# indices). Usage: pairs.sh ROOT
# ROOT holds two checkouts, ROOT/parent and ROOT/change; results append to
# ROOT/{parent,change}.jsonl. Seeds: window_stream 4501-4510,
# scan_earlyagg 4521-, reduce_fineout 4541-, serve_mixed 4561-. Rounds 1
# (4301-) and 2 (4401-) ran the same loop over earlier versions of the
# change (round1-*.jsonl, round2-*.jsonl; EXPERIMENTS.md says which).
set -u
root=${1:?usage: pairs.sh ROOT}
run() { # side workload seed
  (cd "$root/$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds 20 --trace 0 \
    --out "$root/$1.jsonl" >/dev/null 2>&1)
}
for spec in window_stream:4501 scan_earlyagg:4521 reduce_fineout:4541 serve_mixed:4561; do
  w=${spec%%:*}; base=${spec##*:}
  for i in $(seq 0 9); do
    s=$((base + i))
    if [ $((i % 2)) -eq 0 ]; then run parent "$w" "$s"; run change "$w" "$s"
    else run change "$w" "$s"; run parent "$w" "$s"; fi
  done
done
