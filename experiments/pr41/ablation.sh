#!/usr/bin/env bash
# Ablation triples: parent, ownership skip only, skip plus group table.
# Usage: triples.sh ROOT FIRST_SEED N. ROOT holds three checkouts,
# ROOT/{parent,skip,full}; results append to ROOT/{parent,skip,full}.jsonl.
# The order within a triple rotates, so each variant runs first, second
# and third equally often.
set -u
root=${1:?usage: triples.sh ROOT FIRST_SEED N}; base=${2:?}; n=${3:?}
run() { # side seed
  (cd "$root/$1" && bash benchmark/run.sh --workload reduce_fineout --seed "$2" --seconds 20 --trace 0 \
    --out "$root/$1.jsonl" >/dev/null 2>&1)
}
for v in parent skip full; do (cd "$root/$v" && bash benchmark/run.sh -quick >/dev/null 2>&1) || echo "quick check failed: $v"; done
sides=(parent skip full)
for i in $(seq 0 $((n - 1))); do
  s=$((base + i))
  for j in 0 1 2; do run "${sides[$(((i + j) % 3))]}" "$s"; done
done
