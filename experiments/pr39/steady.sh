#!/usr/bin/env bash
# Alternating parent/change runs of one workload, 20 s each, with the time
# of a fixed single-core Python loop (3 M multiply-adds) taken before each
# run, to show how fast the machine itself is running at that moment.
# Usage: steady.sh ROOT WORKLOAD PAIRS SEEDBASE
# ROOT holds two checkouts, ROOT/parent and ROOT/change. Appends to
# ROOT/{parent,change}-WORKLOAD.jsonl and ROOT/spin-WORKLOAD.txt
# (lines: pair, side, spin_ms, milliseconds).
set -u
root=${1:?usage: steady.sh ROOT WORKLOAD PAIRS SEEDBASE}
w=${2:?}; n=${3:?}; base=${4:?}
spin() {
  python3 -c 'import time
t=time.perf_counter(); x=0
for i in range(3_000_000): x+=i*i
print(round((time.perf_counter()-t)*1000,1))'
}
for i in $(seq 1 "$n"); do
  s=$((base+i))
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    echo "$i $side spin_ms $(spin)" >> "$root/spin-$w.txt"
    (cd "$root/$side" && bash benchmark/run.sh --workload "$w" --seed "$s" --seconds 20 --trace 0 --out "$root/$side-$w.jsonl" >/dev/null 2>&1)
  done
done
