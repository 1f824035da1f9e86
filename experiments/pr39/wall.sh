#!/usr/bin/env bash
# Job wall of `casmrun -sort twopass` vs `-sort combined`, six alternating
# runs per query, with a casmrun built at a commit that still has -sort.
# Usage: wall.sh CASMRUN STORE TMP > wall-at-parent.txt
# STORE holds d.casm: casmgen -n 1000000 -block 1048576 -store STORE -o d.casm
# (13 blocks). Each line: query, mode, run, job wall in seconds.
set -euo pipefail
run=${1:?usage: wall.sh CASMRUN STORE TMP}
store=${2:?usage: wall.sh CASMRUN STORE TMP}
tmp=${3:?usage: wall.sh CASMRUN STORE TMP}
for q in q6 q5 q1; do
  for k in 1 2 3 4 5 6; do
    if [ $((k % 2)) -eq 1 ]; then order="twopass combined"; else order="combined twopass"; fi
    for m in $order; do
      w=$("$run" -store "$store" -data d.casm -query $q -reducers 8 -sort $m -tmp "$tmp" | sed -n 's/.*(wall \([0-9.]*\)s real).*/\1/p')
      echo "$q $m $k $w"
    done
  done
done
