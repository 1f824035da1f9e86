#!/usr/bin/env bash
# Alternating parent/change pairs of the workloads the change is not to
# move, 20 s windows, the side that runs first alternating.
# Usage: [SPECS="workload:first_seed:pairs ..."] others.sh ROOT. ROOT holds
# ROOT/parent and ROOT/change; results append to
# ROOT/{parent,change}-others.jsonl. Run first with the default SPECS, then
# with SPECS=scan_earlyagg:4323:4.
set -u
root=${1:?usage: others.sh ROOT}
run() { # side workload seed
  (cd "$root/$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds 20 --trace 0 \
    --out "$root/$1-others.jsonl" >/dev/null 2>&1)
}
for spec in ${SPECS:-scan_earlyagg:4321:2 window_stream:4341:2 serve_mixed:4361:2}; do
  w=${spec%%:*}; rest=${spec#*:}; base=${rest%%:*}; n=${rest##*:}
  for i in $(seq 0 $((n - 1))); do
    s=$((base + i))
    if [ $((i % 2)) -eq 0 ]; then run parent "$w" "$s"; run change "$w" "$s"
    else run change "$w" "$s"; run parent "$w" "$s"; fi
  done
done
