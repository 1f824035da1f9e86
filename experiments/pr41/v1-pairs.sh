#!/usr/bin/env bash
# Alternating parent/change pairs, 20 s windows, the side that runs first
# alternating (parent on even pair indices). Usage: v1-pairs.sh ROOT
# ROOT holds two checkouts, ROOT/parent and ROOT/change (an earlier version
# of the change: a comparison sort under 64 groups, integer ownership);
# results append to ROOT/{parent,change}.jsonl. Seeds: reduce_fineout 4101-4110 (ten pairs,
# the claim), then two pairs each of scan_earlyagg 4121-, window_stream
# 4141- and serve_mixed 4161- (none used in development).
set -u
root=${1:?usage: v1-pairs.sh ROOT}
run() { # side workload seed
  (cd "$root/$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds 20 --trace 0 \
    --out "$root/$1.jsonl" >/dev/null 2>&1)
}
for spec in reduce_fineout:4101:10 scan_earlyagg:4121:2 window_stream:4141:2 serve_mixed:4161:2; do
  w=${spec%%:*}; rest=${spec#*:}; base=${rest%%:*}; n=${rest##*:}
  for i in $(seq 0 $((n - 1))); do
    s=$((base + i))
    if [ $((i % 2)) -eq 0 ]; then run parent "$w" "$s"; run change "$w" "$s"
    else run change "$w" "$s"; run parent "$w" "$s"; fi
  done
done
