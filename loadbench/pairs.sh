#!/usr/bin/env bash
# Paired parent/change comparison (README.md, "Paired comparison").
#
#   bash loadbench/pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT OUT_DIR [PAIRS]
#
# Runs PAIRS (default 10) pairs of every workload, alternating which side
# goes first, pair k on seed 1000+k for both sides, one run at a time; then
# prints compare.exe's verdicts. Results land in OUT_DIR/parent and
# OUT_DIR/change as <workload>-<k>.json. WORKLOADS overrides the list.
set -euo pipefail
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$3
pairs=${4:-10}
workloads=${WORKLOADS:-table4-fig9 fastdisk-batched shard-readmostly faults}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$change/BENCHMARK.json")
mkdir -p "$out/parent" "$out/change"
out=$(cd "$out" && pwd)

run() { # side checkout workload pair
  (cd "$2" && bash loadbench/run.sh --workload "$3" --seed $((1000 + $4)) \
    --seconds "$seconds" --trace 0) >"$out/$1/$3-$4.json" ||
    echo "$1 $3 pair $4 exited non-zero; see $out/$1/$3-$4.json" >&2
}

for w in $workloads; do
  for k in $(seq 0 $((pairs - 1))); do
    if ((k % 2 == 0)); then
      run parent "$parent" "$w" "$k"
      run change "$change" "$w" "$k"
    else
      run change "$change" "$w" "$k"
      run parent "$parent" "$w" "$k"
    fi
  done
done
(cd "$change" && dune build --root . --build-dir .bench_build --cache disabled --display quiet \
  ./loadbench/compare.exe >&2)
"$change/.bench_build/default/loadbench/compare.exe" "$change/BENCHMARK.json" "$out/parent" "$out/change"
