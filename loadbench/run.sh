#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash loadbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. The build goes to .bench_build/ (dune's
# shared cache is off, so nothing is written outside the checkout); build
# output goes to stderr, so the last line of stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --build-dir .bench_build --cache disabled --display quiet \
  ./loadbench/workloads.exe >&2
exec ./.bench_build/default/loadbench/workloads.exe "$@"
