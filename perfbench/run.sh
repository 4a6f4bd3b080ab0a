#!/usr/bin/env bash
# Build the defcheck service and the benchmark from this tree, then run
# one benchmark run:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; stdout carries only the benchmark's report
# and its final JSON line.  Exits 2 outside a full checkout.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a checkout of the repository (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
dune build --root . bin/definability_cli.exe perfbench/main.exe 1>&2 || {
  echo "perfbench: build failed" >&2
  exit 2
}
exec ./_build/default/perfbench/main.exe "$@"
