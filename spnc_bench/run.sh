#!/usr/bin/env bash
# Build spnc_bench and the server it drives, then run it with the given
# arguments, from the root of the source tree:
#
#   bash spnc_bench/run.sh --workload speaker-batch --seed 1 --seconds 20 --trace 0
#
# The dune cache is off and the compilers' temporary files go to
# _spnc_bench_out/, so that nothing is written outside the tree.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export TMPDIR="$PWD/_spnc_bench_out/build-tmp"
mkdir -p "$TMPDIR"
dune build --root . --cache=disabled --display=quiet \
  spnc_bench/spnc_bench.exe bin/spnc_serve.exe >&2
exec ./_build/default/spnc_bench/spnc_bench.exe "$@"
