#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it.
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
# a non-login shell may lack the OCaml toolchain on PATH
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# keep every build artifact inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
