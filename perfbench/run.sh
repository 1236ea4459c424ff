#!/usr/bin/env bash
# Build the benchmark and the resopt CLI from source, then run one
# workload.  Usage, from the root of the repository:
#   bash perfbench/run.sh --workload sweep|solve|serve --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/main.exe bin/resopt_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe --data-dir perfbench \
  --server-exe ./_build/default/bin/resopt_cli.exe "$@"
