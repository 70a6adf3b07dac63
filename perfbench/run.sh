#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   sh perfbench/run.sh --workload static|carrefour|churn --seed N \
#     --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -e
cd "$(dirname "$0")/.."
# The shared dune cache lives outside the tree; keep the build inside it.
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
