#!/usr/bin/env bash
# statsim's benchmark entry point (see perfbench/README.md).
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a statsim checkout: builds the benchmark from
# source with dune, then runs one workload. The last line of stdout is
# the JSON result. Everything it writes stays inside the checkout
# (_build/ and .perfbench/).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a statsim checkout (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found" >&2
  exit 2
fi

# keep dune's shared cache out of it: build products stay in _build/
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
