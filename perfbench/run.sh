#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-check
# Run from the repository root.  Build output goes to _build/; the
# traced run writes its span log under .perfbench_out/.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib/sim || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of a LIPSIN checkout (dune-project, lib/ and perfbench/ must exist)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
