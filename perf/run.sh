#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to perf.exe
# (see perf/README.md).  Run from the repository root:
#
#   bash perf/run.sh --workload bucket-k1024 --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "perf/run.sh: no dune-project next to perf/; run it from a full checkout" >&2
  exit 2
fi
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perf/perf.exe 1>&2
exec ./_build/default/perf/perf.exe "$@"
