#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#
#   bash perfbench/run.sh --workload thermal-box|srs-2r4b|campaign-grid \
#     --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the result stays the last line of
# stdout.  The dune cache is off: the build writes only to _build/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no dune-project or lib/ here; run from a repository checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
# One malloc arena: each repetition's rank and worker domains are fresh
# threads, and with glibc's per-thread arenas the particle stores freed
# in one repetition can be stranded where the next cannot reuse them,
# which moves peak RSS by 20-40 MiB from run to run.
MALLOC_ARENA_MAX=1 exec ./_build/default/perfbench/main.exe "$@"
