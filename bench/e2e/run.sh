#!/bin/sh
# Build the end-to-end benchmark and the daemon it drives from source,
# then run the benchmark. Arguments pass through to e2e.exe, e.g.
#   bash bench/e2e/run.sh --workload eval --seed 1 --seconds 20 --trace 0
#   bash bench/e2e/run.sh series --runs 5 --out a.json --out b.json
# (bench/e2e/README.md describes the rest).
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "e2e: $root is not a checkout of the repository (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
# the build stays inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/e2e.exe ./bin/flexvec_cli.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@" --server ./_build/default/bin/flexvec_cli.exe
