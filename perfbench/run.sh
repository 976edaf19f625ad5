#!/bin/sh
# Build the benchmark from this checkout's sources and run it:
#   sh perfbench/run.sh --workload compile|serve --seed N --seconds S --trace 0|1
# Run from the root of the checkout.  Build output goes to stderr, so the
# last line of stdout is the result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f BENCHMARK.json ]; then
  echo "perfbench: run from the root of a checkout holding dune-project, lib/ and BENCHMARK.json" >&2
  exit 2
fi
# No shared build cache and no system temp dir: the build reads and
# writes only this checkout.
export DUNE_CACHE=disabled
mkdir -p .bench_build/tmp
TMPDIR="$PWD/.bench_build/tmp"
export TMPDIR
dune build --root . --build-dir .bench_build ./perfbench/perfbench.exe 1>&2
exec ./.bench_build/default/perfbench/perfbench.exe "$@"
