#!/bin/sh
# Build the server and the benchmark from this checkout's sources, then
# run the benchmark with the given arguments (xqbench/README.md):
#
#   sh xqbench/run.sh --workload xmark-read --seed 1 --seconds 28 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result. Fails (non-zero, no result) when the sources
# to build are not there.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . bin/xqbang.exe xqbench/xqbench.exe 1>&2
exec ./_build/default/xqbench/xqbench.exe --server ./_build/default/bin/xqbang.exe "$@"
