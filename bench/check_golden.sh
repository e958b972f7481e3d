#!/usr/bin/env bash
# Runs every DES figure bench that has a file in bench/golden/ and
# compares its stdout with that file byte for byte.  The DES plane runs on
# simulated time and prints no wall-clock figure, so a bench's output is
# a function of the code alone: a differing digit means a change moved a
# figure.
#
#   bench/check_golden.sh [build-dir]     # default build-dir: build
#
# To re-record after an intended change of a figure:
#   ./build/bench/<bench> > bench/golden/<bench>.txt
set -uo pipefail

build=${1:-build}
golden=$(dirname "$0")/golden
status=0
count=0
for file in "$golden"/*.txt; do
  bench=$(basename "$file" .txt)
  count=$((count + 1))
  if ! "$build/bench/$bench" | diff -u "$file" -; then
    echo "check_golden: $bench differs from $file" >&2
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "check_golden: OK ($count benches match)"
fi
exit "$status"
