#!/usr/bin/env sh
# Counts code lines — lines that are neither blank nor a // comment — in the
# files directly under each directory given, and their sum. Run it from the
# root of the tree to count, e.g. on two checkouts to compare them:
#   scripts/code_lines.sh src/onex/engine src/onex/net
set -eu
total=0
for dir in "$@"; do
  n=$(cat "$dir"/*.h "$dir"/*.cc | grep -v '^[[:space:]]*$' |
    grep -cv '^[[:space:]]*//')
  echo "$n $dir"
  total=$((total + n))
done
echo "$total total"
