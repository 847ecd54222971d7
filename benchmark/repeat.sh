#!/usr/bin/env bash
# Run N full sets of the same build, each with another seed, and gather
# them into one file for compare.py.
#
#   benchmark/repeat.sh N [--seconds S] [--scale X]   ->  benchmark/out/repeat.json
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
n="${1:?usage: repeat.sh N [--seconds S] [--scale X]}"
shift
out="$here/out"
mkdir -p "$out"
{
  echo '{"sets": ['
  for i in $(seq 1 "$n"); do
    "$here/run.sh" --seed "$i" "$@" 1>&2
    [ "$i" -gt 1 ] && echo ','
    cat "$out/result.json"
  done
  echo ']}'
} > "$out/repeat.tmp"
mv "$out/repeat.tmp" "$out/repeat.json"
echo "wrote $out/repeat.json" 1>&2
