#!/usr/bin/env bash
# Regenerate every table/figure and experiment output into results/.
# Usage: scripts/reproduce_all.sh [--full]   (--full adds f = 50 runs)
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

FULL="${1:-}"

# One `repro` subcommand per output file.
repro() {
  cargo run --release -q -p fieldrep-bench --bin repro -- "$@"
}

echo "== analytical figures =="
repro fig11 > results/fig11.txt
repro fig12 > results/fig12.txt
repro fig13 > results/fig13.txt
repro fig14 > results/fig14.txt
repro costs 20 0.002 > results/costs.txt

echo "== empirical validation =="
if [ "$FULL" = "--full" ]; then
  repro empirical --full > results/empirical.txt
else
  repro empirical > results/empirical.txt
fi

echo "== measured curves and traces =="
repro empirical_curves --s 2000 > results/empirical_curves.txt
repro trace > results/trace_run.txt
repro tuning > results/tuning.txt

echo "== ablations =="
repro ablations > results/ablations.txt
repro pathindex_ablation > results/pathindex_ablation.txt
repro org_analytics > results/org_analytics.txt

echo "done — see results/"
