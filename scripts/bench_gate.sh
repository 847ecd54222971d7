#!/usr/bin/env bash
# Page-count regression gate: run the full bench_suite matrix on the
# working tree (~2 s; every field is a deterministic count) and diff it
# against the committed BENCH_BASELINE.json. Fails on a point whose
# measured page I/O or disk read calls rose more than 10%, on model
# drift beyond ±60%, or on a point that vanished; improvements pass.
# When a change moves the counts on purpose, re-record the baseline:
#   cargo run --release -p fieldrep-bench --bin bench_suite
# Run from anywhere: ./scripts/bench_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run --release -q -p fieldrep-bench --bin bench_suite -- --gate
