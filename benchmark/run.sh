#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--scale X]
#       one run of one workload; every metric by name, then the result
#       object as the last line (this is what BENCHMARK.json's driver calls)
#   benchmark/run.sh [--seed N] [--seconds S] [--scale X]
#       a full set: each of the five workloads untraced then traced,
#       gathered into benchmark/out/result.json next to the five traces
#   benchmark/run.sh --manifest
#       the text of BENCHMARK.json, generated from src/spec.rs
#
# Builds the harness offline in release mode first (a no-op when built).
# CARGO_TARGET_DIR is honoured; by default the repo's own target/ is used.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
bin="$CARGO_TARGET_DIR/release/fieldrep-benchmark"
out="$here/out"

for arg in "$@"; do
  if [ "$arg" = "--workload" ] || [ "$arg" = "--manifest" ]; then
    exec "$bin" --out "$out" "$@"
  fi
done

# A full set. Runs are separate processes, as the driver's are.
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_GIT_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
status=0
for workload in stmt_hot stmt_cold txn_ripple txn_mixed txn_mixed_t2; do
  for trace in 0 1; do
    "$bin" --out "$out" --workload "$workload" --trace "$trace" "$@" || status=$?
  done
done
"$bin" --out "$out" --merge "$@"
exit "$status"
