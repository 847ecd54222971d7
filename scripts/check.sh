#!/usr/bin/env bash
# Tier-1 quality gate: formatting, lints, and the full test suite.
# Run from the repository root: ./scripts/check.sh
# Each stage reports its wall-clock time; a summary prints at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE_SUMMARY=""
stage() {
    local name=$1
    shift
    local start end
    start=$(date +%s)
    "$@"
    end=$(date +%s)
    local took=$((end - start))
    STAGE_SUMMARY+=$(printf '%-24s %4ds' "$name" "$took")$'\n'
    printf '== %s: %ds\n' "$name" "$took"
}

stage fmt cargo fmt --all -- --check
stage clippy cargo clippy --workspace --all-targets -- -D warnings

# Repo-specific static analysis (layering, dead obs names, panic budget,
# interprocedural lock order and blocking I/O under a lock) against the
# committed lint_budget.toml. Registered obs names, the one lock-word
# site and apply-section coverage are types, checked by the build.
stage lint cargo run -q -p fieldrep-lint

# The workspace tests. Among them, crates/bench/tests/baseline.rs pins
# page counts: the full bench_suite matrix must reproduce the committed
# BENCH_BASELINE.json byte for byte (about 3 s: tests build at the
# root Cargo.toml's [profile.test] opt-level 1, debug assertions on). The
# exporters' JSON and Chrome-trace shape and the flight-recorder dump
# are checked here too: obs::export's unit tests and
# crates/core/tests/flight_recorder_dump.rs. The stage ends with one
# line summing passed, failed and ignored over every test binary, and
# the summary at the end repeats it.
TEST_TOTALS=""
workspace_tests() {
    local log status=0
    log=$(mktemp)
    cargo test -q --workspace 2>&1 | tee "$log" || status=$?
    TEST_TOTALS=$(awk '/^test result:/ { p += $4; f += $6; i += $8 }
        END { printf "%d passed, %d failed, %d ignored", p, f, i }' "$log")
    rm -f "$log"
    printf '== test totals: %s\n' "$TEST_TOTALS"
    return "$status"
}
stage test workspace_tests

# The benchmark package has its own [workspace], so the stage above
# never builds it: a public-API slip in storage/core would otherwise
# surface only in the benchmark pipeline. Its tests run the harness at
# a hundredth of the scale.
stage benchmark_pkg cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Concurrency stress smoke: the seeded 8-thread hostile mix across all
# three replication strategies (release mode, fixed seed). A torn
# replica read or a lock-ordering deadlock fails here.
stage concurrency_stress cargo test --release -q -p fieldrep-core --test concurrency_stress

# Crash-recovery smoke: kill a committed workload's WAL at 100 seeded
# byte offsets and reopen each truncated image; then the eviction-
# bearing case — a pool a fraction of the data, crash images taken
# between commits while pages are written back, re-fetched and
# delta-logged again (release mode, fixed seeds). A lost committed
# update, a phantom uncommitted one, or a replica/source divergence
# after replay fails here.
stage crash_recovery cargo test --release -q -p fieldrep-core --test crash_recovery

printf '\n== check.sh stage timings ==\n%s' "$STAGE_SUMMARY"
printf '== test totals: %s\n' "$TEST_TOTALS"
