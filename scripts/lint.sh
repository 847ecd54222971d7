#!/usr/bin/env bash
# Run the repo-specific static analysis (fieldrep-lint) on its own.
#
#   ./scripts/lint.sh                 check against lint_budget.toml
#   ./scripts/lint.sh --update-budget rewrite lint_budget.toml after a
#                                     legitimate ratchet-down
#
# The rules (see DESIGN.md §9 and crates/lint/src/lib.rs):
#   L1  layering        raw page/file/WAL-store I/O only inside crates/storage
#   L2  dead names      every obs::names constant has a call site
#   L3  panic budget    unwrap/expect/panic in library code only ratchets down
#   L5  lock order      held-lock sets through the call graph obey the
#                       declared total order over the named locks
#   L6  blocking I/O    no fsync/sleep/file I/O reachable while a lock
#                       that forbids it is held
# (L4 and L7, and L2's registered-name half, are types now; rustc checks
# them — DESIGN.md §9, "compiler-enforced".)
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run -q -p fieldrep-lint -- "$@"
