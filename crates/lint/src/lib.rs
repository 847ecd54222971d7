//! Project-specific static analysis for the field-replication workspace.
//!
//! `cargo run -q -p fieldrep-lint` enforces the invariants that rustc and
//! clippy cannot see (DESIGN.md §9, "lint-enforced"):
//!
//! - **L1 — storage layering**: `DiskManager` page I/O and raw file I/O
//!   (`std::fs`, `File::open`, `OpenOptions`) appear only inside
//!   `crates/storage`, and raw `WalStore` calls only inside its `wal`
//!   module. Everything else reaches pages through the buffer pool, which
//!   is what keeps the paper's Fig. 12/14 I/O accounting complete.
//! - **L2 — dead names**: every name in `obs::names` has a call site.
//! - **L3 — panic budget**: `unwrap`/`expect`/`panic!`/`unreachable!` in
//!   non-test, non-bin library code is counted per crate against the
//!   committed `lint_budget.toml`, which may only ratchet down.
//! - **L5 — lock order**: held-lock sets propagate through a
//!   workspace-wide call graph ([`callgraph`]); any acquisition edge
//!   that violates the declared total order over the named locks
//!   ([`locks::LOCKS`]) is an error. A total order admits no wait-for
//!   cycles, so this is a complete static deadlock-freedom check for
//!   the registered locks.
//! - **L6 — blocking under lock**: no recognised blocking operation
//!   (fsync, page/log file I/O, `thread::sleep`) may be reachable —
//!   directly or through calls — while a lock that forbids that class
//!   is held. The motivating shape is the PR 9 group-commit bug: fsync
//!   inside the `WalInner` append critical section.
//!
//! Three former rules are types now, checked by rustc (DESIGN.md §9,
//! "compiler-enforced"), and their numbers are not reused: that an obs
//! name is registered (L2's other half: obs APIs take an `obs::Name`,
//! which only `names.rs` can make), that one site takes raw lock words
//! (L4: `raw_acquire` is private to `core::txn::words`), and that every
//! storage write runs in the apply section (L7: the mutators take a
//! `storage::ApplySection`).
//!
//! Violations print as rustc-style `file:line` diagnostics and make the
//! process exit nonzero (`--json` emits JSONL instead). A
//! `// lint: allow(<rule>) <reason>` on (or right above) the offending
//! line suppresses a finding; suppressions require a reason and are
//! themselves budgeted.
//!
//! The whole tool is dependency-free (offline registry): a minimal
//! hand-rolled tokenizer plus token-pattern rules, with an
//! interprocedural summary fixpoint for L5 and L6.

pub mod budget;
pub mod callgraph;
pub mod json;
pub mod locks;
pub mod registry;
pub mod rules;
pub mod tokens;

pub use budget::Budget;
pub use rules::{check_budget, run_checks, Diagnostic, Report};
