//! Project-specific static analysis for the field-replication workspace.
//!
//! `cargo run -q -p fieldrep-lint` enforces seven invariants that rustc
//! and clippy cannot see (each is documented in DESIGN.md's quality-gate
//! appendix):
//!
//! - **L1 — storage layering**: `DiskManager` page I/O and raw file I/O
//!   (`std::fs`, `File::open`, `OpenOptions`) appear only inside
//!   `crates/storage`. Everything else reaches pages through the buffer
//!   pool, which is what keeps the paper's Fig. 12/14 I/O accounting
//!   complete.
//! - **L2 — name registry**: metric/span name literals passed to obs
//!   APIs, and `costmodel::conformance` operator names, must resolve in
//!   the central `obs::names` module. EXPLAIN ANALYZE joins predictions
//!   to measurements by name string; a typo silently breaks the join.
//! - **L3 — panic budget**: `unwrap`/`expect`/`panic!`/`unreachable!` in
//!   non-test, non-bin library code is counted per crate against the
//!   committed `lint_budget.toml`, which may only ratchet down.
//! - **L4 — OID lock acquisition site**: `.raw_acquire(`, the raw
//!   lock-word acquisition, is called exactly once, inside
//!   `TxnManager::lock_sorted` — sorted acquisition is the transaction
//!   layer's whole deadlock-freedom argument. (Frame latches need no
//!   rule of their own: entering the pool under a live page write guard
//!   is an L5 rank violation, `FrameData` 50 → `PoolCore` 40.)
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
//! - **L7 — apply-section coverage**: every `pub`/`pub(crate)`
//!   `&self` method on `Database` that can reach a mutating storage
//!   call (`data_mut`, `new_page`, `rec_insert`/`rec_update`/
//!   `rec_delete`) must do so under the WAL apply section, or carry a
//!   reasoned `// lint: allow(L7)` documenting that the caller holds
//!   it. (`&mut self` methods are exempt: exclusive access means no
//!   concurrent commit sweep can observe a torn apply.)
//!
//! Violations print as rustc-style `file:line` diagnostics and make the
//! process exit nonzero (`--json` emits JSONL instead). A
//! `// lint: allow(<rule>) <reason>` on (or right above) the offending
//! line suppresses a finding; suppressions require a reason and are
//! themselves budgeted.
//!
//! The whole tool is dependency-free (offline registry): a minimal
//! hand-rolled tokenizer plus token-pattern rules, with an
//! interprocedural summary fixpoint for L5–L7.

pub mod budget;
pub mod callgraph;
pub mod json;
pub mod locks;
pub mod registry;
pub mod rules;
pub mod tokens;

pub use budget::Budget;
pub use rules::{check_budget, run_checks, Diagnostic, Report};
