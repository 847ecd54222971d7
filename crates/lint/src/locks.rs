//! Declarative registry of the workspace's named locks and blocking
//! operations, plus the L5/L6 checkers that run over the call-graph
//! summaries built by [`crate::callgraph`].
//!
//! The registry is the single source of truth for the global lock
//! acquisition order (mirrored by the runtime assert in
//! `storage::lockorder` and documented in DESIGN.md §9): every lock has
//! a **rank**, and a thread may only acquire a lock of strictly higher
//! rank than anything it already holds (equal rank is allowed for
//! *reentrant* locks, which order their members internally — the OID
//! seqlock table sorts by OID, and the pool takes several frame write
//! latches at once only on frames it has just claimed, which no other
//! thread can reach). Because the declared order is total, rank
//! checking is complete: any wait-for cycle must contain at least one
//! edge from a higher-or-equal rank to a lower-or-equal rank, so L5's
//! edge check also rules out cycles. Every acquisition blocks; there is
//! no try-lock to exempt.

use crate::callgraph::Graph;
use crate::rules::Diagnostic;
use crate::tokens::{Tok, TokKind};
use std::collections::BTreeSet;

/// Index into [`LOCKS`].
pub type LockId = usize;

/// A class of blocking operation, for the per-lock L6 forbid lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlockClass {
    /// `fsync`/`fdatasync` — the slowest thing the engine ever does.
    Fsync,
    /// `std::thread::sleep` — never acceptable under any engine lock.
    Sleep,
    /// Data-page file I/O (`read_page`/`write_page`/…).
    PageIo,
    /// Log-store file I/O (`wal_append`/`wal_truncate`/…).
    LogIo,
}

impl BlockClass {
    /// Human label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            BlockClass::Fsync => "fsync",
            BlockClass::Sleep => "sleep",
            BlockClass::PageIo => "page I/O",
            BlockClass::LogIo => "log I/O",
        }
    }
}

/// A token pattern that acquires a lock.
pub struct AcquirePattern {
    /// Token texts; `.`/`(`/`::` must be puncts, everything else idents.
    pub toks: &'static [&'static str],
    /// Only match in files whose workspace-relative path starts with
    /// this prefix (`None` = the pattern is globally distinctive).
    pub scope: Option<&'static str>,
    /// The call runs its argument under the lock: held for the closure
    /// body that follows or, for a function passed by name, to the end
    /// of the statement — never past it.
    pub closure: bool,
}

/// One named lock with its place in the global order.
pub struct LockDef {
    /// Short name used in diagnostics (`WalAppend`).
    pub name: &'static str,
    /// What it is, for messages.
    pub what: &'static str,
    /// Position in the global acquisition order (strictly increasing).
    pub rank: u8,
    /// Same-rank re-acquisition allowed (internally ordered family).
    pub reentrant: bool,
    /// Blocking classes that must not be reachable while held.
    pub forbids: &'static [BlockClass],
    /// Call shapes that acquire it.
    pub acquires: &'static [AcquirePattern],
    /// Type the guard dereferences to: a call projected directly
    /// through the fresh guard (`self.core.lock().fetch(..)`) resolves
    /// against this impl, which keeps same-name delegation wrappers
    /// (`BufferPool::fetch` → `PoolCore::fetch`) from merging.
    pub owner_hint: Option<&'static str>,
}

const fn pat(toks: &'static [&'static str]) -> AcquirePattern {
    AcquirePattern {
        toks,
        scope: None,
        closure: false,
    }
}

const fn pat_in(toks: &'static [&'static str], scope: &'static str) -> AcquirePattern {
    AcquirePattern {
        toks,
        scope: Some(scope),
        closure: false,
    }
}

/// The declared global lock order, lowest rank first. A thread
/// acquires downward through this table, never upward. Keep in sync
/// with `storage::lockorder` and the DESIGN.md §9 table.
pub const LOCKS: &[LockDef] = &[
    LockDef {
        name: "TxnIndexGuard",
        what: "the transaction layer's index maintenance guard",
        rank: 10,
        reentrant: false,
        forbids: &[BlockClass::Sleep],
        owner_hint: None,
        acquires: &[
            pat(&[".", "index_lock", "("]),
            pat_in(&["index_guard", ".", "lock", "("], "crates/core/src/txn.rs"),
        ],
    },
    LockDef {
        name: "OidSeqlock",
        what: "seqlock write-lock words, several OIDs each (ascending-word-order family)",
        rank: 20,
        reentrant: true,
        forbids: &[BlockClass::Sleep],
        owner_hint: None,
        acquires: &[
            pat(&[".", "lock_sorted", "("]),
            pat(&[".", "raw_acquire", "("]),
        ],
    },
    LockDef {
        name: "WalApply",
        what: "the WAL apply section (log-to-page coverage barrier)",
        rank: 30,
        reentrant: false,
        forbids: &[BlockClass::Sleep],
        owner_hint: None,
        acquires: &[
            pat(&[".", "apply_lock", "("]),
            pat(&[".", "apply_section", "("]),
            AcquirePattern {
                toks: &[".", "apply_and_commit", "("],
                scope: None,
                closure: true,
            },
            pat_in(&["apply", ".", "lock", "("], "crates/storage/src/wal"),
        ],
    },
    LockDef {
        name: "PoolCore",
        what: "the buffer-pool metadata mutex",
        rank: 40,
        reentrant: false,
        // Page I/O, log I/O and even fsync under PoolCore are
        // load-bearing: a miss reads and an eviction writes back under
        // it, a page's first write-back in a log epoch appends its image
        // to the log, and the steal rule's `sync_to` makes the victim's
        // log records durable first (DESIGN.md §11), so only sleeping is
        // forbidden here.
        forbids: &[BlockClass::Sleep],
        owner_hint: Some("PoolCore"),
        acquires: &[pat_in(
            &["core", ".", "lock", "("],
            "crates/storage/src/buffer.rs",
        )],
    },
    LockDef {
        name: "FrameData",
        what: "a buffer-frame page latch (write side)",
        rank: 50,
        reentrant: true,
        forbids: &[BlockClass::Sleep, BlockClass::Fsync, BlockClass::LogIo],
        owner_hint: None,
        acquires: &[
            pat(&[".", "data_mut", "("]),
            pat_in(&["data", ".", "write", "("], "crates/storage/src/buffer.rs"),
        ],
    },
    LockDef {
        name: "WalSync",
        what: "the group-commit leader lock",
        rank: 60,
        reentrant: false,
        forbids: &[BlockClass::Sleep],
        owner_hint: None,
        acquires: &[pat_in(
            &["sync_lock", ".", "lock", "("],
            "crates/storage/src/wal",
        )],
    },
    LockDef {
        name: "WalAppend",
        what: "the WAL append lock (WalInner)",
        rank: 70,
        reentrant: false,
        // The append lock covers LSN assignment + the buffered append
        // (LogIo), but fsync under it serialises every committer behind
        // the disk — the exact PR 9 group-commit bug.
        forbids: &[BlockClass::Sleep, BlockClass::Fsync],
        owner_hint: Some("WalInner"),
        acquires: &[pat_in(
            &["inner", ".", "lock", "("],
            "crates/storage/src/wal",
        )],
    },
];

/// A blocking operation the analyzer recognises.
pub struct BlockOp {
    /// Which class it belongs to.
    pub class: BlockClass,
    /// Token pattern (same kind rules as [`AcquirePattern::toks`]).
    pub toks: &'static [&'static str],
    /// Label for diagnostics.
    pub label: &'static str,
}

const fn bop(class: BlockClass, toks: &'static [&'static str], label: &'static str) -> BlockOp {
    BlockOp { class, toks, label }
}

/// Recognised blocking calls, most specific first.
pub const BLOCKING_OPS: &[BlockOp] = &[
    bop(
        BlockClass::Fsync,
        &[".", "wal_sync_now", "("],
        "WalSyncer::wal_sync_now (fsync)",
    ),
    bop(
        BlockClass::Fsync,
        &[".", "wal_sync", "("],
        "WalStore::wal_sync (fsync)",
    ),
    bop(
        BlockClass::Fsync,
        &[".", "sync_all", "("],
        "File::sync_all (fsync)",
    ),
    bop(
        BlockClass::Fsync,
        &[".", "sync_data", "("],
        "File::sync_data (fsync)",
    ),
    bop(
        BlockClass::Fsync,
        &["disk", ".", "sync", "("],
        "DiskManager::sync (fsync)",
    ),
    bop(
        BlockClass::Sleep,
        &["thread", "::", "sleep", "("],
        "std::thread::sleep",
    ),
    bop(
        BlockClass::LogIo,
        &[".", "wal_append", "("],
        "WalStore::wal_append",
    ),
    bop(
        BlockClass::LogIo,
        &[".", "wal_truncate", "("],
        "WalStore::wal_truncate",
    ),
    bop(
        BlockClass::LogIo,
        &[".", "wal_read_all", "("],
        "WalStore::wal_read_all",
    ),
    bop(
        BlockClass::PageIo,
        &[".", "read_page", "("],
        "DiskManager::read_page",
    ),
    bop(
        BlockClass::PageIo,
        &[".", "read_pages", "("],
        "DiskManager::read_pages",
    ),
    bop(
        BlockClass::PageIo,
        &[".", "write_page", "("],
        "DiskManager::write_page",
    ),
    bop(
        BlockClass::PageIo,
        &[".", "create_file", "("],
        "DiskManager::create_file",
    ),
];

/// Does the token pattern match at `toks[at..]`, honouring kinds
/// (punctuation elements must be puncts, names must be idents)?
pub fn pattern_matches(toks: &[Tok], at: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, want)| {
        toks.get(at + k).is_some_and(|tok| {
            tok.text == *want
                && match *want {
                    "." | "(" | "::" => tok.kind == TokKind::Punct,
                    _ => tok.kind == TokKind::Ident,
                }
        })
    })
}

/// Try to match any registered acquire pattern at `toks[at..]` in a
/// file at `rel`. Returns the lock and the pattern that matched.
pub fn match_acquire(
    toks: &[Tok],
    at: usize,
    rel: &str,
) -> Option<(LockId, &'static AcquirePattern)> {
    for (id, def) in LOCKS.iter().enumerate() {
        for p in def.acquires {
            if p.scope.is_none_or(|s| rel.starts_with(s)) && pattern_matches(toks, at, p.toks) {
                return Some((id, p));
            }
        }
    }
    None
}

/// Try to match a blocking op at `toks[at..]`. Returns the op index.
pub fn match_blocking(toks: &[Tok], at: usize) -> Option<usize> {
    BLOCKING_OPS
        .iter()
        .position(|op| pattern_matches(toks, at, op.toks))
}

/// L5 + L6 over the summarised call graph.
pub fn check_lockflow(graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut seen: BTreeSet<(usize, usize, usize)> = BTreeSet::new(); // (fn, held, other)

    for (fi, f) in graph.fns.iter().enumerate() {
        // L5: direct blocking acquisitions out of declared order.
        for ev in &f.acquires {
            for held in &ev.held {
                if order_violation(held.lock, ev.lock) && seen.insert((fi, held.lock, ev.lock)) {
                    diags.push(Diagnostic {
                        file: f.file.clone(),
                        line: ev.line,
                        rule: "L5",
                        msg: format!(
                            "lock-order violation: `{}` (rank {}) acquired while `{}` (rank {}, \
                             taken at line {}) is held — the declared order (DESIGN.md §9) \
                             requires {} before {}, or this edge can deadlock against the \
                             straight-order path",
                            LOCKS[ev.lock].name,
                            LOCKS[ev.lock].rank,
                            LOCKS[held.lock].name,
                            LOCKS[held.lock].rank,
                            held.line,
                            LOCKS[ev.lock].name,
                            LOCKS[held.lock].name,
                        ),
                    });
                }
            }
        }
        // L5 via calls: the callee (transitively) blocks on a lock.
        for call in &f.calls {
            for &ti in &call.targets {
                let t = &graph.fns[ti];
                for (&lock, wit) in &t.may_acquire {
                    for held in &call.held {
                        if order_violation(held.lock, lock) && seen.insert((fi, held.lock, lock)) {
                            diags.push(Diagnostic {
                                file: f.file.clone(),
                                line: call.line,
                                rule: "L5",
                                msg: format!(
                                    "lock-order violation: call to `{}` can acquire `{}` (rank \
                                     {}, at {}:{}) while `{}` (rank {}, taken at line {}) is \
                                     held — declared order requires {} before {}",
                                    call.name,
                                    LOCKS[lock].name,
                                    LOCKS[lock].rank,
                                    wit.file,
                                    wit.line,
                                    LOCKS[held.lock].name,
                                    LOCKS[held.lock].rank,
                                    held.line,
                                    LOCKS[lock].name,
                                    LOCKS[held.lock].name,
                                ),
                            });
                        }
                    }
                }
            }
        }
        // L6: blocking ops (direct or reachable) under a forbidding lock.
        let mut seen6: BTreeSet<(usize, BlockClass)> = BTreeSet::new();
        for ev in &f.blocks {
            for held in &ev.held {
                if LOCKS[held.lock].forbids.contains(&ev.class)
                    && seen6.insert((held.lock, ev.class))
                {
                    diags.push(Diagnostic {
                        file: f.file.clone(),
                        line: ev.line,
                        rule: "L6",
                        msg: format!(
                            "blocking call `{}` while `{}` ({}, rank {}, taken at line {}) is \
                             held — {} locks forbid {} in their critical section; move the \
                             call outside the lock (the PR 9 group-commit fix shape)",
                            ev.label,
                            LOCKS[held.lock].name,
                            LOCKS[held.lock].what,
                            LOCKS[held.lock].rank,
                            held.line,
                            LOCKS[held.lock].name,
                            ev.class.label(),
                        ),
                    });
                }
            }
        }
        for call in &f.calls {
            for &ti in &call.targets {
                let t = &graph.fns[ti];
                for (&class, wit) in &t.may_block {
                    for held in &call.held {
                        if LOCKS[held.lock].forbids.contains(&class)
                            && seen6.insert((held.lock, class))
                        {
                            diags.push(Diagnostic {
                                file: f.file.clone(),
                                line: call.line,
                                rule: "L6",
                                msg: format!(
                                    "call to `{}` can reach blocking `{}` (at {}:{}) while \
                                     `{}` is held — {} locks forbid {} in their critical \
                                     section",
                                    call.name,
                                    wit.label,
                                    wit.file,
                                    wit.line,
                                    LOCKS[held.lock].name,
                                    LOCKS[held.lock].name,
                                    class.label(),
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    diags
}

/// Is acquiring `next` while holding `held` an order violation?
fn order_violation(held: LockId, next: LockId) -> bool {
    let (h, n) = (&LOCKS[held], &LOCKS[next]);
    if held == next {
        !h.reentrant
    } else {
        h.rank >= n.rank
    }
}
