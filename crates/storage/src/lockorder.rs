//! Runtime (debug-build) assertion of the declared global lock order.
//!
//! This is the engine's one runtime lock checker, the dynamic mirror of
//! the lint's static registry (`fieldrep-lint`'s `locks::LOCKS`) and the
//! DESIGN.md §9 table: every named engine lock has a **rank**, and a
//! thread may only acquire a lock of strictly higher rank than anything
//! it already holds. Equal rank is allowed for *reentrant* families (the
//! per-OID seqlock table and the frame latches), which order their
//! members internally.
//! Because the declared order is total, any would-be wait-for cycle
//! must contain an edge that violates it — so a run that never trips
//! these asserts never deadlocked *and never could have* on the
//! instrumented locks, whatever the interleaving.
//!
//! Debug builds keep a thread-local stack of `(rank, name)` entries and
//! `debug_assert!` on out-of-order acquisition; release builds compile
//! the whole thing to nothing ([`Held`] becomes a ZST and the
//! constructors are empty inline fns).
//!
//! Acquisition sites call [`acquired`] and keep the returned [`Held`]
//! token alive exactly as long as the guard it describes.

/// Rank of the transaction layer's index maintenance guard.
pub const TXN_INDEX_GUARD: u8 = 10;
/// Rank of the seqlock write-lock family (reentrant: the lock words of
/// a set's OIDs are acquired in ascending word order via `lock_sorted`).
pub const OID_SEQLOCK: u8 = 20;
/// Rank of the WAL apply section.
pub const WAL_APPLY: u8 = 30;
/// Rank of the buffer-pool metadata mutex. An eviction's write-back
/// appends the page's image and syncs the log under it, so
/// [`WAL_SYNC`] and [`WAL_APPEND`] rank above it.
pub const POOL_CORE: u8 = 40;
/// Rank of the buffer-frame page write latches (reentrant among
/// themselves; above [`POOL_CORE`], so a thread holding one may not
/// enter the pool — `fetch`, `new_page`, the batch read and the flushes
/// all trip).
pub const FRAME_DATA: u8 = 50;
/// Rank of the group-commit leader lock.
pub const WAL_SYNC: u8 = 60;
/// Rank of the WAL append lock (`WalInner`).
pub const WAL_APPEND: u8 = 70;

#[cfg(debug_assertions)]
mod imp {
    use std::cell::RefCell;

    thread_local! {
        /// Ranks this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<(u8, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII token recording one held lock; dropping it releases the
    /// rank from the thread's stack.
    #[must_use = "bind the order token for as long as the lock guard lives"]
    pub struct Held {
        rank: u8,
    }

    /// Record a blocking acquisition, asserting the declared order: the
    /// new rank must exceed every rank already held (equal allowed only
    /// for reentrant families).
    pub fn acquired(rank: u8, reentrant: bool, name: &'static str) -> Held {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            // Assert against the *maximum* held rank, not the top of
            // the stack: guards need not drop LIFO.
            if let Some(&(top, top_name)) = h.iter().max_by_key(|&&(r, _)| r) {
                debug_assert!(
                    top < rank || (top == rank && reentrant),
                    "lock-order violation: acquiring {name} (rank {rank}) while \
                     {top_name} (rank {top}) is held — the declared global order \
                     (DESIGN.md §9, lint rule L5) requires strictly increasing \
                     ranks on every thread"
                );
            }
            h.push((rank, name));
        });
        Held { rank }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut h = h.borrow_mut();
                // Guards need not drop LIFO (`drop(inner)` can precede
                // a leader guard bound earlier): remove the most recent
                // entry of this token's rank, wherever it sits.
                if let Some(pos) = h.iter().rposition(|&(r, _)| r == self.rank) {
                    h.remove(pos);
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    /// Release-build stand-in: a ZST with no drop glue.
    pub struct Held {}

    /// Release-build no-op (see the `debug_assertions` twin).
    #[inline(always)]
    pub fn acquired(_rank: u8, _reentrant: bool, _name: &'static str) -> Held {
        Held {}
    }
}

pub use imp::{acquired, Held};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upward_acquisition_is_clean() {
        let _a = acquired(TXN_INDEX_GUARD, false, "TxnIndexGuard");
        let _b = acquired(WAL_APPLY, false, "WalApply");
        let _c = acquired(WAL_APPEND, false, "WalAppend");
    }

    #[test]
    fn reentrant_family_allows_equal_rank() {
        let _a = acquired(OID_SEQLOCK, true, "OidSeqlock");
        let _b = acquired(OID_SEQLOCK, true, "OidSeqlock");
    }

    #[test]
    fn release_unwinds_out_of_order() {
        let a = acquired(WAL_SYNC, false, "WalSync");
        let b = acquired(WAL_APPEND, false, "WalAppend");
        // Dropping the *inner* guard first (the checkpoint shape) must
        // leave the outer hold intact and consistent.
        drop(b);
        let _c = acquired(WAL_APPEND, false, "WalAppend");
        drop(a);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    #[cfg(debug_assertions)]
    fn downward_acquisition_trips() {
        let _a = acquired(WAL_APPEND, false, "WalAppend");
        let _b = acquired(POOL_CORE, false, "PoolCore");
    }
}
