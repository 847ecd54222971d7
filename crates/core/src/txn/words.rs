//! The lock table and the one way to take its words.
//!
//! This module holds only [`LockTable`] and [`lock_sorted`]. The raw
//! acquisition of a word is private to it, so rustc's privacy check —
//! not a convention — keeps every other caller in the workspace on the
//! sorted path: funnelling every acquisition through one ascending loop
//! is the transaction layer's whole deadlock-freedom argument.

use super::DEADLOCK_WATCHDOG;
use crate::error::{DbError, Result};
use fieldrep_storage::{lockorder, Oid};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

/// The lock table: one versioned lock word per slot, shared by every OID
/// that maps to it (see the [`crate::txn`] docs). Constant memory.
pub(super) struct LockTable {
    words: Box<[AtomicU64]>,
}

impl LockTable {
    /// A table of `words` words (a power of two).
    pub(super) fn new(words: usize) -> Self {
        debug_assert!(words.is_power_of_two() && words <= 1 << 16);
        LockTable {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The word of `oid`: the top 16 bits of its own 64 bits through one
    /// multiplicative mix (Fibonacci hashing). OIDs are engine-assigned,
    /// not attacker-chosen, so a keyed hash would buy nothing.
    pub(super) fn word_of(&self, oid: Oid) -> u32 {
        let h = u64::from_le_bytes(oid.to_bytes()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 48) as u32 & (self.words.len() as u32 - 1)
    }

    /// Current version of word `w`, as a reader entering it loads it.
    pub(super) fn load(&self, w: u32) -> u64 {
        self.words[w as usize].load(Ordering::Acquire)
    }

    /// Current version of word `w`, as a reader re-loads it after its
    /// `fence(Acquire)`.
    pub(super) fn reload(&self, w: u32) -> u64 {
        self.words[w as usize].load(Ordering::Relaxed)
    }

    /// The words themselves, for the table's own tests.
    #[cfg(test)]
    pub(super) fn words(&self) -> &[AtomicU64] {
        &self.words
    }

    /// The one raw lock acquisition in the workspace, private to this
    /// module so that only [`lock_sorted`] can call it. Returns the even
    /// version the word had just before it was taken and whether the
    /// caller had to wait. A spin-then-yield loop rather than a mutex:
    /// words are held across the whole commit, and critical sections
    /// include page I/O, so waiters back off to `yield_now` quickly. The
    /// watchdog's clock is read on the waiting branch only.
    fn raw_acquire(&self, w: u32, oid: Oid) -> Result<(u64, bool)> {
        let word = &self.words[w as usize];
        let mut waiting_since: Option<Instant> = None;
        let mut spins = 0u32;
        loop {
            let cur = word.load(Ordering::Relaxed);
            if cur & 1 == 0
                && word
                    .compare_exchange(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                fence(Ordering::Release); // odd before any write it guards
                return Ok((cur, waiting_since.is_some()));
            }
            let since = *waiting_since.get_or_insert_with(Instant::now);
            spins = spins.wrapping_add(1);
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            if spins.is_multiple_of(4096) && since.elapsed() > DEADLOCK_WATCHDOG {
                return Err(DbError::LockTimeout(oid));
            }
        }
    }
}

/// Guard over the write locks one transactional write holds: its OIDs
/// and the distinct lock words they map to. Dropping it bumps every word
/// to the next even version (ripple complete), which releases it.
pub struct LockSet<'a> {
    table: &'a LockTable,
    oids: Vec<Oid>,
    /// The words held, each once, in the ascending order they were taken.
    words: Vec<u32>,
    /// `before[i]` is the even version the word of `oids[i]` had just
    /// before this set took it.
    before: Vec<u64>,
    /// Runtime lock-order token for the whole (internally ordered)
    /// seqlock family this set holds.
    _order: lockorder::Held,
}

impl LockSet<'_> {
    /// Is every OID of `oids` (sorted or not) covered by this lock set?
    pub fn covers(&self, oids: &[Oid]) -> bool {
        oids.iter().all(|o| self.oids.binary_search(o).is_ok())
    }

    /// Is the word of `oid`, in this set or not, one this set holds?
    pub(crate) fn holds_word_of(&self, oid: Oid) -> bool {
        self.words.binary_search(&self.table.word_of(oid)).is_ok()
    }

    /// Was every member at version `seqs[i]` — even, so no writer was in
    /// flight — immediately before this set locked it? `seqs` must align
    /// with the OIDs the set was acquired over.
    pub(crate) fn acquired_at(&self, seqs: &[u64]) -> bool {
        self.before == seqs
    }

    /// Number of locked OIDs.
    pub fn len(&self) -> usize {
        self.oids.len()
    }

    /// True when nothing is locked.
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }

    /// The words held, for the table's own tests.
    #[cfg(test)]
    pub(super) fn words(&self) -> &[u32] {
        &self.words
    }
}

impl Drop for LockSet<'_> {
    fn drop(&mut self) {
        for &w in &self.words {
            // Even: ripple done, word free.
            self.table.words[w as usize].fetch_add(1, Ordering::Release);
        }
    }
}

/// Acquire write locks on every OID of `oids` — which **must** be sorted
/// and deduplicated — and bump each one's version to odd. The OIDs are
/// mapped to their lock words and the distinct words taken in ascending
/// word order, so two OIDs of the set that share a word lock it once.
/// `waited` runs once per word the set had to wait for.
pub(super) fn lock_sorted<'a>(
    table: &'a LockTable,
    oids: &[Oid],
    mut waited: impl FnMut(),
) -> Result<LockSet<'a>> {
    if oids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(DbError::Unsupported(
            "lock_sorted requires a sorted, deduplicated OID set".into(),
        ));
    }
    let mut by_word: Vec<(u32, usize)> = oids
        .iter()
        .enumerate()
        .map(|(i, &oid)| (table.word_of(oid), i))
        .collect();
    by_word.sort_unstable();
    // One order token covers the whole family: its words are taken in
    // ascending order below, which is the family's internal order (rank
    // ties are legal within it).
    let mut set = LockSet {
        table,
        oids: oids.to_vec(),
        words: Vec::with_capacity(oids.len()),
        before: vec![0; oids.len()],
        _order: lockorder::acquired(lockorder::OID_SEQLOCK, true, "OidSeqlock"),
    };
    let mut version = 0;
    for &(w, i) in &by_word {
        if set.words.last() != Some(&w) {
            // On the watchdog's error `set` drops, releasing exactly the
            // words pushed so far.
            let (before, contended) = table.raw_acquire(w, oids[i])?;
            if contended {
                waited();
            }
            set.words.push(w);
            version = before;
        }
        set.before[i] = version;
    }
    Ok(set)
}
