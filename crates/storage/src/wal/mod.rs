//! Redo-only write-ahead log (ARIES-lite).
//!
//! The durability design is deliberately lean — physical redo logging
//! with no undo, in the spirit of the paper's "replicas are derived
//! data" stance (and Darmont's advocacy for simplicity):
//!
//! * A transaction's pages are applied in the buffer pool first; at
//!   commit, every page it dirtied is appended as one
//!   `Begin / (PageImage | PageDelta)* / Commit` group and fsynced.
//!   There is nothing to undo because nothing unlogged ever overwrites
//!   a committed on-disk page.
//! * **Deltas, and an image before a write-back**: a commit costs the
//!   bytes it changed, not the pages it touched. A page with a *base*
//!   recovery can patch — its disk copy (read from disk or written back)
//!   or an image logged in the current epoch — is logged as a
//!   `PageDelta`: the runs of 64-byte lines written since the page's
//!   previous record, which the pool marks as they are written (its line
//!   mask, see `buffer.rs`). A page with no base (a fresh page, never
//!   written to disk) and a delta that would exceed half a page are
//!   logged as a full `PageImage`. Only a write-back can tear a page, so
//!   only a write-back needs an image: before a page's first write-back
//!   in an epoch (its disk copy's header LSN and its last image are at or
//!   below the epoch's `Checkpoint` marker) the pool logs its image as a
//!   one-page committed group, makes it durable, and stamps the disk copy
//!   with its LSN; later write-backs in the epoch need none, because the
//!   image and the deltas after it rebuild the page whatever a torn write
//!   left. The image-or-delta choice is made under the append lock, where
//!   epochs change.
//! * **the steal rule**: the buffer pool may write a dirty page back
//!   only after the page's covering log records are durable
//!   ([`Wal::sync_to`]). A dirty page no commit has logged yet belongs to
//!   an operation still in flight — every finished one has logged its
//!   pages — so it is never an eviction victim (**no-steal** for open
//!   operations), and a flush logs such leftovers as one commit first.
//! * **Group commit**: concurrent committers share fsyncs. A committer
//!   whose commit LSN is already durable returns without syncing
//!   (counted in `wal.group_commit.coalesced`); otherwise it elects
//!   itself leader and one `fsync` covers every record appended so
//!   far. The leader fsyncs through a [`WalSyncer`] handle with the
//!   append lock *released*, so followers keep appending (and so keep
//!   feeding the next leader's barrier) while the fsync is in flight.
//! * **Recovery** ([`recover`]) scans the log, discards the torn tail,
//!   rebuilds every committed page in memory from its last image (or its
//!   disk copy, when the epoch logged none) and the deltas after it,
//!   writes each once, syncs the data files, and starts a new epoch
//!   whose `Checkpoint` marker keeps the LSN space rising.
//!
//! The serialized *apply section* ([`Wal::apply_lock`]) is held by
//! **every** engine write path across its whole multi-page operation and
//! its commit logging — each operation is one commit record — so the log
//! never interleaves two operations' records and a commit (which logs the
//! pool's whole unlogged set) can only ever see its own pages and the
//! leftovers of a commit whose logging failed. The fsync happens
//! **outside** it, which is what lets back-to-back commits coalesce.

pub mod fault;
pub mod record;
pub mod recover;
pub mod store;

pub use record::{DeltaRange, WalEntry, WalRecord};
pub use recover::{recover, RecoveryReport};
pub use store::{FileWalStore, MemWalStore, WalStore, WalSyncer};

use crate::error::Result;
use crate::lockorder;
use crate::oid::PageId;
use crate::page::PAGE_SIZE;
use fieldrep_obs::{metrics, names as obs_names};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide WAL instruments, registered once in the obs registry.
struct WalMetrics {
    appends: Arc<metrics::Counter>,
    fsyncs: Arc<metrics::Counter>,
    bytes: Arc<metrics::Counter>,
    coalesced: Arc<metrics::Counter>,
}

fn wal_metrics() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metrics::registry();
        WalMetrics {
            appends: r.counter(obs_names::WAL_APPENDS),
            fsyncs: r.counter(obs_names::WAL_FSYNCS),
            bytes: r.counter(obs_names::WAL_BYTES),
            coalesced: r.counter(obs_names::WAL_GROUP_COMMIT_COALESCED),
        }
    })
}

/// Guard for the serialized apply section ([`Wal::apply_lock`]);
/// carries the runtime lock-order token alongside the mutex guard.
pub struct ApplyGuard<'a> {
    _guard: MutexGuard<'a, ()>,
    _order: lockorder::Held,
}

/// One page of a commit group, as the buffer pool hands it to the log.
pub struct PageLog<'a> {
    /// The page being logged.
    pub page: PageId,
    /// Its current bytes.
    pub image: &'a [u8; PAGE_SIZE],
    /// Whether its disk copy is a base recovery can patch: the page was
    /// read from disk or written back.
    pub on_disk: bool,
    /// LSN of its newest full copy: the last image logged of it, or the
    /// header LSN of its disk copy (0: none).
    pub base: u64,
    /// The lines written since its previous record, one bit each (see
    /// [`crate::page::LINE_SIZE`]): what a delta carries.
    pub lines: u64,
}

impl PageLog<'_> {
    /// Whether the page is logged as a full image in an epoch whose
    /// `Checkpoint` marker is at `floor`: it has no base recovery could
    /// patch (no disk copy, no image in this epoch), or its delta would
    /// exceed half a page.
    pub fn is_image(&self, floor: u64) -> bool {
        !(self.on_disk || self.base > floor) || !record::delta_fits(self.lines)
    }
}

/// Where [`Wal::append_pages`] put a commit group.
#[derive(Clone, Copy, Debug)]
pub struct Appended {
    /// The group's commit LSN.
    pub lsn: u64,
    /// The epoch floor its image-or-delta choices were made against
    /// ([`PageLog::is_image`]).
    pub floor: u64,
}

/// A commit buffer that grew past this is freed rather than kept.
const KEEP_BUF_BYTES: usize = 1 << 20;

struct WalInner {
    store: Box<dyn WalStore>,
    /// Next LSN to assign.
    next_lsn: u64,
    /// Highest LSN appended to the store.
    appended: u64,
    /// The commit group being encoded (kept between commits).
    buf: Vec<u8>,
}

/// The write-ahead log. All methods take `&self`; the log is shared by
/// the buffer pool (steal gating, commit logging) and the engine's write
/// paths (the apply section, group commit) through one `Arc`.
pub struct Wal {
    inner: Mutex<WalInner>,
    /// Durability barrier decoupled from the append lock: the
    /// group-commit leader fsyncs through this so followers keep
    /// appending while the barrier is in flight.
    syncer: Box<dyn store::WalSyncer>,
    /// Highest LSN known fsynced.
    durable: AtomicU64,
    /// LSN of the current epoch's `Checkpoint` marker (see the module
    /// docs). Written only under the append lock, where the delta
    /// choice reads it, so `Relaxed` suffices.
    checkpoint_lsn: AtomicU64,
    /// Group-commit leader election: at most one fsync in flight.
    sync_lock: Mutex<()>,
    /// The serialized apply section (see module docs).
    apply: Mutex<()>,
    next_txn: AtomicU64,
    // Snapshot counters mirrored into obs metrics.
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
    coalesced: AtomicU64,
}

/// Point-in-time WAL counters (the `sys.wal` rows).
#[derive(Clone, Copy, Default, Debug)]
pub struct WalStats {
    /// Last LSN assigned (0 = nothing logged yet).
    pub last_lsn: u64,
    /// Highest LSN known durable.
    pub durable_lsn: u64,
    /// Records appended.
    pub appends: u64,
    /// Fsyncs issued on the log.
    pub fsyncs: u64,
    /// Bytes appended.
    pub bytes: u64,
    /// Commits that found their LSN already durable (group commit).
    pub coalesced: u64,
    /// Always 0: every operation logs its own pages, so nothing is
    /// logged at eviction. Kept for readers of the old counter.
    pub autocommits: u64,
}

impl Wal {
    /// Wrap `store`, assigning LSNs from `start_lsn` (≥ 1). Callers run
    /// [`recover`] first and pass `report.last_lsn + 1` so the LSN space
    /// stays monotone across restarts; everything below `start_lsn`
    /// counts as checkpointed.
    pub fn new(store: Box<dyn WalStore>, start_lsn: u64) -> Wal {
        let start = start_lsn.max(1);
        let syncer = store.wal_syncer();
        Wal {
            inner: Mutex::new(WalInner {
                store,
                next_lsn: start,
                appended: start - 1,
                buf: Vec::new(),
            }),
            syncer,
            durable: AtomicU64::new(start - 1),
            checkpoint_lsn: AtomicU64::new(start - 1),
            sync_lock: Mutex::new(()),
            apply: Mutex::new(()),
            next_txn: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Enter the serialized apply section. Every engine write path
    /// holds this across its whole multi-page operation and the logging
    /// of its commit record, so the log never interleaves two
    /// operations' page records; it is released before the fsync.
    pub fn apply_lock(&self) -> ApplyGuard<'_> {
        let order = lockorder::acquired(lockorder::WAL_APPLY, false, "WalApply");
        ApplyGuard {
            _guard: self.apply.lock(),
            _order: order,
        }
    }

    /// Allocate a WAL-local transaction id.
    pub fn begin_txn(&self) -> u64 {
        self.next_txn.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// LSN of the current log epoch's `Checkpoint` marker: a page whose
    /// last image and disk copy are at or below it has no full copy in
    /// this epoch's log, so its next write-back logs one first.
    pub fn checkpoint_lsn(&self) -> u64 {
        self.checkpoint_lsn.load(Ordering::Relaxed)
    }

    /// Append `Begin / PageImage* / Commit` for `txn` as one contiguous
    /// group of full images and return the commit LSN. Does **not**
    /// fsync — call [`Wal::sync_to`] with the returned LSN (that is
    /// what group commit coalesces).
    pub fn append_commit(&self, txn: u64, pages: &[(PageId, &[u8; PAGE_SIZE])]) -> Result<u64> {
        let appended = self.append_pages(
            txn,
            pages.iter().map(|&(page, image)| PageLog {
                page,
                image,
                on_disk: false,
                base: 0,
                lines: u64::MAX,
            }),
        )?;
        Ok(appended.lsn)
    }

    /// [`Wal::append_commit`] for pages that may have a base: each is
    /// logged as a delta of its marked lines or as a full image, as
    /// [`PageLog::is_image`] decides under the append lock.
    pub fn append_pages<'a>(
        &self,
        txn: u64,
        pages: impl ExactSizeIterator<Item = PageLog<'a>>,
    ) -> Result<Appended> {
        let records = pages.len() as u64 + 2;
        let _append_order = lockorder::acquired(lockorder::WAL_APPEND, false, "WalAppend");
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let floor = self.checkpoint_lsn();
        inner.buf.clear();
        let mut lsn = inner.next_lsn;
        record::put_begin(&mut inner.buf, lsn, txn);
        for p in pages {
            lsn += 1;
            if p.is_image(floor) {
                record::put_image(&mut inner.buf, lsn, txn, p.page, p.image);
            } else {
                let runs = record::line_runs(p.lines).map(|r| (r.start as u16, &p.image[r]));
                record::put_delta(&mut inner.buf, lsn, txn, p.page, runs);
            }
        }
        let commit_lsn = lsn + 1;
        record::put_commit(&mut inner.buf, commit_lsn, txn);
        inner.store.wal_append(&inner.buf)?;
        inner.next_lsn = commit_lsn + 1;
        inner.appended = commit_lsn;
        let bytes = inner.buf.len() as u64;
        if inner.buf.capacity() > KEEP_BUF_BYTES {
            inner.buf = Vec::new();
        }
        drop(guard);
        self.appends.fetch_add(records, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        let m = wal_metrics();
        m.appends.add(records);
        m.bytes.add(bytes);
        Ok(Appended {
            lsn: commit_lsn,
            floor,
        })
    }

    /// Make every record up to `lsn` durable. The group-commit path: a
    /// caller whose LSN is already durable returns immediately
    /// (coalesced); otherwise one leader fsyncs on behalf of everything
    /// appended so far.
    pub fn sync_to(&self, lsn: u64) -> Result<()> {
        if self.durable.load(Ordering::Acquire) >= lsn {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            wal_metrics().coalesced.inc();
            return Ok(());
        }
        let _leader_order = lockorder::acquired(lockorder::WAL_SYNC, false, "WalSync");
        let _leader = self.sync_lock.lock();
        if self.durable.load(Ordering::Acquire) >= lsn {
            // A leader that ran while we waited covered our records.
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            wal_metrics().coalesced.inc();
            return Ok(());
        }
        // Snapshot the appended watermark, then fsync with the append
        // lock *released*: the barrier covers everything appended before
        // it began (`covered`), and followers keep appending — into the
        // next leader's barrier — instead of queueing behind this one.
        let covered = {
            let _o = lockorder::acquired(lockorder::WAL_APPEND, false, "WalAppend");
            self.inner.lock().appended
        };
        self.syncer.wal_sync_now()?;
        self.durable.fetch_max(covered, Ordering::AcqRel);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        wal_metrics().fsyncs.inc();
        Ok(())
    }

    /// Checkpoint: the caller has flushed and synced every data page, so
    /// the log's history is dead weight — truncate it and write a fresh
    /// `Checkpoint` marker (durable) as the new epoch's first record.
    ///
    /// That contract is what makes the next epoch's deltas sound: a
    /// page's first record after the marker is a delta on its disk copy,
    /// so the disk copy must hold every change the truncated log did. A
    /// page still dirty here would lose those changes at recovery. Each
    /// page's next write-back logs an image first.
    pub fn checkpoint_truncate(&self) -> Result<()> {
        let _leader_order = lockorder::acquired(lockorder::WAL_SYNC, false, "WalSync");
        let _leader = self.sync_lock.lock();
        // Truncate + append the marker under the append lock, but fsync
        // through the dup'd syncer fd *after* dropping it: an fsync
        // inside the `inner` critical section would serialise every
        // committer behind the disk (the group-commit bug shape, lint
        // L6). Concurrent appends that land before the sync are merely
        // synced early, and `lsn` is monotone so `fetch_max` is correct.
        let lsn = {
            let _o = lockorder::acquired(lockorder::WAL_APPEND, false, "WalAppend");
            let mut inner = self.inner.lock();
            inner.store.wal_truncate(0)?;
            let lsn = inner.next_lsn;
            // The old epoch's records are gone whether or not the
            // marker lands: no delta may refer to them from here on.
            self.checkpoint_lsn.store(lsn, Ordering::Relaxed);
            let frame = record::encode(lsn, &WalRecord::Checkpoint);
            inner.store.wal_append(&frame)?;
            inner.next_lsn = lsn + 1;
            inner.appended = lsn;
            lsn
        };
        self.syncer.wal_sync_now()?;
        self.durable.fetch_max(lsn, Ordering::AcqRel);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        wal_metrics().fsyncs.inc();
        Ok(())
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> WalStats {
        let (last_lsn, _) = {
            let _o = lockorder::acquired(lockorder::WAL_APPEND, false, "WalAppend");
            let inner = self.inner.lock();
            (inner.next_lsn - 1, inner.appended)
        };
        WalStats {
            last_lsn,
            durable_lsn: self.durable.load(Ordering::Acquire),
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            autocommits: 0,
        }
    }

    /// Current log length in bytes (test/introspection support).
    pub fn log_len(&self) -> Result<u64> {
        let _o = lockorder::acquired(lockorder::WAL_APPEND, false, "WalAppend");
        self.inner.lock().store.wal_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::FileId;

    fn page(b: u8) -> Box<[u8; PAGE_SIZE]> {
        Box::new([b; PAGE_SIZE])
    }

    #[test]
    fn commit_group_appends_and_syncs() {
        let store = MemWalStore::new();
        let wal = Wal::new(Box::new(store.clone()), 1);
        let txn = wal.begin_txn();
        let img = page(0x11);
        let lsn = wal
            .append_commit(txn, &[(PageId::new(FileId(1), 0), &img)])
            .unwrap();
        assert_eq!(lsn, 3, "Begin=1, PageImage=2, Commit=3");
        wal.sync_to(lsn).unwrap();
        let s = wal.stats();
        assert_eq!(s.appends, 3);
        assert_eq!(s.durable_lsn, 3);
        assert_eq!(s.fsyncs, 1);

        let scanned = record::scan(&store.snapshot());
        assert_eq!(scanned.entries.len(), 3);
        assert!(matches!(scanned.entries[2].rec, WalRecord::Commit { .. }));
    }

    #[test]
    fn already_durable_commits_coalesce() {
        let wal = Wal::new(Box::new(MemWalStore::new()), 1);
        let img = page(0x22);
        let a = wal
            .append_commit(wal.begin_txn(), &[(PageId::new(FileId(1), 0), &img)])
            .unwrap();
        let b = wal
            .append_commit(wal.begin_txn(), &[(PageId::new(FileId(1), 1), &img)])
            .unwrap();
        // Syncing the later commit first covers the earlier one: its
        // sync_to is a pure coalesce, no second fsync.
        wal.sync_to(b).unwrap();
        wal.sync_to(a).unwrap();
        let s = wal.stats();
        assert_eq!(s.fsyncs, 1);
        assert_eq!(s.coalesced, 1);
    }

    #[test]
    fn checkpoint_resets_the_log_but_not_the_lsn_space() {
        let store = MemWalStore::new();
        let wal = Wal::new(Box::new(store.clone()), 1);
        let img = page(0x33);
        let lsn = wal
            .append_commit(wal.begin_txn(), &[(PageId::new(FileId(0), 0), &img)])
            .unwrap();
        wal.sync_to(lsn).unwrap();
        wal.checkpoint_truncate().unwrap();
        let scanned = record::scan(&store.snapshot());
        assert_eq!(scanned.entries.len(), 1, "only the checkpoint marker");
        assert_eq!(scanned.entries[0].rec, WalRecord::Checkpoint);
        assert!(scanned.entries[0].lsn > lsn, "LSNs keep rising");
    }

    /// Regression test for the group-commit pipelining bug: the leader
    /// used to hold the append lock across the fsync, so every
    /// concurrent `append_commit` queued behind the barrier. With the
    /// [`WalSyncer`] split, an append must complete while a sync is
    /// blocked in flight (this test deadlocks otherwise).
    #[test]
    fn appends_proceed_while_a_sync_is_in_flight() {
        use std::sync::{Condvar, Mutex as StdMutex};

        #[derive(Default)]
        struct Gate {
            state: StdMutex<(bool, bool)>, // (sync entered, gate open)
            cv: Condvar,
        }

        struct GateSyncer(Arc<Gate>);
        impl store::WalSyncer for GateSyncer {
            fn wal_sync_now(&self) -> Result<()> {
                let mut st = self.0.state.lock().expect("gate poisoned");
                st.0 = true;
                self.0.cv.notify_all();
                while !st.1 {
                    st = self.0.cv.wait(st).expect("gate poisoned");
                }
                Ok(())
            }
        }

        struct SlowSyncStore {
            inner: MemWalStore,
            gate: Arc<Gate>,
        }
        impl WalStore for SlowSyncStore {
            fn wal_append(&mut self, bytes: &[u8]) -> Result<()> {
                self.inner.wal_append(bytes)
            }
            fn wal_sync(&mut self) -> Result<()> {
                self.inner.wal_sync()
            }
            fn wal_read_all(&mut self) -> Result<Vec<u8>> {
                self.inner.wal_read_all()
            }
            fn wal_truncate(&mut self, len: u64) -> Result<()> {
                self.inner.wal_truncate(len)
            }
            fn wal_len(&mut self) -> Result<u64> {
                self.inner.wal_len()
            }
            fn wal_syncer(&self) -> Box<dyn store::WalSyncer> {
                Box::new(GateSyncer(Arc::clone(&self.gate)))
            }
        }

        let gate = Arc::new(Gate::default());
        let wal = Arc::new(Wal::new(
            Box::new(SlowSyncStore {
                inner: MemWalStore::new(),
                gate: Arc::clone(&gate),
            }),
            1,
        ));
        let img = page(0x44);
        let a = wal
            .append_commit(wal.begin_txn(), &[(PageId::new(FileId(1), 0), &img)])
            .unwrap();
        let leader = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.sync_to(a).unwrap())
        };
        {
            let mut st = gate.state.lock().expect("gate poisoned");
            while !st.0 {
                st = gate.cv.wait(st).expect("gate poisoned");
            }
        }
        // Leader is parked inside the barrier: a follower append must
        // still complete, and the in-flight barrier must not cover it.
        let b = wal
            .append_commit(wal.begin_txn(), &[(PageId::new(FileId(1), 1), &img)])
            .unwrap();
        assert_eq!(wal.stats().durable_lsn, 0, "barrier not finished yet");
        {
            let mut st = gate.state.lock().expect("gate poisoned");
            st.1 = true;
            gate.cv.notify_all();
        }
        leader.join().unwrap();
        let s = wal.stats();
        assert!(s.durable_lsn >= a, "barrier covered the pre-sync append");
        assert!(
            s.durable_lsn < b,
            "bytes appended mid-barrier are not claimed"
        );
        wal.sync_to(b).unwrap();
        assert!(wal.stats().durable_lsn >= b);
    }

    #[test]
    fn group_commit_coalesces_across_threads() {
        let wal = Arc::new(Wal::new(Box::new(MemWalStore::new()), 1));
        let threads = 8;
        let per = 20;
        std::thread::scope(|s| {
            for t in 0..threads {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    let img = page(t as u8);
                    for i in 0..per {
                        let lsn = wal
                            .append_commit(
                                wal.begin_txn(),
                                &[(PageId::new(FileId(1), (t * per + i) as u32), &img)],
                            )
                            .unwrap();
                        wal.sync_to(lsn).unwrap();
                    }
                });
            }
        });
        let s = wal.stats();
        assert_eq!(s.appends, (threads * per * 3) as u64);
        assert_eq!(s.durable_lsn, s.last_lsn);
        assert_eq!(
            s.fsyncs + s.coalesced,
            (threads * per) as u64,
            "every commit either fsynced or coalesced"
        );
    }
}
