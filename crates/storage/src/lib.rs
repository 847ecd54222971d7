//! # fieldrep-storage
//!
//! A page-based storage manager modelled on the EXODUS storage manager
//! \[Care86\], which is the substrate assumed by Shekita & Carey's *field
//! replication* paper (SIGMOD 1989).
//!
//! The crate provides:
//!
//! * fixed 4 KiB [`page`]s with a slotted layout whose constants reproduce
//!   the paper's cost-model parameters exactly: `B = 4056` bytes of user
//!   data per page and `h = 20` bytes of per-object overhead (a 4-byte slot
//!   plus a 16-byte record header);
//! * physical 8-byte [`Oid`]s (`file`, `page`, `slot`) — the paper assumes
//!   "object identifiers (OIDs) are used to implement reference attributes"
//!   and that OIDs are *physically based, as they are in EXODUS* (§4.1);
//! * a [`DiskManager`] abstraction with in-memory and real-file backends,
//!   both of which count page reads and writes — the paper's evaluation
//!   metric is page I/O, so accounting is built into the lowest layer;
//! * a [`BufferPool`] with clock eviction and pin/unpin page handles;
//! * [`HeapFile`] record management (insert / read / update / delete, and
//!   a physical-order listing of OIDs that asks for each page once) with
//!   RID forwarding so that OIDs remain stable when records grow — which
//!   happens routinely under *in-place replication*, where hidden replica
//!   fields are appended to objects;
//! * one batched walk over a physically-sorted OID run,
//!   [`StorageManager::visit_sorted`], which every read join and
//!   propagation fan-out takes: each page requested once, a chunk's
//!   pages pinned in one batch and their records' cache lines warmed
//!   before the first visit.
//!
//! Everything above this crate (B⁺-trees, the replication engine, query
//! processing) does its I/O through [`StorageManager`], so a single pair of
//! counters ([`IoStats`]) observes every page touched by an experiment.

mod batch;
pub mod buffer;
pub mod checksum;
pub mod disk;
pub mod error;
pub mod fault;
pub mod heap;
pub mod lockorder;
pub mod oid;
pub mod page;
mod pins;
pub mod stats;
pub mod wal;

pub use batch::BatchItem;
pub use buffer::{BufferPool, PageHandle, PoolStats};
pub use disk::{remove_db_dir, DiskManager, FileDisk, MemDisk};
pub use error::{Result, StorageError};
pub use fault::{FaultDisk, FaultPlan};
pub use heap::{HeapFile, RecordEdit};
pub use oid::{FileId, Oid, PageId};
pub use page::{
    PageKind, PageMut, PageView, RecordFlags, RecordHeader, MAX_RECORD_PAYLOAD, MIN_RECORD_PAYLOAD,
    OBJECT_OVERHEAD, PAGE_HEADER_SIZE, PAGE_SIZE, RECORD_HEADER_SIZE, SLOT_SIZE,
    USER_BYTES_PER_PAGE,
};
pub use pins::PagePins;
pub use stats::{IoProfile, IoStats};
pub use wal::{FileWalStore, MemWalStore, RecoveryReport, Wal, WalStats, WalStore, WalSyncer};

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The storage manager: a buffer pool plus per-file free-space tracking and
/// the heap-file record interface used by every higher layer.
///
/// All object and index I/O in the system flows through one
/// `StorageManager`, which is what makes the benchmark harness able to
/// report exact page-I/O counts per query (the paper's cost metric).
///
/// The manager is shared: every method takes `&self`, so concurrent
/// transactions operate on one `StorageManager` without external locking.
/// The pool has its own interior synchronization (see [`BufferPool`]);
/// the free-space placement state sits behind a private mutex accessed
/// through short closures, and only influences *placement* — page-level
/// correctness is always guaranteed by the per-page write latch.
pub struct StorageManager {
    pool: BufferPool,
    /// Per-file insert placement state (append page + recycled pages).
    /// This is an in-memory structure, rebuilt on open; durability of the
    /// *pages* is the WAL's job (see [`wal`]).
    free_space: Mutex<HashMap<FileId, heap::FileSpace>>,
    /// What recovery found when this manager was opened with a WAL.
    recovery: RecoveryReport,
}

impl StorageManager {
    /// Create a storage manager over the given disk backend with a buffer
    /// pool of `pool_pages` frames and no durability layer.
    pub fn new(disk: Box<dyn DiskManager>, pool_pages: usize) -> Self {
        StorageManager {
            pool: BufferPool::new(disk, pool_pages),
            free_space: Mutex::new(HashMap::new()),
            recovery: RecoveryReport::default(),
        }
    }

    /// Create a durable storage manager: run crash [`wal::recover`]y
    /// against `disk` and `store` (replaying any committed transactions
    /// a crash left in the log), then construct the pool with the WAL
    /// attached so every subsequent write-back obeys the steal rule.
    pub fn new_with_wal(
        mut disk: Box<dyn DiskManager>,
        mut store: Box<dyn WalStore>,
        pool_pages: usize,
    ) -> Result<Self> {
        let report = wal::recover(disk.as_mut(), store.as_mut())?;
        let w = Arc::new(Wal::new(store, report.last_lsn + 1));
        Ok(StorageManager {
            pool: BufferPool::new_with_wal(disk, pool_pages, Some(w)),
            free_space: Mutex::new(HashMap::new()),
            recovery: report,
        })
    }

    /// The WAL, if this manager was opened with one.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.pool.wal()
    }

    /// Whether a durability layer is attached.
    pub fn wal_enabled(&self) -> bool {
        self.pool.wal().is_some()
    }

    /// What recovery found and did when this manager was opened (all
    /// zeros without a WAL or after a clean shutdown).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// Point-in-time WAL counters (zeros when no WAL is attached).
    pub fn wal_stats(&self) -> WalStats {
        self.pool.wal().map(|w| w.stats()).unwrap_or_default()
    }

    /// Checkpoint: log what no commit has logged yet as one commit, write
    /// back every dirty page (each gated on its log records being
    /// durable, the images their write-backs need logged first in one
    /// group), fsync the data files, then truncate the log — after this
    /// the WAL is empty and the on-disk state alone is the database. One
    /// apply section covers it all, so no commit lands between the flush
    /// and the truncation. Without a WAL this is a flush plus a disk sync
    /// (still a real durability barrier on a [`FileDisk`]).
    pub fn checkpoint(&self) -> Result<()> {
        self.pool.checkpoint()
    }

    /// Convenience constructor: an in-memory disk, suitable for tests and
    /// for the simulation benchmarks (I/O is still counted).
    pub fn in_memory(pool_pages: usize) -> Self {
        Self::new(Box::new(MemDisk::new()), pool_pages)
    }

    /// Access the underlying buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Enter the apply section: the one way to get the [`ApplySection`]
    /// every storage mutator demands. Under a WAL this takes the apply
    /// lock ([`Wal::apply_lock`]) until the section drops; without one
    /// it takes nothing.
    pub fn apply_section(&self) -> ApplySection<'_> {
        ApplySection {
            sm: self,
            _apply: self.wal().map(|w| w.apply_lock()),
        }
    }

    /// Create a new, empty file and return its id.
    pub fn create_file(&self) -> Result<FileId> {
        let f = self.pool.create_file()?;
        self.free_space.lock().insert(f, heap::FileSpace::default());
        Ok(f)
    }

    /// Drop a file and all its pages.
    pub fn drop_file(&self, file: FileId) -> Result<()> {
        self.free_space.lock().remove(&file);
        self.pool.drop_file(file)
    }

    /// Number of allocated pages in `file`.
    pub fn page_count(&self, file: FileId) -> Result<u32> {
        self.pool.page_count(file)
    }

    /// Combined I/O statistics (disk + buffer pool) since the last reset.
    pub fn io_profile(&self) -> IoProfile {
        self.pool.io_profile()
    }

    /// Reset the whole I/O profile (disk and pool counters together); see
    /// [`BufferPool::reset_profile`]. This is the reset the benchmark
    /// harness uses for cold-pool accounting between queries.
    pub fn reset_profile(&self) {
        self.pool.reset_profile();
    }

    /// Write back every dirty page and empty the buffer pool, so that the
    /// next query starts cold. The paper's cost model charges one read for
    /// every page a query needs; a cold pool makes measured I/O comparable.
    pub fn flush_all(&self) -> Result<()> {
        self.pool.flush_all()
    }

    /// Run `f` with exclusive access to `file`'s free-space placement
    /// state. The closure must not touch the pool (placement decisions
    /// and page I/O are deliberately decoupled so the free-space mutex is
    /// never held across a disk access).
    pub(crate) fn with_free_space<R>(
        &self,
        file: FileId,
        f: impl FnOnce(&mut heap::FileSpace) -> R,
    ) -> R {
        let mut map = self.free_space.lock();
        f(map.entry(file).or_default())
    }
}

/// Proof that its holder is inside the apply section, made only by
/// [`StorageManager::apply_section`]. Every storage mutator takes one —
/// [`HeapFile::rec_insert`], [`HeapFile::rec_update`],
/// [`HeapFile::rec_delete`], [`HeapFile::edit_pinned`] and the B⁺-tree's
/// `create`, `insert`, `delete` and `bulk_load` — so a write path that
/// skipped the section does not compile. It dereferences to the storage
/// manager for the reads a writer makes.
///
/// ```
/// # use fieldrep_storage::{HeapFile, PagePins, StorageManager};
/// let sm = StorageManager::in_memory(4);
/// let hf = HeapFile::create(&sm).unwrap();
/// let w = sm.apply_section();
/// hf.rec_insert(&w, &PagePins::none(), 1, b"row").unwrap();
/// ```
///
/// ```compile_fail,E0308
/// # use fieldrep_storage::{HeapFile, PagePins, StorageManager};
/// let sm = StorageManager::in_memory(4);
/// let hf = HeapFile::create(&sm).unwrap();
/// hf.rec_insert(&sm, &PagePins::none(), 1, b"row").unwrap(); // no section, no write
/// ```
pub struct ApplySection<'a> {
    sm: &'a StorageManager,
    _apply: Option<wal::ApplyGuard<'a>>,
}

impl std::ops::Deref for ApplySection<'_> {
    type Target = StorageManager;

    fn deref(&self) -> &StorageManager {
        self.sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batch::oid_page_chunks;

    #[test]
    fn constants_match_paper() {
        // Figure 10 of the paper: B = 4056, h = 20.
        assert_eq!(USER_BYTES_PER_PAGE, 4056);
        assert_eq!(OBJECT_OVERHEAD, 20);
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(std::mem::size_of::<Oid>(), 8);
    }

    #[test]
    fn oid_page_chunks_groups_by_page_and_caps_distinct_pages() {
        let f = FileId(1);
        let oid = |page, slot| Oid::new(f, page, slot);
        let oids = [
            oid(0, 0),
            oid(0, 1),
            oid(0, 2),
            oid(1, 0),
            oid(2, 0),
            oid(2, 1),
            oid(5, 0),
        ];
        let all = |items: &[Oid], max_pages| {
            let mut chunks = oid_page_chunks(items, max_pages);
            let mut out = Vec::new();
            while let Some((range, pages)) = chunks.next_chunk() {
                out.push((range, pages.to_vec()));
            }
            out
        };
        let chunks = all(&oids, 2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].0, 0..4);
        assert_eq!(
            chunks[0].1,
            vec![PageId::new(f, 0), PageId::new(f, 1)],
            "distinct pages only, co-located OIDs stay together"
        );
        assert_eq!(chunks[1].0, 4..7);
        assert_eq!(chunks[1].1, vec![PageId::new(f, 2), PageId::new(f, 5)]);
        // max_pages is clamped to at least one page per chunk.
        assert_eq!(all(&oids, 0).len(), 4);
        assert!(all(&[], 4).is_empty());
        // Items carry their OID: the pairs a batched read sorts.
        let pairs: Vec<(Oid, usize)> = oids.iter().copied().zip(0..).collect();
        let mut chunks = oid_page_chunks(&pairs, 8);
        assert_eq!(
            chunks.next_chunk().map(|(r, p)| (r, p.len())),
            Some((0..7, 4))
        );
        assert!(chunks.next_chunk().is_none());
    }

    #[test]
    fn create_and_drop_files() {
        let sm = StorageManager::in_memory(16);
        let a = sm.create_file().unwrap();
        let b = sm.create_file().unwrap();
        assert_ne!(a, b);
        assert_eq!(sm.page_count(a).unwrap(), 0);
        sm.drop_file(a).unwrap();
        assert!(sm.page_count(a).is_err());
        assert_eq!(sm.page_count(b).unwrap(), 0);
    }
}
