//! Buffer pool with clock eviction, pinned page handles, and batched
//! reads.
//!
//! Pages are served through [`PageHandle`]s. A handle pins its frame: the
//! clock hand skips pinned frames, so on-page references stay valid while a
//! caller holds the handle. Handles are cheap `Arc` clones; dropping the
//! last clone unpins the frame.
//!
//! Eviction is one clock over all frames: the victim is the first
//! unpinned, unreferenced frame from the hand, and an allocation fails
//! only when every frame in the pool is pinned.
//!
//! A frame has one way in and one way out. A miss claims a victim frame
//! per page and maps the page to it (`claim`), reads the pages with one
//! [`DiskManager::read_pages`] call, verifies each page's checksum and
//! takes its state from its header, and releases every claimed frame on
//! any error (`load`). [`BufferPool::fetch`] takes that path for a run
//! of one page; [`BufferPool::get_pages_batch`], the batched read the
//! paper's sorted link objects make possible (§4.1.3), splits a sorted
//! page-id run into maximal adjacent runs of missing pages and takes it
//! once per run. Only how the read's buffers are gathered depends on the
//! run's length. Every write-back — an eviction, `flush_page`,
//! `flush_all` — is one `write_back`, and every frame leaves its page
//! through one `release`.
//!
//! The pool tracks hits, misses, and eviction write-backs. Together with
//! the disk manager's physical counters this is the complete I/O profile
//! the benchmark harness reports. Batched and per-page paths record the
//! identical per-page events, so page-I/O totals are independent of the
//! access path; only the grouped-call count (`IoStats::read_calls`) and
//! the `storage.disk.batch_len` histogram reveal the batching. A fetch
//! counts its miss before it claims a frame (a fetch the pool cannot
//! serve is still a miss); a batch counts a run's misses once the run is
//! in.
//!
//! # Concurrency
//!
//! The pool is shared (`&self` everywhere): all frame *metadata* — the
//! resident map, clock hand, victim selection, and the disk manager —
//! lives behind one [`Mutex<PoolCore>`]. Keeping that state under a single
//! lock makes every single-threaded run take exactly the eviction
//! decisions and count exactly the I/O events the pre-concurrency pool
//! did (the bit-identical page-I/O invariant that
//! `crates/bench/tests/baseline.rs` pins against `BENCH_BASELINE.json`).
//! Page *bytes* stay parallel: the core mutex is released before the
//! caller touches data, and reads/writes go through each frame's own
//! `RwLock<PageBuf>`, so concurrent readers of distinct (or the same)
//! resident pages never serialize on the pool. The lock order is
//! `PoolCore` → frame data, and the pool only data-locks unpinned frames
//! (write-back) or ones it has just claimed (`load`, `new_page`), so a
//! caller holding a pinned page's guard can never deadlock against the
//! pool.
//! The caller's half of that order is one rule — never enter the pool
//! holding a frame write latch — which [`lockorder`] asserts in debug
//! builds and lint rule L5 checks statically.
//!
//! With a WAL attached the order grows a head: **apply section →
//! `PoolCore`**. Flushes take the apply section before the core lock and
//! log any unlogged pages as one commit before writing back.
//!
//! # What a commit logs
//!
//! A frame is **unlogged** from its first write after its last log
//! record until a commit logs it. Every engine operation logs its pages
//! as one commit before it leaves the apply section, so an unlogged
//! frame belongs to an operation still in flight (or to a commit whose
//! logging failed): it is never an eviction victim (see `find_victim`).
//! The false→true transition happens in [`PageHandle::data_mut`], under
//! the frame latch, and sets the frame's bit in the pool's lock-free
//! [`UnloggedSet`] when a WAL is attached; [`BufferPool::log_txn_commit`]
//! drains the set, so a commit costs its write set, not a walk of the
//! pool under the core lock.
//!
//! A [`PageWriteGuard`] hands out only writes that mark the 64-byte lines
//! they touch, and ORs its marks into the frame's **line mask** as it
//! drops: the lines written since the page's last log record, which a
//! commit copies straight from the frame as the page's delta.
//!
//! A delta needs a **base** for recovery to patch: the page's disk copy,
//! or an image logged in the current epoch. A frame knows whether its page
//! has a disk copy and the LSN of its newest full copy, so a commit logs a
//! fresh page as an image and every other page as a delta; and a
//! write-back logs the page's image first when the epoch holds none (see
//! `write_back_frame`), because a torn write can destroy the disk copy.

use crate::checksum;
use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::lockorder;
use crate::oid::{FileId, PageId};
use crate::page::{lines_of, PageMut, PAGE_SIZE};
use crate::stats::IoProfile;
use crate::wal::{PageLog, Wal};
use fieldrep_obs::{io as obs_io, metrics, names as obs_names};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A page buffer: the unit the pool caches.
///
/// Frames are separate heap pages with the allocator's 16-byte
/// alignment, on purpose: do not make them 4 KiB-aligned. Two probes
/// that did read 5–12 % slower on every `stmt_hot` read metric
/// (EXPERIMENTS.md, "Read-path allocations"), most likely because every
/// page header then maps to the same cache sets, so the first touch of
/// each record (`PageView::locate`) misses more. A batched visit takes
/// that first touch off the critical path: its warm pass asks for a
/// chunk's header, slot and record lines before the first record is
/// read (`StorageManager::visit_sorted`).
pub type PageBuf = Box<[u8; PAGE_SIZE]>;

/// Cap on one grouped disk read, in pages (256 KiB): bounds the frames a
/// single batch pins and the size of a vectored transfer.
const MAX_BATCH_RUN: usize = 64;

/// Process-wide pool instruments, registered once in the obs registry.
struct PoolMetrics {
    /// `storage.disk.batch_len`: pages per grouped disk read.
    batch_len: Arc<metrics::Histogram>,
    /// `storage.checksum.failures`: pages that failed CRC verification
    /// on read.
    checksum_failures: Arc<metrics::Counter>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metrics::registry();
        PoolMetrics {
            batch_len: r.histogram(
                obs_names::STORAGE_DISK_BATCH_LEN,
                &[1, 2, 4, 8, 16, 32, 64, 128],
            ),
            checksum_failures: r.counter(obs_names::STORAGE_CHECKSUM_FAILURES),
        }
    })
}

/// Runtime lock-order token for the pool metadata mutex (rank
/// [`lockorder::POOL_CORE`]); bound right before each `core.lock()`.
fn core_order() -> lockorder::Held {
    lockorder::acquired(lockorder::POOL_CORE, false, "PoolCore")
}

/// One bit per frame: the frames that went unlogged since the last
/// commit drained the set. A set bit is a hint — the drain re-checks the
/// frame's flags — but an unlogged frame's bit is always set.
struct UnloggedSet {
    words: Box<[AtomicU64]>,
}

impl UnloggedSet {
    fn new(frames: usize) -> UnloggedSet {
        UnloggedSet {
            words: (0..frames.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// `Release`, paired with the `Acquire` in [`UnloggedSet::drain`]:
    /// a drainer that sees the bit also sees the `unlogged` flag
    /// stored before it.
    fn insert(&self, frame: usize) {
        self.words[frame / 64].fetch_or(1 << (frame % 64), Ordering::Release);
    }

    /// Take every member out of the set, in frame order.
    fn drain(&self, mut f: impl FnMut(usize)) {
        for (w, word) in self.words.iter().enumerate() {
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::Acquire);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// What every frame of a pool shares.
struct PoolShared {
    /// The WAL, if durability is enabled (fixed at construction).
    wal: Option<Arc<Wal>>,
    unlogged: UnloggedSet,
}

/// `pid` value of a frame that holds no page.
const NO_PAGE: u64 = u64::MAX;

/// A page id in one word, `file << 32 | page`: what a frame stores and
/// what the resident map is keyed by.
fn pack(pid: PageId) -> u64 {
    (u64::from(pid.file.0) << 32) | u64::from(pid.page)
}

/// Hasher of the resident map: one multiply of a [`pack`]ed page id
/// (Fibonacci hashing, the high half folded down). The keys are the
/// pool's own, never input, so SipHash's collision defence buys nothing.
#[derive(Default)]
struct PidHasher(u64);

impl Hasher for PidHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not taken for the `u64` keys hashed here.
        self.0 = bytes.iter().fold(self.0, |h, &b| (h << 8) | u64::from(b));
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

struct FrameInner {
    /// This frame's index in the pool.
    idx: usize,
    pool: Arc<PoolShared>,
    data: RwLock<PageBuf>,
    /// The resident page, packed (`file << 32 | page`), or [`NO_PAGE`].
    /// Written only under `PoolCore`; the commit path reads it without
    /// that lock, for frames the apply section keeps from being evicted
    /// (those two locks order the accesses, hence `Relaxed`).
    pid: AtomicU64,
    dirty: AtomicBool,
    pins: AtomicU32,
    /// Dirty but not yet covered by any WAL record. Set on the first
    /// write after the last record, cleared when a commit logs the
    /// page. Never set when the pool has no WAL.
    unlogged: AtomicBool,
    /// The line mask (see the module docs). Set under the frame's write
    /// latch, read and cleared under its read latch: the latch orders
    /// the accesses, hence `Relaxed`. Cleared when a commit has logged
    /// the page and when the frame gets another page.
    lines: AtomicU64,
    /// LSN of the last commit record covering this page; the steal
    /// rule requires it durable before write-back, and write-back
    /// stamps it into the page header.
    lsn: AtomicU64,
    /// The page has a disk copy: it was read from disk or written back.
    on_disk: AtomicBool,
    /// LSN of the page's newest full copy: its last logged image, or its
    /// disk copy's header LSN (0: none). Like `lsn`, written by a commit
    /// under the apply section and by a write-back under `PoolCore`,
    /// which never meet on one frame.
    base: AtomicU64,
}

impl FrameInner {
    fn pid(&self) -> Option<PageId> {
        match self.pid.load(Ordering::Relaxed) {
            NO_PAGE => None,
            p => Some(PageId::new(FileId((p >> 32) as u16), p as u32)),
        }
    }

    fn set_pid(&self, pid: Option<PageId>) {
        self.pid.store(pid.map_or(NO_PAGE, pack), Ordering::Relaxed);
    }

    /// The frame's page as a commit hands it to the log.
    fn page_log<'a>(&self, page: PageId, image: &'a [u8; PAGE_SIZE]) -> PageLog<'a> {
        PageLog {
            page,
            image,
            on_disk: self.on_disk.load(Ordering::Relaxed),
            base: self.base.load(Ordering::Relaxed),
            lines: self.lines.load(Ordering::Relaxed),
        }
    }

    /// Whether the page's next write-back must log its image first: the
    /// epoch whose marker is at `floor` holds no full copy of it.
    fn needs_image(&self, floor: u64) -> bool {
        self.base.load(Ordering::Relaxed) <= floor
    }

    /// Start the frame's state over for the page it now holds: read from
    /// disk with header LSN `Some(lsn)`, or new (`None`). Either way it is
    /// clean and logged, with no lines written.
    fn reset_state(&self, disk_lsn: Option<u64>) {
        let lsn = disk_lsn.unwrap_or(0);
        self.lsn.store(lsn, Ordering::Relaxed);
        self.base.store(lsn, Ordering::Relaxed);
        self.on_disk.store(disk_lsn.is_some(), Ordering::Relaxed);
        self.dirty.store(false, Ordering::Relaxed);
        self.unlogged.store(false, Ordering::Relaxed);
        self.lines.store(0, Ordering::Relaxed);
    }

    /// Flag the frame unlogged; on the false→true transition (its first
    /// write since its last log record) put it in the unlogged set.
    /// Nothing when the pool has no WAL.
    fn mark_unlogged(&self) {
        if self.pool.wal.is_some() && !self.unlogged.swap(true, Ordering::Relaxed) {
            self.pool.unlogged.insert(self.idx);
        }
    }
}

/// Write guard over a page's bytes, returned by [`PageHandle::data_mut`].
///
/// Dereferences to the page buffer for reading. Every write marks the
/// lines it touches — [`PageWriteGuard::page`]'s slotted-page writes,
/// one byte (`guard[i] = b`), or [`PageWriteGuard::whole_mut`] — and the
/// guard adds its marks to the frame's line mask as it drops, so a
/// commit logs exactly the lines written. There is no unmarked `&mut`
/// to the page:
///
/// ```
/// # let sm = fieldrep_storage::StorageManager::in_memory(4);
/// # let (_, h) = sm.pool().new_page(sm.create_file().unwrap()).unwrap();
/// h.data_mut().whole_mut().fill(0xFF); // every line marked
/// h.data_mut()[64] = 1; // line 1 marked
/// ```
///
/// ```compile_fail
/// # let sm = fieldrep_storage::StorageManager::in_memory(4);
/// # let (_, h) = sm.pool().new_page(sm.create_file().unwrap()).unwrap();
/// h.data_mut().fill(0xFF); // a write no line records
/// ```
///
/// While it lives the thread holds a [`lockorder::FRAME_DATA`] rank, so
/// debug builds trip on any re-entry into the pool (lint rule L5 is the
/// static form of the same rule).
pub struct PageWriteGuard<'a> {
    page: RwLockWriteGuard<'a, PageBuf>,
    /// The frame's line mask.
    lines: &'a AtomicU64,
    /// The lines this guard has written.
    marks: u64,
    _order: lockorder::Held,
}

impl PageWriteGuard<'_> {
    /// Run `f` on the page as a slotted page; the lines it writes are
    /// marked.
    pub fn page<R>(&mut self, f: impl FnOnce(&mut PageMut<'_>) -> R) -> R {
        let mut pg = PageMut::new(&mut self.page[..]);
        let r = f(&mut pg);
        self.marks |= pg.written();
        r
    }

    /// The whole page, every line marked: for pages written whole
    /// (B⁺-tree nodes), which a commit then logs as images.
    pub fn whole_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.marks = u64::MAX;
        &mut self.page
    }
}

impl std::ops::Deref for PageWriteGuard<'_> {
    type Target = PageBuf;
    fn deref(&self) -> &PageBuf {
        &self.page
    }
}

impl std::ops::Index<usize> for PageWriteGuard<'_> {
    type Output = u8;
    fn index(&self, i: usize) -> &u8 {
        &self.page[i]
    }
}

impl std::ops::IndexMut<usize> for PageWriteGuard<'_> {
    /// One byte, its line marked.
    fn index_mut(&mut self, i: usize) -> &mut u8 {
        self.marks |= lines_of(i, 1);
        &mut self.page[i]
    }
}

impl Drop for PageWriteGuard<'_> {
    fn drop(&mut self) {
        // Still under the latch: a commit reads the mask under it.
        if self.marks != 0 {
            self.lines.fetch_or(self.marks, Ordering::Relaxed);
        }
    }
}

/// Read guard over a page's bytes, returned by [`PageHandle::data`].
pub struct PageReadGuard<'a>(RwLockReadGuard<'a, PageBuf>);

impl std::ops::Deref for PageReadGuard<'_> {
    type Target = PageBuf;
    fn deref(&self) -> &PageBuf {
        &self.0
    }
}

/// A pinned reference to a buffered page.
///
/// While any clone of the handle is alive the page cannot be evicted.
/// Reading goes through [`PageHandle::data`]; writing through
/// [`PageHandle::data_mut`], which also marks the frame dirty so the pool
/// writes it back on eviction or flush.
pub struct PageHandle {
    inner: Arc<FrameInner>,
    /// The page this handle refers to (for diagnostics).
    pub pid: PageId,
}

impl PageHandle {
    /// Pin `frame`, which holds page `pid`.
    fn pin(frame: &Arc<FrameInner>, pid: PageId) -> PageHandle {
        frame.pins.fetch_add(1, Ordering::Relaxed);
        PageHandle {
            inner: Arc::clone(frame),
            pid,
        }
    }

    /// Shared read access to the page bytes.
    pub fn data(&self) -> PageReadGuard<'_> {
        PageReadGuard(self.inner.data.read())
    }

    /// Exclusive write access; marks the page dirty.
    pub fn data_mut(&self) -> PageWriteGuard<'_> {
        let order = lockorder::acquired(lockorder::FRAME_DATA, true, "FrameData");
        let page = self.inner.data.write();
        // The dirty store must come *after* lock acquisition: flagging
        // first would let a flush racing with a still-blocked writer
        // count a spurious write-back for a page that hasn't changed.
        self.inner.dirty.store(true, Ordering::Relaxed);
        self.inner.mark_unlogged();
        PageWriteGuard {
            page,
            lines: &self.inner.lines,
            marks: 0,
            _order: order,
        }
    }

    /// Whether the frame is currently marked dirty (write-back pending).
    pub fn is_dirty(&self) -> bool {
        self.inner.dirty.load(Ordering::Relaxed)
    }
}

impl Clone for PageHandle {
    fn clone(&self) -> Self {
        self.inner.pins.fetch_add(1, Ordering::Relaxed);
        PageHandle {
            inner: Arc::clone(&self.inner),
            pid: self.pid,
        }
    }
}

impl Drop for PageHandle {
    fn drop(&mut self) {
        self.inner.pins.fetch_sub(1, Ordering::Relaxed);
    }
}

struct Frame {
    inner: Arc<FrameInner>,
    referenced: bool,
}

/// The buffer pool: a fixed set of frames over a [`DiskManager`].
///
/// All methods take `&self`: frame metadata and the disk live behind one
/// internal mutex (see the module docs), while page bytes are accessed in
/// parallel through the per-frame locks of the returned [`PageHandle`]s.
pub struct BufferPool {
    core: Mutex<PoolCore>,
    /// Every frame by index, for the commit path (which resolves the
    /// unlogged set without the core lock). Fixed at construction.
    frames: Box<[Arc<FrameInner>]>,
    /// The WAL and the unlogged set (readable without locking).
    shared: Arc<PoolShared>,
    /// Frame count (fixed at construction; readable without locking).
    capacity: usize,
}

/// All lock-protected pool state: frames, the clock hand, the resident
/// map, counters, and the disk.
struct PoolCore {
    frames: Vec<Frame>,
    /// Clock hand: the frame the next victim search starts at.
    clock: usize,
    /// Resident pages ([`pack`]ed) → frame index.
    map: HashMap<u64, usize, BuildHasherDefault<PidHasher>>,
    disk: Box<dyn DiskManager>,
    shared: Arc<PoolShared>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Log the images of `frames` as one committed group — an image a later
/// torn write-back cannot destroy — and make it their newest full copy.
/// Does not fsync: the write-back's [`Wal::sync_to`] does.
fn log_images(wal: &Wal, frames: &[(PageId, &FrameInner)]) -> Result<()> {
    if frames.is_empty() {
        return Ok(());
    }
    let bufs: Vec<RwLockReadGuard<'_, PageBuf>> =
        frames.iter().map(|(_, f)| f.data.read()).collect();
    let pages: Vec<(PageId, &[u8; PAGE_SIZE])> = frames
        .iter()
        .zip(&bufs)
        .map(|(&(pid, _), buf)| (pid, &***buf))
        .collect();
    let lsn = wal.append_commit(wal.begin_txn(), &pages)?;
    for (_, f) in frames {
        f.lsn.store(lsn, Ordering::Relaxed);
        f.base.store(lsn, Ordering::Relaxed);
    }
    Ok(())
}

/// Write one frame's bytes back to `pid`, enforcing the WAL steal rule
/// and stamping the durability header (LSN + CRC) into a stack copy —
/// the resident frame bytes are never mutated, so concurrent readers
/// under the frame's read lock see a stable image. The page's first
/// write-back in a log epoch logs its image first, so that a torn write
/// leaves recovery an image to start from.
fn write_back_frame(
    disk: &mut dyn DiskManager,
    wal: Option<&Wal>,
    pid: PageId,
    inner: &FrameInner,
) -> Result<()> {
    if let Some(w) = wal {
        debug_assert!(!inner.unlogged.load(Ordering::Relaxed), "steal of {pid}");
        if inner.needs_image(w.checkpoint_lsn()) {
            log_images(w, &[(pid, inner)])?;
        }
        // The steal rule: covering log records must be durable before
        // the page image may overwrite its disk home.
        w.sync_to(inner.lsn.load(Ordering::Relaxed))?;
    }
    let lsn = inner.lsn.load(Ordering::Relaxed);
    let mut copy: [u8; PAGE_SIZE] = **inner.data.read();
    checksum::stamp(&mut copy, lsn);
    disk.write_page(pid, &copy)?;
    inner.on_disk.store(true, Ordering::Relaxed);
    inner.base.fetch_max(lsn, Ordering::Relaxed);
    Ok(())
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `disk`, with no WAL.
    pub fn new(disk: Box<dyn DiskManager>, capacity: usize) -> Self {
        Self::new_with_wal(disk, capacity, None)
    }

    /// Create a pool of `capacity` frames over `disk`. When `wal` is
    /// given, every write-back enforces the steal rule (log records
    /// durable first; unlogged dirty pages are never evicted).
    pub fn new_with_wal(
        disk: Box<dyn DiskManager>,
        capacity: usize,
        wal: Option<Arc<Wal>>,
    ) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let shared = Arc::new(PoolShared {
            wal,
            unlogged: UnloggedSet::new(capacity),
        });
        let inners: Box<[Arc<FrameInner>]> = (0..capacity)
            .map(|idx| {
                Arc::new(FrameInner {
                    idx,
                    pool: Arc::clone(&shared),
                    data: RwLock::new(Box::new([0u8; PAGE_SIZE])),
                    pid: AtomicU64::new(NO_PAGE),
                    dirty: AtomicBool::new(false),
                    pins: AtomicU32::new(0),
                    unlogged: AtomicBool::new(false),
                    lines: AtomicU64::new(0),
                    lsn: AtomicU64::new(0),
                    on_disk: AtomicBool::new(false),
                    base: AtomicU64::new(0),
                })
            })
            .collect();
        let frames = inners
            .iter()
            .map(|inner| Frame {
                inner: Arc::clone(inner),
                referenced: false,
            })
            .collect();
        BufferPool {
            core: Mutex::new(PoolCore {
                frames,
                clock: 0,
                map: HashMap::default(),
                disk,
                shared: Arc::clone(&shared),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            frames: inners,
            shared,
            capacity,
        }
    }

    /// The pool's WAL, if durability is enabled.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.shared.wal.as_ref()
    }

    /// Issue a durability barrier on the backing disk (fsync every data
    /// file on a [`crate::FileDisk`]).
    fn sync_disk(&self) -> Result<()> {
        let _o = core_order();
        self.core.lock().disk.sync()
    }

    /// Log the current set of dirty-but-unlogged pages as one committed
    /// transaction and return its commit LSN (`None` when the pool has
    /// no WAL or the commit touched no pages). The caller must hold the
    /// WAL's serialized apply section, inside which every engine write
    /// path runs and logs its own pages — so the unlogged set is the
    /// committing operation's write set plus, possibly, the leftovers
    /// of an earlier commit whose logging failed. No half-applied
    /// operation's page can be captured, and unlogged frames being
    /// unevictable, none of the set can change frames underneath the
    /// commit. Each page is logged as its marked lines where it has a
    /// base ([`PageLog::is_image`]), as a full image otherwise. Does
    /// **not** fsync — pass the LSN to [`Wal::sync_to`] so concurrent
    /// commits group-commit.
    pub fn log_txn_commit(&self) -> Result<Option<u64>> {
        let Some(wal) = self.shared.wal.as_ref() else {
            return Ok(None);
        };
        // A bit whose frame a flush has logged since (or whose file was
        // dropped) is stale. The pins are belt and braces for a caller
        // that does not hold the apply section.
        let mut handles: Vec<PageHandle> = Vec::new();
        self.shared.unlogged.drain(|idx| {
            let frame = &self.frames[idx];
            if let Some(pid) = frame.pid() {
                if frame.dirty.load(Ordering::Relaxed) && frame.unlogged.load(Ordering::Relaxed) {
                    handles.push(PageHandle::pin(frame, pid));
                }
            }
        });
        if handles.is_empty() {
            return Ok(None);
        }
        handles.sort_by_key(|h| h.pid);
        // Encode straight out of the frames, under read latches (writers
        // are excluded by the apply section) held to the function's end.
        let bufs: Vec<RwLockReadGuard<'_, PageBuf>> =
            handles.iter().map(|h| h.inner.data.read()).collect();
        let logged = wal.append_pages(
            wal.begin_txn(),
            handles
                .iter()
                .zip(&bufs)
                .map(|(h, buf)| h.inner.page_log(h.pid, buf)),
        );
        match logged {
            Ok(at) => {
                for (h, buf) in handles.iter().zip(&bufs) {
                    if h.inner.page_log(h.pid, buf).is_image(at.floor) {
                        h.inner.base.store(at.lsn, Ordering::Relaxed);
                    }
                    h.inner.lines.store(0, Ordering::Relaxed);
                    h.inner.lsn.store(at.lsn, Ordering::Relaxed);
                    h.inner.unlogged.store(false, Ordering::Relaxed);
                }
                Ok(Some(at.lsn))
            }
            Err(e) => {
                // Still unlogged: back into the set for the next commit.
                for h in &handles {
                    self.shared.unlogged.insert(h.inner.idx);
                }
                Err(e)
            }
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Create a file on the backing disk.
    pub fn create_file(&self) -> Result<FileId> {
        let _o = core_order();
        self.core.lock().disk.create_file()
    }

    /// Drop a file: discard its buffered pages (without write-back) and
    /// remove it from disk.
    pub fn drop_file(&self, file: FileId) -> Result<()> {
        let _o = core_order();
        self.core.lock().drop_file(file)
    }

    /// Number of pages in a file.
    pub fn page_count(&self, file: FileId) -> Result<u32> {
        let _o = core_order();
        self.core.lock().disk.page_count(file)
    }

    /// Allocate a fresh page in `file` and return a pinned, formatted-blank
    /// (zeroed) handle to it. The page is dirty from birth so it reaches
    /// disk on flush.
    pub fn new_page(&self, file: FileId) -> Result<(PageId, PageHandle)> {
        let _o = core_order();
        self.core.lock().new_page(file)
    }

    /// Fetch page `pid`, reading it from disk on a miss.
    pub fn fetch(&self, pid: PageId) -> Result<PageHandle> {
        let _o = core_order();
        self.core.lock().fetch(pid)
    }

    /// Fetch a set of pages with grouped disk reads. `pids` must be
    /// **strictly ascending** (physical order, no repeats), as the
    /// chunks of [`StorageManager::visit_sorted`](crate::StorageManager::visit_sorted)
    /// are; anything else is [`StorageError::BatchNotAscending`] and
    /// touches nothing. Resident pages are pinned as hits, and each maximal run
    /// of adjacent missing pages is moved with one
    /// [`DiskManager::read_pages`] call. Returns one pinned handle per
    /// input id, in input order, and whether every page was resident (no
    /// disk read).
    ///
    /// Every page of the batch stays pinned until its returned handle is
    /// dropped, so batches are bounded by pool capacity; a sorted OID
    /// run goes through `visit_sorted`, which chunks it.
    pub fn get_pages_batch(&self, pids: &[PageId]) -> Result<(Vec<PageHandle>, bool)> {
        let _o = core_order();
        self.core.lock().get_pages_batch(pids)
    }

    /// Write back one page if buffered and dirty.
    pub fn flush_page(&self, pid: PageId) -> Result<()> {
        let _apply = self.log_leftovers()?;
        let _o = core_order();
        self.core.lock().flush_page(pid)
    }

    /// Write back all dirty pages and drop every unpinned frame's contents,
    /// leaving the pool cold. Fails if a page is still pinned.
    pub fn flush_all(&self) -> Result<()> {
        let _apply = self.log_leftovers()?;
        let _o = core_order();
        self.core.lock().flush_all()
    }

    /// Checkpoint: under one apply section, so that no commit lands
    /// between the flush and the truncation, write back every dirty page
    /// ([`BufferPool::flush_all`]), sync the data files, and start a new
    /// log epoch ([`Wal::checkpoint_truncate`]).
    pub fn checkpoint(&self) -> Result<()> {
        let _apply = self.log_leftovers()?;
        {
            let _o = core_order();
            self.core.lock().flush_all()?;
        }
        self.sync_disk()?;
        match self.shared.wal.as_ref() {
            Some(w) => w.checkpoint_truncate(),
            None => Ok(()),
        }
    }

    /// A flush's first step under a WAL: enter the apply section, so no
    /// operation is in flight, and log what is still unlogged — the
    /// pages of a commit whose logging failed — as one commit, so every
    /// dirty page may be written back. Lock order is apply → core.
    fn log_leftovers(&self) -> Result<Option<crate::wal::ApplyGuard<'_>>> {
        let Some(wal) = self.shared.wal.as_ref() else {
            return Ok(None);
        };
        let apply = wal.apply_lock();
        self.log_txn_commit()?;
        Ok(Some(apply))
    }

    /// Combined disk + pool statistics.
    pub fn io_profile(&self) -> IoProfile {
        let _o = core_order();
        let core = self.core.lock();
        IoProfile {
            disk: core.disk.stats(),
            pool_hits: core.hits,
            pool_misses: core.misses,
            evictions: core.evictions,
        }
    }

    /// Reset the **whole** I/O profile — disk counters (reads, writes,
    /// allocations) and pool counters (hits, misses, evictions) together.
    ///
    /// This is the single reset used for cold-pool accounting: resetting
    /// the disk and pool counters separately lets them drift out of a
    /// common baseline, which silently skews measured hit ratios.
    pub fn reset_profile(&self) {
        let _o = core_order();
        let mut core = self.core.lock();
        core.disk.reset_stats();
        core.hits = 0;
        core.misses = 0;
        core.evictions = 0;
    }

    /// Point-in-time pool state, for the `sys.pool` virtual table.
    ///
    /// Reads only in-memory frame flags — no page I/O — so introspection
    /// queries cannot perturb the pool counters they report on.
    pub fn pool_stats(&self) -> PoolStats {
        let _o = core_order();
        self.core.lock().pool_stats()
    }
}

impl PoolCore {
    fn drop_file(&mut self, file: FileId) -> Result<()> {
        for idx in 0..self.frames.len() {
            let inner = &self.frames[idx].inner;
            if let Some(pid) = inner.pid().filter(|pid| pid.file == file) {
                debug_assert!(
                    inner.pins.load(Ordering::Relaxed) == 0,
                    "pin leak: dropping {file:?} while its page {pid} is \
                     still pinned"
                );
                self.release(idx);
            }
        }
        self.disk.drop_file(file)
    }

    fn new_page(&mut self, file: FileId) -> Result<(PageId, PageHandle)> {
        let pid = self.disk.allocate_page(file)?;
        obs_io::record_disk_alloc();
        let h = self.claim(pid)?;
        h.inner.data.write().fill(0);
        h.inner.reset_state(None);
        h.inner.dirty.store(true, Ordering::Relaxed);
        h.inner.mark_unlogged();
        Ok((pid, h))
    }

    fn fetch(&mut self, pid: PageId) -> Result<PageHandle> {
        if let Some(h) = self.hit(pid) {
            return Ok(h);
        }
        // Counted before the claim: a fetch the pool cannot serve (every
        // frame pinned) is still a miss.
        self.misses += 1;
        obs_io::record_pool_miss();
        let h = self.claim(pid)?;
        self.load(std::slice::from_ref(&h))?;
        Ok(h)
    }

    fn get_pages_batch(&mut self, pids: &[PageId]) -> Result<(Vec<PageHandle>, bool)> {
        if let Some(w) = pids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(StorageError::BatchNotAscending(w[1]));
        }
        // Pin every resident page first, so the runs read below cannot
        // evict a page of this very batch. All resident: that is the batch.
        let mut hits = Vec::with_capacity(pids.len());
        for &pid in pids {
            hits.extend(self.hit(pid));
        }
        if hits.len() == pids.len() {
            return Ok((hits, true));
        }
        // The rest, one grouped read per run of adjacent missing pages
        // (ascending input makes such a run a contiguous slice of `pids`),
        // merged with the hits in input order. A page is resident here
        // exactly when it was a hit: the pins keep the hits, and only the
        // runs before it were read since.
        let mut out = Vec::with_capacity(pids.len());
        let mut hits = hits.into_iter();
        let max_run = (self.frames.len() / 2).clamp(1, MAX_BATCH_RUN);
        let resident = |core: &Self, pid| core.map.contains_key(&pack(pid));
        let mut i = 0;
        while i < pids.len() {
            if resident(self, pids[i]) {
                out.extend(hits.next());
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < pids.len()
                && !resident(self, pids[j])
                && j - i < max_run
                && pids[j].file == pids[i].file
                && pids[j].page == pids[j - 1].page + 1
            {
                j += 1;
            }
            self.read_run(&pids[i..j], &mut out)?;
            i = j;
        }
        Ok((out, false))
    }

    /// A batch's adjacent run of missing pages: claim a frame per page
    /// and [`PoolCore::load`] them all, appending the run's handles to
    /// `out`. On any error no page of the run stays resident and `out` is
    /// as it was.
    fn read_run(&mut self, run: &[PageId], out: &mut Vec<PageHandle>) -> Result<()> {
        let base = out.len();
        for &pid in run {
            match self.claim(pid) {
                Ok(h) => out.push(h),
                Err(e) => {
                    for h in out.drain(base..) {
                        self.release(h.inner.idx);
                    }
                    return Err(e);
                }
            }
        }
        if let Err(e) = self.load(&out[base..]) {
            out.truncate(base);
            return Err(e);
        }
        self.misses += run.len() as u64;
        for _ in run {
            obs_io::record_pool_miss();
        }
        pool_metrics().batch_len.record(run.len() as u64);
        Ok(())
    }

    /// A hit: pin `pid`'s frame and mark it referenced, if it is resident.
    /// Inlined: it is most of a fetch, which a call would slow by a tenth.
    #[inline]
    fn hit(&mut self, pid: PageId) -> Option<PageHandle> {
        let &idx = self.map.get(&pack(pid))?;
        self.hits += 1;
        obs_io::record_pool_hit();
        self.frames[idx].referenced = true;
        Some(self.handle(idx, pid))
    }

    /// Claim a frame for the non-resident `pid`: evict a victim, map the
    /// page to it, and pin it. The frame's bytes and state are the
    /// caller's to fill.
    fn claim(&mut self, pid: PageId) -> Result<PageHandle> {
        let idx = self.find_victim()?;
        self.frames[idx].inner.set_pid(Some(pid));
        self.frames[idx].referenced = true;
        self.map.insert(pack(pid), idx);
        Ok(self.handle(idx, pid))
    }

    /// The one miss read: fill the claimed frames of `run`, adjacent pages
    /// in order, with one [`DiskManager::read_pages`] call, then verify
    /// each page's checksum and take its state from its header. On any
    /// error every frame of the run is released. Only the gathering of
    /// the call's buffers depends on the run's length: one page borrows
    /// its latch guard, and needs no heap.
    fn load(&mut self, run: &[PageHandle]) -> Result<()> {
        let loaded = match run {
            [h] => self.fill(run, &mut [&mut **h.inner.data.write()]),
            _ => {
                let mut guards: Vec<RwLockWriteGuard<'_, PageBuf>> =
                    run.iter().map(|h| h.inner.data.write()).collect();
                let mut bufs: Vec<&mut [u8; PAGE_SIZE]> =
                    guards.iter_mut().map(|g| &mut ***g).collect();
                self.fill(run, &mut bufs)
            }
        };
        if loaded.is_err() {
            for h in run {
                self.release(h.inner.idx);
            }
        }
        loaded
    }

    /// [`PoolCore::load`]'s read into `bufs`, the latched bytes of `run`'s
    /// frames. The disk reads count once the call returns.
    fn fill(&mut self, run: &[PageHandle], bufs: &mut [&mut [u8; PAGE_SIZE]]) -> Result<()> {
        let Some(first) = run.first() else {
            return Ok(());
        };
        self.disk.read_pages(first.pid, bufs)?;
        for _ in run {
            obs_io::record_disk_read();
        }
        for (h, buf) in run.iter().zip(bufs.iter()) {
            if !checksum::verify(buf) {
                pool_metrics().checksum_failures.inc();
                return Err(StorageError::ChecksumMismatch(h.pid));
            }
            h.inner.reset_state(Some(checksum::read_lsn(buf)));
        }
        Ok(())
    }

    /// Take frame `idx` off its page: unmapped, unreferenced, and with
    /// nothing left to write back. Every way a frame leaves a page —
    /// eviction, `flush_all`, `drop_file`, a failed read's rollback —
    /// goes through here.
    fn release(&mut self, idx: usize) {
        let frame = &mut self.frames[idx];
        if let Some(pid) = frame.inner.pid() {
            self.map.remove(&pack(pid));
        }
        frame.inner.set_pid(None);
        frame.referenced = false;
        frame.inner.dirty.store(false, Ordering::Relaxed);
        frame.inner.unlogged.store(false, Ordering::Relaxed);
        frame.inner.lines.store(0, Ordering::Relaxed);
    }

    /// The one write-back: if frame `idx` (holding `pid`) is dirty, write
    /// it back ([`write_back_frame`]) and count the disk write. A failed
    /// write-back leaves the page dirty: treating it as clean would
    /// silently drop its modifications at the next eviction. Returns
    /// whether it wrote.
    fn write_back(&mut self, idx: usize, pid: PageId) -> Result<bool> {
        let inner = &self.frames[idx].inner;
        if !inner.dirty.swap(false, Ordering::Relaxed) {
            return Ok(false);
        }
        let wal = self.shared.wal.as_deref();
        if let Err(e) = write_back_frame(self.disk.as_mut(), wal, pid, inner) {
            inner.dirty.store(true, Ordering::Relaxed);
            return Err(e);
        }
        obs_io::record_disk_write();
        Ok(true)
    }

    fn handle(&self, idx: usize, pid: PageId) -> PageHandle {
        PageHandle::pin(&self.frames[idx].inner, pid)
    }

    /// Find an unpinned frame with one clock sweep over the pool: two
    /// full rounds (the first clears reference bits, the second takes
    /// the first unpinned frame), evicting the victim's current page
    /// (with write-back if dirty). Fails only when every frame is pinned
    /// or holds an unlogged page.
    fn find_victim(&mut self) -> Result<usize> {
        let len = self.frames.len();
        for _ in 0..2 * len {
            let idx = self.clock;
            self.clock = (idx + 1) % len;
            let frame = &mut self.frames[idx];
            if frame.inner.pins.load(Ordering::Relaxed) > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            // No-steal: an unlogged page belongs to an operation still in
            // flight, and there is no undo to take it back from disk. It
            // becomes evictable once a commit logs it.
            if frame.inner.unlogged.load(Ordering::Relaxed) {
                continue;
            }
            if let Some(old) = frame.inner.pid() {
                if self.write_back(idx, old)? {
                    self.evictions += 1;
                    obs_io::record_eviction();
                }
                self.release(idx);
            }
            return Ok(idx);
        }
        Err(StorageError::BufferExhausted)
    }

    fn flush_page(&mut self, pid: PageId) -> Result<()> {
        if let Some(&idx) = self.map.get(&pack(pid)) {
            self.write_back(idx, pid)?;
        }
        Ok(())
    }

    /// Write back every dirty page and empty the pool. Under a WAL, the
    /// images the write-backs need go to the log first, as one group
    /// behind one fsync.
    fn flush_all(&mut self) -> Result<()> {
        if let Some(w) = self.shared.wal.as_deref() {
            let floor = w.checkpoint_lsn();
            let imaged: Vec<(PageId, &FrameInner)> = self
                .frames
                .iter()
                .filter_map(|f| Some((f.inner.pid()?, &*f.inner)))
                .filter(|(_, f)| {
                    f.pins.load(Ordering::Relaxed) == 0
                        && f.dirty.load(Ordering::Relaxed)
                        && f.needs_image(floor)
                })
                .collect();
            log_images(w, &imaged)?;
        }
        for idx in 0..self.frames.len() {
            let inner = &self.frames[idx].inner;
            let Some(pid) = inner.pid() else {
                continue;
            };
            if inner.pins.load(Ordering::Relaxed) > 0 {
                return Err(StorageError::BufferExhausted);
            }
            self.write_back(idx, pid)?;
            self.release(idx);
        }
        Ok(())
    }

    fn pool_stats(&self) -> PoolStats {
        PoolStats {
            frames: self.frames.len(),
            resident: self.map.len(),
            dirty: self
                .frames
                .iter()
                .filter(|f| f.inner.pid().is_some() && f.inner.dirty.load(Ordering::Relaxed))
                .count(),
            pinned: self
                .frames
                .iter()
                .filter(|f| f.inner.pins.load(Ordering::Relaxed) > 0)
                .count(),
        }
    }
}

/// Point-in-time state of the buffer pool (see
/// [`BufferPool::pool_stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Frames in the pool.
    pub frames: usize,
    /// Resident pages.
    pub resident: usize,
    /// Frames holding a page marked dirty.
    pub dirty: usize,
    /// Frames currently pinned.
    pub pinned: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Box::new(MemDisk::new()), cap)
    }

    #[test]
    fn fetch_hits_after_first_read() {
        let bp = pool(4);
        let f = bp.create_file().unwrap();
        let (pid, h) = bp.new_page(f).unwrap();
        h.data_mut()[0] = 42;
        drop(h);
        bp.flush_all().unwrap();

        let h = bp.fetch(pid).unwrap();
        assert_eq!(h.data()[0], 42);
        drop(h);
        let h = bp.fetch(pid).unwrap();
        drop(h);
        let prof = bp.io_profile();
        assert_eq!(prof.pool_misses, 1);
        assert_eq!(prof.pool_hits, 1);
        assert_eq!(prof.disk.reads, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let bp = pool(2);
        let f = bp.create_file().unwrap();
        let mut pids = vec![];
        for i in 0..5u8 {
            let (pid, h) = bp.new_page(f).unwrap();
            h.data_mut()[0] = i;
            pids.push(pid);
        }
        // All five pages must read back with their bytes even though the
        // pool only has two frames.
        for (i, pid) in pids.iter().enumerate() {
            let h = bp.fetch(*pid).unwrap();
            assert_eq!(h.data()[0], i as u8, "page {i}");
        }
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let bp = pool(2);
        let f = bp.create_file().unwrap();
        let (pid0, h0) = bp.new_page(f).unwrap();
        h0.data_mut()[0] = 99;
        // Fill the other frame repeatedly; pid0 must survive because h0
        // is pinned.
        for _ in 0..3 {
            let (_, h) = bp.new_page(f).unwrap();
            h.data_mut()[1] = 1;
        }
        assert_eq!(h0.data()[0], 99);
        assert_eq!(h0.pid, pid0);
    }

    #[test]
    fn pool_stats_track_residency_dirt_and_pins() {
        let bp = pool(8);
        let f = bp.create_file().unwrap();
        let cold = PoolStats {
            frames: bp.capacity(),
            resident: 0,
            dirty: 0,
            pinned: 0,
        };
        assert_eq!(bp.pool_stats(), cold);

        let (_, h) = bp.new_page(f).unwrap();
        h.data_mut()[0] = 1;
        let one = PoolStats {
            resident: 1,
            dirty: 1,
            pinned: 1,
            ..cold
        };
        assert_eq!(bp.pool_stats(), one);

        drop(h);
        assert_eq!(bp.pool_stats(), PoolStats { pinned: 0, ..one });
        bp.flush_all().unwrap();
        assert_eq!(bp.pool_stats(), cold, "flush_all leaves the pool cold");
    }

    #[test]
    fn pool_exhaustion_errors() {
        let bp = pool(2);
        let f = bp.create_file().unwrap();
        let (_, _h0) = bp.new_page(f).unwrap();
        let (_, _h1) = bp.new_page(f).unwrap();
        assert!(matches!(bp.new_page(f), Err(StorageError::BufferExhausted)));
    }

    #[test]
    fn flush_all_leaves_pool_cold() {
        let bp = pool(4);
        let f = bp.create_file().unwrap();
        let (pid, h) = bp.new_page(f).unwrap();
        h.data_mut()[3] = 7;
        drop(h);
        bp.flush_all().unwrap();
        bp.reset_profile();
        let h = bp.fetch(pid).unwrap();
        assert_eq!(h.data()[3], 7);
        drop(h);
        let prof = bp.io_profile();
        assert_eq!(prof.pool_misses, 1, "pool was cold after flush_all");
        assert_eq!(prof.disk.reads, 1);
    }

    /// A pool with one resident page whose write guard the test then
    /// takes, and a second page to ask the pool for: every way back into
    /// the pool under that guard must trip `lockorder`.
    #[cfg(debug_assertions)]
    fn two_pages() -> (BufferPool, FileId, PageHandle, PageId) {
        let bp = pool(4);
        let f = bp.create_file().unwrap();
        let (_, h0) = bp.new_page(f).unwrap();
        let (p1, _) = bp.new_page(f).unwrap();
        (bp, f, h0, p1)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation: acquiring PoolCore")]
    fn out_of_order_frame_acquire_is_caught_in_debug() {
        let (bp, _, h0, p1) = two_pages();
        let _guard = h0.data_mut();
        let _ = bp.fetch(p1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation: acquiring PoolCore")]
    fn new_page_under_a_write_guard_is_caught_in_debug() {
        let (bp, f, h0, _) = two_pages();
        let _guard = h0.data_mut();
        let _ = bp.new_page(f);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pin leak")]
    fn drop_file_with_pinned_page_is_caught_in_debug() {
        let bp = pool(4);
        let f = bp.create_file().unwrap();
        let (_pid, _h) = bp.new_page(f).unwrap();
        let _ = bp.drop_file(f);
    }

    #[test]
    fn drop_file_discards_buffered_pages() {
        let bp = pool(4);
        let f = bp.create_file().unwrap();
        let (pid, h) = bp.new_page(f).unwrap();
        h.data_mut()[0] = 1;
        drop(h);
        bp.drop_file(f).unwrap();
        assert!(bp.fetch(pid).is_err());
    }

    #[test]
    fn handle_clone_keeps_pin() {
        let bp = pool(2);
        let f = bp.create_file().unwrap();
        let (_, h) = bp.new_page(f).unwrap();
        let h2 = h.clone();
        drop(h);
        // Still pinned via h2: filling the pool leaves one frame usable.
        let (_, _a) = bp.new_page(f).unwrap();
        assert!(matches!(bp.new_page(f), Err(StorageError::BufferExhausted)));
        drop(h2);
        assert!(bp.new_page(f).is_ok());
    }

    /// Regression test for the `data_mut` ordering bug: the dirty flag
    /// must not be set while the writer is still blocked behind a read
    /// lock — a flush in that window would count a spurious write-back.
    #[test]
    fn data_mut_marks_dirty_only_after_acquiring_the_lock() {
        let bp = pool(2);
        let f = bp.create_file().unwrap();
        let (pid, h) = bp.new_page(f).unwrap();
        drop(h);
        bp.flush_all().unwrap();
        let h = bp.fetch(pid).unwrap();
        assert!(!h.is_dirty(), "freshly fetched page is clean");

        let guard = h.data();
        let h2 = h.clone();
        let writer = std::thread::spawn(move || {
            let mut g = h2.data_mut(); // blocks until the reader drops
            g[0] = 1;
        });
        // Give the writer ample time to reach (and block on) the lock.
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(
            !h.is_dirty(),
            "page must not be dirty while the writer is still blocked"
        );
        drop(guard);
        writer.join().unwrap();
        assert!(h.is_dirty(), "page is dirty once the write completed");
    }

    /// The clock must route around many concurrently pinned frames and
    /// only fail when every frame is pinned.
    #[test]
    fn clock_evicts_around_concurrently_pinned_frames() {
        let bp = pool(8);
        let f = bp.create_file().unwrap();
        // Pin six pages; their contents must survive arbitrary churn.
        let pinned: Vec<(PageId, PageHandle)> = (0..6u8)
            .map(|i| {
                let (pid, h) = bp.new_page(f).unwrap();
                h.data_mut()[0] = 0xA0 + i;
                (pid, h)
            })
            .collect();
        // Churn 20 pages through the two unpinned frames.
        let mut churned = vec![];
        for i in 0..20u8 {
            let (pid, h) = bp.new_page(f).unwrap();
            h.data_mut()[0] = i;
            churned.push(pid);
        }
        for (i, (pid, h)) in pinned.iter().enumerate() {
            assert_eq!(h.data()[0], 0xA0 + i as u8);
            assert_eq!(h.pid, *pid);
        }
        // Everything churned is still readable from disk.
        for (i, pid) in churned.iter().enumerate() {
            let h = bp.fetch(*pid).unwrap();
            assert_eq!(h.data()[0], i as u8);
        }
        // Pin the remaining frames: the pool must now be exhausted...
        let _more: Vec<PageHandle> = (0..2).map(|_| bp.new_page(f).unwrap().1).collect();
        assert!(matches!(bp.new_page(f), Err(StorageError::BufferExhausted)));
        // ...and recover as soon as one pin is released.
        drop(pinned);
        assert!(bp.new_page(f).is_ok());
    }

    #[test]
    fn batch_fetch_groups_adjacent_pages_into_one_read_call() {
        // Pool large enough that the 10-page run fits one grouped read
        // (runs are capped at capacity / 2).
        let bp = pool(32);
        let f = bp.create_file().unwrap();
        let mut pids = vec![];
        for i in 0..10u8 {
            let (pid, h) = bp.new_page(f).unwrap();
            h.data_mut()[0] = i;
            pids.push(pid);
        }
        bp.flush_all().unwrap();
        bp.reset_profile();

        let handles = bp.get_pages_batch(&pids).unwrap().0;
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.data()[0], i as u8);
        }
        let prof = bp.io_profile();
        assert_eq!(prof.disk.reads, 10, "every page transferred");
        assert_eq!(prof.pool_misses, 10);
        assert_eq!(
            prof.disk.read_calls, 1,
            "one adjacent run = one grouped read call"
        );
        drop(handles);

        // A second batch is all hits: no further disk traffic.
        let handles = bp.get_pages_batch(&pids).unwrap().0;
        let prof = bp.io_profile();
        assert_eq!(prof.disk.reads, 10);
        assert_eq!(prof.pool_hits, 10);
        drop(handles);
    }

    #[test]
    fn batch_fetch_splits_non_adjacent_pages_into_runs() {
        let bp = pool(16);
        let f = bp.create_file().unwrap();
        let mut pids = vec![];
        for i in 0..8u8 {
            let (pid, h) = bp.new_page(f).unwrap();
            h.data_mut()[0] = i;
            pids.push(pid);
        }
        bp.flush_all().unwrap();
        bp.reset_profile();
        // Pages 0,1,2 and 5,6 — two runs with a gap.
        let want = [pids[0], pids[1], pids[2], pids[5], pids[6]];
        let handles = bp.get_pages_batch(&want).unwrap().0;
        for (h, pid) in handles.iter().zip(&want) {
            assert_eq!(h.pid, *pid);
        }
        let prof = bp.io_profile();
        assert_eq!(prof.disk.reads, 5);
        assert_eq!(prof.disk.read_calls, 2, "two adjacent runs");
    }

    #[test]
    fn batch_fetch_rejects_unsorted_or_repeated_ids_and_touches_nothing() {
        let bp = pool(8);
        let f = bp.create_file().unwrap();
        let pids: Vec<PageId> = (0..4).map(|_| bp.new_page(f).unwrap().0).collect();
        bp.flush_all().unwrap();
        bp.reset_profile();
        for bad in [
            vec![pids[1], pids[0]],
            vec![pids[0], pids[2], pids[1], pids[3]],
            vec![pids[2], pids[2]],
        ] {
            let culprit = bad.windows(2).find(|w| w[0] >= w[1]).unwrap()[1];
            match bp.get_pages_batch(&bad) {
                Err(StorageError::BatchNotAscending(p)) => assert_eq!(p, culprit),
                Err(e) => panic!("wrong error for {bad:?}: {e}"),
                Ok(_) => panic!("{bad:?} must be refused"),
            }
        }
        let prof = bp.io_profile();
        assert_eq!(
            (prof.pool_hits, prof.pool_misses, prof.disk.reads),
            (0, 0, 0)
        );
        // Ascending across files is fine; so is nothing at all.
        let g = bp.create_file().unwrap();
        let (gp, _) = bp.new_page(g).unwrap();
        assert_eq!(bp.get_pages_batch(&[pids[3], gp]).unwrap().0.len(), 2);
        assert!(bp.get_pages_batch(&[]).unwrap().0.is_empty());
    }

    #[test]
    fn batch_fetch_pins_hits_before_reading_the_runs_between_them() {
        let bp = pool(16);
        let f = bp.create_file().unwrap();
        let mut pids = vec![];
        for i in 0..6u8 {
            let (pid, h) = bp.new_page(f).unwrap();
            h.data_mut()[0] = i;
            pids.push(pid);
        }
        bp.flush_all().unwrap();
        let _warm = (bp.fetch(pids[1]).unwrap(), bp.fetch(pids[4]).unwrap());
        bp.reset_profile();
        // Resident pages 1 and 4 split the misses into runs 0, 2-3 and 5.
        let handles = bp.get_pages_batch(&pids).unwrap().0;
        for (i, h) in handles.iter().enumerate() {
            assert_eq!((h.pid, h.data()[0]), (pids[i], i as u8));
        }
        let prof = bp.io_profile();
        assert_eq!((prof.pool_hits, prof.pool_misses), (2, 4));
        assert_eq!((prof.disk.reads, prof.disk.read_calls), (4, 3));
    }

    /// `BufferExhausted` iff every frame is pinned, at every capacity:
    /// with one frame left the pool still serves a miss and a new page,
    /// with none it refuses both, and one unpin is enough again.
    #[test]
    fn exhausted_iff_every_frame_is_pinned() {
        for cap in 1..=9 {
            let bp = pool(cap);
            let f = bp.create_file().unwrap();
            let (cold, _) = bp.new_page(f).unwrap();
            bp.flush_all().unwrap();
            let mut pins: Vec<PageHandle> = (1..cap).map(|_| bp.new_page(f).unwrap().1).collect();
            assert_eq!(bp.pool_stats().pinned, cap - 1);
            let misses = bp.io_profile().pool_misses;
            drop(bp.fetch(cold).expect("one unpinned frame serves a miss"));
            assert_eq!(bp.io_profile().pool_misses, misses + 1);
            pins.push(bp.new_page(f).expect("and a new page").1);
            assert_eq!(bp.pool_stats().pinned, cap);
            assert!(matches!(bp.fetch(cold), Err(StorageError::BufferExhausted)));
            assert!(matches!(bp.new_page(f), Err(StorageError::BufferExhausted)));
            assert!(matches!(
                bp.get_pages_batch(&[cold]),
                Err(StorageError::BufferExhausted)
            ));
            pins.swap_remove(cap / 2);
            drop(bp.fetch(cold).expect("one unpin is enough"));
        }
    }

    /// The eviction policy, restated as a model the pool is checked
    /// against: one hand over all frames; the victim is the first frame
    /// from the hand that is unpinned and unreferenced, a pass over a
    /// referenced frame clearing its bit (so two rounds always suffice);
    /// the hand stays where the search stopped. `evictions` counts the
    /// victims that needed a write-back.
    #[derive(Default)]
    struct ClockModel {
        frames: Vec<ModelFrame>,
        hand: usize,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    #[derive(Clone, Default)]
    struct ModelFrame {
        pid: Option<PageId>,
        pins: u32,
        referenced: bool,
        dirty: bool,
    }

    impl ClockModel {
        fn resident(&self, pid: PageId) -> Option<usize> {
            self.frames.iter().position(|f| f.pid == Some(pid))
        }

        /// Frame for a page that is not resident, or `None` when every
        /// frame is pinned.
        fn install(&mut self, pid: PageId, dirty: bool) -> Option<usize> {
            for _ in 0..2 * self.frames.len() {
                let i = self.hand;
                self.hand = (i + 1) % self.frames.len();
                let f = &mut self.frames[i];
                if f.pins == 0 && !std::mem::take(&mut f.referenced) {
                    self.evictions += u64::from(f.pid.is_some() && f.dirty);
                    *f = ModelFrame {
                        pid: Some(pid),
                        pins: 1,
                        referenced: true,
                        dirty,
                    };
                    return Some(i);
                }
            }
            None
        }

        fn fetch(&mut self, pid: PageId) -> Option<usize> {
            if let Some(i) = self.resident(pid) {
                self.hits += 1;
                self.frames[i].referenced = true;
                self.frames[i].pins += 1;
                return Some(i);
            }
            self.misses += 1;
            self.install(pid, false)
        }
    }

    /// Seeded random fetch / pin / unpin / write / `new_page` /
    /// `flush_page` steps over pools of 1 to 40 frames: the pool picks
    /// exactly the model's victim frame at every step and ends on exactly
    /// its hit, miss and eviction counts.
    #[test]
    fn eviction_follows_the_reference_clock_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for cap in 1..=40usize {
            let mut rng = StdRng::seed_from_u64(0xC10C + cap as u64);
            let bp = pool(cap);
            let f = bp.create_file().unwrap();
            let mut model = ClockModel {
                frames: vec![ModelFrame::default(); cap],
                ..ClockModel::default()
            };
            let mut pages: Vec<PageId> = Vec::new();
            let mut held: Vec<PageHandle> = Vec::new();
            for step in 0..600 {
                let got = match rng.gen_range(0..10u32) {
                    0..=4 if !pages.is_empty() => {
                        let pid = pages[rng.gen_range(0..pages.len())];
                        Some((model.fetch(pid), bp.fetch(pid)))
                    }
                    5..=6 => {
                        let pid = PageId::new(f, pages.len() as u32);
                        pages.push(pid);
                        Some((model.install(pid, true), bp.new_page(f).map(|(_, h)| h)))
                    }
                    7 if !pages.is_empty() => {
                        let pid = pages[rng.gen_range(0..pages.len())];
                        bp.flush_page(pid).unwrap();
                        if let Some(i) = model.resident(pid) {
                            model.frames[i].dirty = false;
                        }
                        None
                    }
                    _ if !held.is_empty() => {
                        let h = held.swap_remove(rng.gen_range(0..held.len()));
                        model.frames[h.inner.idx].pins -= 1;
                        None
                    }
                    _ => None,
                };
                let Some((want, got)) = got else { continue };
                match (want, got) {
                    (Some(i), Ok(h)) => {
                        assert_eq!(h.inner.idx, i, "cap {cap} step {step}: victim frame");
                        assert_eq!(Some(h.pid), model.frames[i].pid);
                        if rng.gen_bool(0.3) {
                            h.data_mut()[0] = step as u8;
                            model.frames[i].dirty = true;
                        }
                        if rng.gen_bool(0.5) {
                            held.push(h);
                        } else {
                            model.frames[i].pins -= 1;
                        }
                    }
                    (None, Err(StorageError::BufferExhausted)) => {
                        assert!(model.frames.iter().all(|f| f.pins > 0));
                    }
                    (want, got) => panic!(
                        "cap {cap} step {step}: model {want:?}, pool {:?}",
                        got.map(|h| h.inner.idx)
                    ),
                }
            }
            let prof = bp.io_profile();
            assert_eq!(
                (prof.pool_hits, prof.pool_misses, prof.evictions),
                (model.hits, model.misses, model.evictions),
                "cap {cap}"
            );
        }
    }

    /// Regression test for the lost-write bug: a failed write-back must
    /// leave the page marked dirty, or its modifications are silently
    /// dropped by the next (successful) eviction or flush.
    #[test]
    fn failed_write_back_leaves_the_page_dirty() {
        use crate::fault::{FaultDisk, FaultPlan};
        let disk = FaultDisk::new(
            MemDisk::new(),
            FaultPlan {
                torn_write_at: Some(1),
                ..FaultPlan::default()
            },
        );
        let bp = BufferPool::new(Box::new(disk), 4);
        let f = bp.create_file().unwrap();
        let (pid, h) = bp.new_page(f).unwrap();
        h.data_mut()[100] = 0xEE;
        assert!(bp.flush_page(pid).is_err(), "injected torn write");
        assert!(
            h.is_dirty(),
            "failed write-back must restore the dirty flag"
        );
        // The fault fires once: the retry writes the full page, and the
        // bytes survive a cold re-read (checksum intact).
        bp.flush_page(pid).unwrap();
        assert!(!h.is_dirty());
        drop(h);
        bp.flush_all().unwrap();
        let h = bp.fetch(pid).unwrap();
        assert_eq!(h.data()[100], 0xEE);
    }

    fn wal_pool(cap: usize) -> (BufferPool, Arc<Wal>, crate::wal::MemWalStore) {
        let store = crate::wal::MemWalStore::new();
        let wal = Arc::new(Wal::new(Box::new(store.clone()), 1));
        let bp = BufferPool::new_with_wal(Box::new(MemDisk::new()), cap, Some(Arc::clone(&wal)));
        (bp, wal, store)
    }

    fn commit(bp: &BufferPool, wal: &Wal) -> Option<u64> {
        let _apply = wal.apply_lock();
        bp.log_txn_commit().unwrap()
    }

    /// The kinds of page record in the log, in order.
    fn page_records(store: &crate::wal::MemWalStore) -> Vec<(&'static str, PageId)> {
        use crate::wal::WalRecord;
        crate::wal::record::scan(&store.snapshot())
            .entries
            .into_iter()
            .filter_map(|e| match e.rec {
                WalRecord::PageImage { page, .. } => Some(("image", page)),
                WalRecord::PageDelta { page, .. } => Some(("delta", page)),
                _ => None,
            })
            .collect()
    }

    /// A fresh page's first record is an image, later ones are deltas a
    /// fraction of its size; after a checkpoint the flushed page has a
    /// base on disk, so its first record is a delta; and a commit with
    /// nothing written logs nothing.
    #[test]
    fn commits_log_an_image_then_deltas() {
        let (bp, wal, store) = wal_pool(8);
        let f = bp.create_file().unwrap();
        let (pid, h) = bp.new_page(f).unwrap();
        h.data_mut()[100] = 1;
        assert!(commit(&bp, &wal).is_some());
        assert_eq!(commit(&bp, &wal), None, "nothing unlogged, nothing logged");

        let before = wal.stats().bytes;
        h.data_mut()[100] = 2;
        h.data_mut()[3000] = 3; // same commit: one record, two lines
        assert!(commit(&bp, &wal).is_some());
        let delta_commit = wal.stats().bytes - before;
        assert!(
            delta_commit < 2 * 64 + 128,
            "two changed bytes cost {delta_commit} log bytes"
        );
        assert_eq!(page_records(&store), [("image", pid), ("delta", pid)]);

        drop(h);
        bp.checkpoint().unwrap();
        bp.fetch(pid).unwrap().data_mut()[100] = 4;
        assert!(commit(&bp, &wal).is_some());
        assert_eq!(
            page_records(&store),
            [("delta", pid)],
            "first record after a checkpoint is a delta on the flushed page"
        );
    }

    /// A flush logs every image its write-backs need as one group
    /// behind one fsync, before its first write.
    #[test]
    fn a_flush_logs_its_images_in_one_append_and_one_fsync() {
        let mut disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        let mut page = [0u8; PAGE_SIZE];
        checksum::stamp(&mut page, 0);
        let pids: Vec<PageId> = (0..5)
            .map(|_| {
                let pid = disk.allocate_page(f).unwrap();
                disk.write_page(pid, &page).unwrap();
                pid
            })
            .collect();
        let store = crate::wal::MemWalStore::new();
        let wal = Arc::new(Wal::new(Box::new(store.clone()), 1));
        let bp = BufferPool::new_with_wal(Box::new(disk), 8, Some(Arc::clone(&wal)));
        for &pid in &pids {
            bp.fetch(pid).unwrap().data_mut()[100] = 1;
        }
        let lsn = commit(&bp, &wal).unwrap();
        wal.sync_to(lsn).unwrap();
        let before = wal.stats();
        bp.flush_all().unwrap();
        let after = wal.stats();
        assert_eq!(
            (after.appends - before.appends, after.fsyncs - before.fsyncs),
            (pids.len() as u64 + 2, 1),
            "one Begin / 5 images / Commit group, one fsync"
        );
        assert_eq!(bp.io_profile().disk.writes, 5 + pids.len() as u64);
        let records = page_records(&store);
        assert_eq!(records.len(), 2 * pids.len());
        assert!(records[pids.len()..]
            .iter()
            .all(|&(kind, _)| kind == "image"));
    }

    /// A page read from disk has its base there: its commits log deltas
    /// from the first one on, even when its header LSN predates the
    /// epoch; its first write-back in the epoch logs its image, and its
    /// later ones none. The log then rebuilds it from that image.
    #[test]
    fn a_commit_on_a_page_read_from_disk_logs_no_image() {
        let mut disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        let pid = disk.allocate_page(f).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        checksum::stamp(&mut page, 0);
        disk.write_page(pid, &page).unwrap();
        let store = crate::wal::MemWalStore::new();
        let wal = Arc::new(Wal::new(Box::new(store.clone()), 1));
        let bp = BufferPool::new_with_wal(Box::new(disk), 4, Some(Arc::clone(&wal)));

        let mut kinds = Vec::new();
        for v in 1..=3u8 {
            bp.fetch(pid).unwrap().data_mut()[100] = v;
            commit(&bp, &wal).unwrap();
            bp.flush_all().unwrap();
            kinds.extend(page_records(&store).drain(kinds.len()..));
        }
        assert_eq!(
            kinds.iter().map(|&(kind, _)| kind).collect::<Vec<_>>(),
            ["delta", "image", "delta", "delta"],
            "deltas, and one image at the first write-back"
        );
        let mut rebuilt = MemDisk::new();
        crate::wal::recover(&mut rebuilt, &mut store.clone()).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        rebuilt.read_page(pid, &mut buf).unwrap();
        assert_eq!(buf[100], 3, "rebuilt from the image, not from a disk copy");
    }

    /// The image-or-delta choice rides in the page header: a page that
    /// was logged, written back, and fetched again is still delta-logged,
    /// and the log alone rebuilds its last state.
    #[test]
    fn delta_logging_survives_eviction_and_refetch() {
        let (bp, wal, store) = wal_pool(2);
        let f = bp.create_file().unwrap();
        let (pid, h) = bp.new_page(f).unwrap();
        h.data_mut()[100] = 1;
        drop(h);
        commit(&bp, &wal).unwrap();
        // Push the page out through the two-frame pool.
        for _ in 0..4 {
            let (_, h) = bp.new_page(f).unwrap();
            h.data_mut()[0] = 9;
            drop(h);
            commit(&bp, &wal).unwrap();
        }
        let misses = bp.io_profile().pool_misses;
        let h = bp.fetch(pid).unwrap();
        assert_eq!(bp.io_profile().pool_misses, misses + 1, "it was evicted");
        h.data_mut()[200] = 2;
        drop(h);
        commit(&bp, &wal).unwrap();
        let records = page_records(&store);
        assert_eq!(records.first(), Some(&("image", pid)));
        assert_eq!(records.last(), Some(&("delta", pid)));

        let mut disk = MemDisk::new();
        let mut log = store.clone();
        crate::wal::recover(&mut disk, &mut log).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut buf).unwrap();
        assert_eq!((buf[100], buf[200]), (1, 2));
    }

    /// Refuses one append, after letting `.1` of them through, then
    /// behaves (`FaultWal`, the crash-shaped injector, never recovers).
    struct FailOnce(crate::wal::MemWalStore, Option<u32>);

    impl crate::wal::WalStore for FailOnce {
        fn wal_append(&mut self, bytes: &[u8]) -> Result<()> {
            match self.1 {
                Some(0) => {
                    self.1 = None;
                    return Err(std::io::Error::other("injected append failure").into());
                }
                Some(n) => self.1 = Some(n - 1),
                None => {}
            }
            self.0.wal_append(bytes)
        }
        fn wal_sync(&mut self) -> Result<()> {
            self.0.wal_sync()
        }
        fn wal_read_all(&mut self) -> Result<Vec<u8>> {
            self.0.wal_read_all()
        }
        fn wal_truncate(&mut self, len: u64) -> Result<()> {
            self.0.wal_truncate(len)
        }
        fn wal_len(&mut self) -> Result<u64> {
            self.0.wal_len()
        }
        fn wal_syncer(&self) -> Box<dyn crate::wal::WalSyncer> {
            self.0.wal_syncer()
        }
    }

    /// No-steal: a dirty page no commit has logged belongs to an
    /// operation still in flight, so it is never an eviction victim —
    /// whether or not anyone holds the apply section. A commit makes it
    /// one.
    #[test]
    fn an_unlogged_dirty_frame_is_never_evicted() {
        let (bp, wal, store) = wal_pool(2);
        let f = bp.create_file().unwrap();
        let pids: Vec<PageId> = (0..2u8)
            .map(|i| {
                let (pid, h) = bp.new_page(f).unwrap();
                h.data_mut()[0] = i;
                pid
            })
            .collect();
        assert!(matches!(bp.new_page(f), Err(StorageError::BufferExhausted)));
        assert_eq!(bp.io_profile().disk.writes, 0, "nothing reached the disk");
        assert!(page_records(&store).is_empty(), "nor the log");
        commit(&bp, &wal).unwrap();
        drop(bp.new_page(f).unwrap());
        assert_eq!(bp.io_profile().evictions, 1, "a logged page is a victim");
        assert_eq!(
            page_records(&store),
            [("image", pids[0]), ("image", pids[1])]
        );
    }

    /// A commit whose append fails leaves its pages unlogged — so still
    /// no victims — *and in the set*: the next commit logs them, and
    /// then they may be written back.
    #[test]
    fn failed_commit_keeps_its_pages_for_the_next_one() {
        let store = crate::wal::MemWalStore::new();
        let wal = Arc::new(Wal::new(Box::new(FailOnce(store.clone(), Some(0))), 1));
        let bp = BufferPool::new_with_wal(Box::new(MemDisk::new()), 1, Some(Arc::clone(&wal)));
        let f = bp.create_file().unwrap();
        let (pid, h) = bp.new_page(f).unwrap();
        h.data_mut()[5] = 5;
        drop(h);
        {
            let _apply = wal.apply_lock();
            assert!(bp.log_txn_commit().is_err());
        }
        assert!(matches!(bp.new_page(f), Err(StorageError::BufferExhausted)));
        assert!(commit(&bp, &wal).is_some(), "retried, not forgotten");
        assert_eq!(page_records(&store), [("image", pid)]);
        drop(bp.new_page(f).unwrap());
        let prof = bp.io_profile();
        assert_eq!((prof.evictions, prof.disk.writes), (1, 1), "then evicted");
    }

    /// A failed commit keeps its pages' line marks too: the retry logs
    /// the lines as a delta, and the log alone rebuilds the page.
    #[test]
    fn failed_commit_keeps_the_lines_it_did_not_log() {
        let store = crate::wal::MemWalStore::new();
        let wal = Arc::new(Wal::new(Box::new(FailOnce(store.clone(), Some(1))), 1));
        let bp = BufferPool::new_with_wal(Box::new(MemDisk::new()), 2, Some(Arc::clone(&wal)));
        let f = bp.create_file().unwrap();
        let (pid, h) = bp.new_page(f).unwrap();
        h.data_mut()[5] = 5;
        commit(&bp, &wal).unwrap();
        h.data_mut()[3000] = 3;
        {
            let _apply = wal.apply_lock();
            assert!(bp.log_txn_commit().is_err());
        }
        commit(&bp, &wal).unwrap();
        assert_eq!(page_records(&store), [("image", pid), ("delta", pid)]);
        let mut disk = MemDisk::new();
        crate::wal::recover(&mut disk, &mut store.clone()).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut buf).unwrap();
        assert_eq!((buf[5], buf[3000]), (5, 3));
    }

    /// A flush under a WAL logs what no commit has (the pages of a
    /// commit whose logging failed) as one commit, makes it durable,
    /// and only then writes back: the log alone rebuilds the page.
    #[test]
    fn flush_all_logs_leftovers_before_writing_back() {
        let (bp, wal, store) = wal_pool(4);
        let f = bp.create_file().unwrap();
        let (pid, h) = bp.new_page(f).unwrap();
        h.data_mut()[100] = 1;
        commit(&bp, &wal).unwrap();
        h.data_mut()[100] = 2;
        drop(h);
        bp.flush_all().unwrap();
        assert_eq!(page_records(&store), [("image", pid), ("delta", pid)]);
        let s = wal.stats();
        assert_eq!(
            (s.durable_lsn, bp.io_profile().disk.writes),
            (s.last_lsn, 1)
        );
        assert_eq!(commit(&bp, &wal), None, "nothing left unlogged");

        let mut disk = MemDisk::new();
        crate::wal::recover(&mut disk, &mut store.clone()).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut buf).unwrap();
        assert_eq!(buf[100], 2);
    }

    /// Without a WAL the commit machinery is inert: no frame is ever
    /// flagged unlogged and nothing joins the set.
    #[test]
    fn without_a_wal_writes_leave_no_commit_state() {
        let bp = pool(4);
        let f = bp.create_file().unwrap();
        let (_, h) = bp.new_page(f).unwrap();
        h.data_mut()[1] = 1;
        assert!(!h.inner.unlogged.load(Ordering::Relaxed));
        let mut members = 0;
        bp.shared.unlogged.drain(|_| members += 1);
        assert_eq!(members, 0);
        assert_eq!(bp.log_txn_commit().unwrap(), None);
    }

    /// The pool is shared: concurrent fetches of disjoint and overlapping
    /// pages from many threads return consistent bytes, and the counters
    /// sum to the work done.
    #[test]
    fn concurrent_fetches_are_consistent() {
        let bp = std::sync::Arc::new(pool(64));
        let f = bp.create_file().unwrap();
        let mut pids = vec![];
        for i in 0..16u8 {
            let (pid, h) = bp.new_page(f).unwrap();
            h.data_mut()[0] = i;
            pids.push(pid);
        }
        bp.flush_all().unwrap();
        bp.reset_profile();

        let threads: Vec<_> = (0..8)
            .map(|t| {
                let bp = std::sync::Arc::clone(&bp);
                let pids = pids.clone();
                std::thread::spawn(move || {
                    for round in 0..50 {
                        let i = (t * 7 + round * 3) % pids.len();
                        let h = bp.fetch(pids[i]).unwrap();
                        assert_eq!(h.data()[0], i as u8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let prof = bp.io_profile();
        assert_eq!(prof.pool_hits + prof.pool_misses, 8 * 50);
        assert_eq!(prof.disk.reads, prof.pool_misses);
    }
}
