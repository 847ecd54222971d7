//! Disk managers: the physical page store.
//!
//! Two backends are provided. [`MemDisk`] keeps pages in memory and is used
//! by tests and by the I/O-counting simulation benchmarks (the paper's
//! evaluation is in units of page I/O, not seconds, so a counted in-memory
//! disk reproduces it faithfully). [`FileDisk`] stores each file as a real
//! file on the local filesystem for durability-flavoured runs.

use crate::error::{Result, StorageError};
use crate::oid::{FileId, PageId};
use crate::page::PAGE_SIZE;
use crate::stats::IoStats;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

/// Abstraction over the physical page store.
///
/// All methods address whole 4 KiB pages; the buffer pool above never does
/// partial transfers. Implementations count reads/writes/allocations in an
/// [`IoStats`] that the benchmark harness samples. A backend implements
/// one read, [`DiskManager::read_pages`]; [`DiskManager::read_page`] is a
/// run of one over it.
pub trait DiskManager: Send {
    /// Create a new empty file and return its id.
    fn create_file(&mut self) -> Result<FileId>;
    /// Remove a file and release its pages.
    fn drop_file(&mut self, file: FileId) -> Result<()>;
    /// Append one zeroed page to `file`, returning its id.
    ///
    /// Allocation is not counted as a read or a write; the buffer pool
    /// materialises new pages directly in memory and writes them back on
    /// eviction/flush (which *is* counted).
    fn allocate_page(&mut self, file: FileId) -> Result<PageId>;
    /// Number of allocated pages in `file`.
    fn page_count(&self, file: FileId) -> Result<u32>;
    /// Read `bufs.len()` *adjacent* pages starting at `first`: the disk's
    /// one read. Every miss of [`crate::BufferPool`] is one call — a
    /// single-page fetch a run of one, a batch one call per run of
    /// adjacent missing pages.
    ///
    /// One call is one [`IoStats::read_calls`], and every page of it one
    /// [`IoStats::reads`], so batched and single-page paths report
    /// identical page-I/O totals; only the call count differs.
    fn read_pages(&mut self, first: PageId, bufs: &mut [&mut [u8; PAGE_SIZE]]) -> Result<()>;
    /// Read page `pid` into `buf`: a run of one.
    fn read_page(&mut self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.read_pages(pid, &mut [buf])
    }
    /// Write `buf` to page `pid`.
    fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()>;
    /// Durability barrier: every previously written page must survive a
    /// crash after this returns. [`FileDisk`] issues `fsync` on every
    /// open file; [`MemDisk`] only counts the call (memory survives
    /// nothing). Counted in [`IoStats::syncs`].
    fn sync(&mut self) -> Result<()>;
    /// Physical I/O counters since the last reset.
    fn stats(&self) -> IoStats;
    /// Reset the physical I/O counters.
    fn reset_stats(&mut self);
}

/// In-memory disk manager. Pages live in `Vec`s; every access is still
/// counted so simulations report exact page-I/O numbers.
pub struct MemDisk {
    files: BTreeMap<FileId, Vec<Box<[u8; PAGE_SIZE]>>>,
    next_file: u16,
    stats: IoStats,
}

impl MemDisk {
    /// Create an empty in-memory disk.
    pub fn new() -> Self {
        MemDisk {
            files: BTreeMap::new(),
            next_file: 0,
            stats: IoStats::default(),
        }
    }
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskManager for MemDisk {
    fn create_file(&mut self) -> Result<FileId> {
        let id = FileId(self.next_file);
        self.next_file = self
            .next_file
            .checked_add(1)
            .expect("file id space exhausted");
        self.files.insert(id, Vec::new());
        Ok(id)
    }

    fn drop_file(&mut self, file: FileId) -> Result<()> {
        self.files
            .remove(&file)
            .map(|_| ())
            .ok_or(StorageError::FileNotFound(file))
    }

    fn allocate_page(&mut self, file: FileId) -> Result<PageId> {
        let pages = self
            .files
            .get_mut(&file)
            .ok_or(StorageError::FileNotFound(file))?;
        let page_no = u32::try_from(pages.len()).expect("file larger than 2^32 pages");
        pages.push(Box::new([0u8; PAGE_SIZE]));
        self.stats.allocations += 1;
        Ok(PageId::new(file, page_no))
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        self.files
            .get(&file)
            .map(|p| p.len() as u32)
            .ok_or(StorageError::FileNotFound(file))
    }

    fn read_pages(&mut self, first: PageId, bufs: &mut [&mut [u8; PAGE_SIZE]]) -> Result<()> {
        let pages = self
            .files
            .get(&first.file)
            .ok_or(StorageError::FileNotFound(first.file))?;
        let last = first.page as usize + bufs.len().saturating_sub(1);
        if bufs.is_empty() {
            return Ok(());
        }
        if last >= pages.len() {
            return Err(StorageError::PageOutOfBounds(PageId::new(
                first.file,
                last as u32,
            )));
        }
        for (i, buf) in bufs.iter_mut().enumerate() {
            buf.copy_from_slice(&pages[first.page as usize + i][..]);
        }
        // n page transfers, one grouped call — the in-memory analogue of
        // a single-seek vectored read.
        self.stats.reads += bufs.len() as u64;
        self.stats.read_calls += 1;
        Ok(())
    }

    fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        let pages = self
            .files
            .get_mut(&pid.file)
            .ok_or(StorageError::FileNotFound(pid.file))?;
        let page = pages
            .get_mut(pid.page as usize)
            .ok_or(StorageError::PageOutOfBounds(pid))?;
        page.copy_from_slice(buf);
        self.stats.writes += 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

/// File-backed disk manager: each database file is one file named
/// `f<NNN>.pages` inside a directory.
pub struct FileDisk {
    dir: PathBuf,
    files: BTreeMap<FileId, OpenFile>,
    next_file: u16,
    stats: IoStats,
}

struct OpenFile {
    handle: File,
    pages: u32,
}

/// Byte offset of page `page` within its file.
fn offset(page: u32) -> u64 {
    u64::from(page) * PAGE_SIZE as u64
}

impl FileDisk {
    /// Open (or create) a disk rooted at `dir`. Existing `f*.pages` files in
    /// the directory are reopened with their page counts derived from file
    /// length.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut files = BTreeMap::new();
        let mut next_file: u16 = 0;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix('f')
                .and_then(|rest| rest.strip_suffix(".pages"))
            {
                if let Ok(id) = num.parse::<u16>() {
                    let handle = OpenOptions::new()
                        .read(true)
                        .write(true)
                        .open(entry.path())?;
                    let len = handle.metadata()?.len();
                    let pages = (len / PAGE_SIZE as u64) as u32;
                    files.insert(FileId(id), OpenFile { handle, pages });
                    next_file = next_file.max(id.saturating_add(1));
                }
            }
        }
        Ok(FileDisk {
            dir,
            files,
            next_file,
            stats: IoStats::default(),
        })
    }

    fn path_for(&self, file: FileId) -> PathBuf {
        self.dir.join(format!("f{}.pages", file.0))
    }
}

impl DiskManager for FileDisk {
    fn create_file(&mut self) -> Result<FileId> {
        let id = FileId(self.next_file);
        self.next_file = self
            .next_file
            .checked_add(1)
            .expect("file id space exhausted");
        let handle = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.path_for(id))?;
        self.files.insert(id, OpenFile { handle, pages: 0 });
        Ok(id)
    }

    fn drop_file(&mut self, file: FileId) -> Result<()> {
        self.files
            .remove(&file)
            .ok_or(StorageError::FileNotFound(file))?;
        std::fs::remove_file(self.path_for(file))?;
        Ok(())
    }

    fn allocate_page(&mut self, file: FileId) -> Result<PageId> {
        let of = self
            .files
            .get_mut(&file)
            .ok_or(StorageError::FileNotFound(file))?;
        let page_no = of.pages;
        of.pages += 1;
        of.handle.set_len(offset(of.pages))?;
        self.stats.allocations += 1;
        Ok(PageId::new(file, page_no))
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        self.files
            .get(&file)
            .map(|f| f.pages)
            .ok_or(StorageError::FileNotFound(file))
    }

    fn read_pages(&mut self, first: PageId, bufs: &mut [&mut [u8; PAGE_SIZE]]) -> Result<()> {
        if bufs.is_empty() {
            return Ok(());
        }
        let of = self
            .files
            .get_mut(&first.file)
            .ok_or(StorageError::FileNotFound(first.file))?;
        let last = u64::from(first.page) + bufs.len() as u64 - 1;
        if last >= u64::from(of.pages) {
            return Err(StorageError::PageOutOfBounds(PageId::new(
                first.file,
                last as u32,
            )));
        }
        if let [buf] = bufs {
            // Positional: one syscall, and no dependence on the cursor the
            // vectored read below leaves behind.
            of.handle.read_exact_at(&mut buf[..], offset(first.page))?;
        } else {
            of.handle.seek(SeekFrom::Start(offset(first.page)))?;
            // One vectored read for the whole run; a short read (the
            // kernel may split large vectors) falls back to per-page
            // reads at explicit offsets for the remainder.
            let mut slices: Vec<std::io::IoSliceMut<'_>> = bufs
                .iter_mut()
                .map(|b| std::io::IoSliceMut::new(&mut b[..]))
                .collect();
            let n = of.handle.read_vectored(&mut slices)?;
            let done_pages = n / PAGE_SIZE;
            if n % PAGE_SIZE != 0 || done_pages < bufs.len() {
                for (i, buf) in bufs.iter_mut().enumerate().skip(done_pages) {
                    of.handle
                        .read_exact_at(&mut buf[..], offset(first.page + i as u32))?;
                }
            }
        }
        self.stats.reads += bufs.len() as u64;
        self.stats.read_calls += 1;
        Ok(())
    }

    fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        let of = self
            .files
            .get(&pid.file)
            .ok_or(StorageError::FileNotFound(pid.file))?;
        if pid.page >= of.pages {
            return Err(StorageError::PageOutOfBounds(pid));
        }
        of.handle.write_all_at(&buf[..], offset(pid.page))?;
        self.stats.writes += 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        for of in self.files.values() {
            of.handle.sync_all()?;
        }
        self.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

/// Remove an on-disk database directory — the `f*.pages` files written by
/// [`FileDisk`], any `wal.log` written by [`crate::FileWalStore`], and the
/// directory itself. A missing directory is not an error. This lives here
/// (rather than in callers) because the storage crate owns the on-disk
/// layout and is the only crate allowed raw filesystem access.
pub fn remove_db_dir(dir: impl AsRef<std::path::Path>) -> Result<()> {
    match std::fs::remove_dir_all(dir.as_ref()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &mut dyn DiskManager) {
        let f = disk.create_file().unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 0);
        let p0 = disk.allocate_page(f).unwrap();
        let p1 = disk.allocate_page(f).unwrap();
        assert_eq!(p0.page, 0);
        assert_eq!(p1.page, 1);
        assert_eq!(disk.page_count(f).unwrap(), 2);

        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        disk.write_page(p1, &buf).unwrap();

        let mut back = [0u8; PAGE_SIZE];
        disk.read_page(p1, &mut back).unwrap();
        assert_eq!(back[0], 0xAB);
        assert_eq!(back[PAGE_SIZE - 1], 0xCD);

        disk.read_page(p0, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0), "fresh pages are zeroed");

        let bad = PageId::new(f, 99);
        assert!(matches!(
            disk.read_page(bad, &mut back),
            Err(StorageError::PageOutOfBounds(_))
        ));

        let s = disk.stats();
        assert_eq!(s.reads, 2); // the out-of-bounds read fails before counting
        assert_eq!(s.writes, 1);
        assert_eq!(s.allocations, 2);

        disk.drop_file(f).unwrap();
        assert!(matches!(
            disk.page_count(f),
            Err(StorageError::FileNotFound(_))
        ));
    }

    #[test]
    fn mem_disk_basics() {
        let mut d = MemDisk::new();
        exercise(&mut d);
    }

    #[test]
    fn file_disk_basics() {
        let dir = std::env::temp_dir().join(format!("fieldrep-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut d = FileDisk::open(&dir).unwrap();
            exercise(&mut d);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_disk_reopen_preserves_pages() {
        let dir = std::env::temp_dir().join(format!("fieldrep-disk-re-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (f, pid) = {
            let mut d = FileDisk::open(&dir).unwrap();
            let f = d.create_file().unwrap();
            let pid = d.allocate_page(f).unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[7] = 77;
            d.write_page(pid, &buf).unwrap();
            (f, pid)
        };
        {
            let mut d = FileDisk::open(&dir).unwrap();
            assert_eq!(d.page_count(f).unwrap(), 1);
            let mut buf = [0u8; PAGE_SIZE];
            d.read_page(pid, &mut buf).unwrap();
            assert_eq!(buf[7], 77);
            // New files must not collide with reopened ids.
            let g = d.create_file().unwrap();
            assert_ne!(g, f);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn exercise_batch(disk: &mut dyn DiskManager) {
        let f = disk.create_file().unwrap();
        let mut pids = vec![];
        for i in 0..4u8 {
            let p = disk.allocate_page(f).unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = i + 1;
            disk.write_page(p, &buf).unwrap();
            pids.push(p);
        }
        disk.reset_stats();
        let mut storage = vec![[0u8; PAGE_SIZE]; 4];
        let mut bufs: Vec<&mut [u8; PAGE_SIZE]> = storage.iter_mut().collect();
        disk.read_pages(pids[0], &mut bufs).unwrap();
        for (i, buf) in storage.iter().enumerate() {
            assert_eq!(buf[0], i as u8 + 1, "page {i} of the run");
        }
        let s = disk.stats();
        assert_eq!(s.reads, 4, "every page of the run is counted");
        assert_eq!(s.read_calls, 1, "but the run is one grouped call");

        // A run extending past EOF fails without touching the counters.
        let mut storage = vec![[0u8; PAGE_SIZE]; 3];
        let mut bufs: Vec<&mut [u8; PAGE_SIZE]> = storage.iter_mut().collect();
        assert!(matches!(
            disk.read_pages(PageId::new(f, 2), &mut bufs),
            Err(StorageError::PageOutOfBounds(_))
        ));
        assert_eq!(disk.stats().reads, 4);
    }

    #[test]
    fn mem_disk_batch_reads() {
        let mut d = MemDisk::new();
        exercise_batch(&mut d);
    }

    #[test]
    fn file_disk_batch_reads() {
        let dir = std::env::temp_dir().join(format!("fieldrep-disk-b-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut d = FileDisk::open(&dir).unwrap();
            exercise_batch(&mut d);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Version `v` of page `pid` (page < 8, file < 2, v < 4): each
    /// differs from every other in all of its bytes.
    fn pattern(pid: PageId, v: u8) -> [u8; PAGE_SIZE] {
        let id = pid.page + 8 * u32::from(pid.file.0) + 16 * u32::from(v);
        let mut buf = [0u8; PAGE_SIZE];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i as u32 * 7 + id) as u8;
        }
        buf
    }

    fn try_read_run(d: &mut FileDisk, first: PageId, n: usize) -> Result<Vec<[u8; PAGE_SIZE]>> {
        let mut storage = vec![[0u8; PAGE_SIZE]; n];
        let mut bufs: Vec<&mut [u8; PAGE_SIZE]> = storage.iter_mut().collect();
        d.read_pages(first, &mut bufs)?;
        Ok(storage)
    }

    fn read_run(d: &mut FileDisk, first: PageId, n: usize) -> Vec<[u8; PAGE_SIZE]> {
        try_read_run(d, first, n).unwrap()
    }

    /// `read_pages` moves the file cursor (seek + vectored read);
    /// `read_page`, `write_page` and a run of one are positional. Mixed
    /// on one file and across two, neither may depend on, or be
    /// confused by, where the other left the cursor.
    #[test]
    fn file_disk_positional_and_vectored_io_interleave() {
        let dir = std::env::temp_dir().join(format!("fieldrep-disk-pos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut d = FileDisk::open(&dir).unwrap();
            let (a, b) = (d.create_file().unwrap(), d.create_file().unwrap());
            let mut version = std::collections::BTreeMap::new();
            for f in [a, b] {
                for _ in 0..8 {
                    let pid = d.allocate_page(f).unwrap();
                    d.write_page(pid, &pattern(pid, 0)).unwrap();
                    version.insert(pid, 0u8);
                }
            }
            let pid = |f: FileId, page: u32| PageId::new(f, page);
            let mut one = [0u8; PAGE_SIZE];
            for round in 1..=3u8 {
                // A vectored run leaves `a`'s cursor after page 5.
                for (i, got) in read_run(&mut d, pid(a, 2), 4).iter().enumerate() {
                    let p = pid(a, 2 + i as u32);
                    assert_eq!(got, &pattern(p, version[&p]), "run over {p:?}");
                }
                // Positional accesses before, inside and after that run.
                for page in [0, 3, 7] {
                    d.read_page(pid(a, page), &mut one).unwrap();
                    assert_eq!(one, pattern(pid(a, page), version[&pid(a, page)]));
                }
                for p in [pid(a, 3), pid(b, 0), pid(a, 6)] {
                    d.write_page(p, &pattern(p, round)).unwrap();
                    version.insert(p, round);
                }
                // The other file's cursor is its own.
                for (i, got) in read_run(&mut d, pid(b, 0), 3).iter().enumerate() {
                    let p = pid(b, i as u32);
                    assert_eq!(got, &pattern(p, version[&p]), "run over {p:?}");
                }
                // A run of one is positional too, and a positional write
                // shows up in the next vectored run.
                assert_eq!(read_run(&mut d, pid(a, 6), 1)[0], pattern(pid(a, 6), round));
                assert_eq!(read_run(&mut d, pid(a, 3), 2)[0], pattern(pid(a, 3), round));
            }
            // Every byte of both files, by each path.
            for (&p, &v) in &version {
                d.read_page(p, &mut one).unwrap();
                assert_eq!(one, pattern(p, v), "{p:?}");
            }
            for f in [a, b] {
                for (i, got) in read_run(&mut d, pid(f, 0), 8).iter().enumerate() {
                    let p = pid(f, i as u32);
                    assert_eq!(got, &pattern(p, version[&p]), "{p:?}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A file cut short behind an open `FileDisk` (its page count is
    /// cached at open) is an I/O error on every read path, not a panic
    /// and not a page of zeros.
    #[test]
    fn truncated_file_is_an_io_error() {
        let dir = std::env::temp_dir().join(format!("fieldrep-disk-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut d = FileDisk::open(&dir).unwrap();
            let f = d.create_file().unwrap();
            for _ in 0..4 {
                let pid = d.allocate_page(f).unwrap();
                d.write_page(pid, &pattern(pid, 0)).unwrap();
            }
            let cut = OpenOptions::new().write(true).open(d.path_for(f)).unwrap();
            cut.set_len(PAGE_SIZE as u64 + 100).unwrap();

            let mut one = [0u8; PAGE_SIZE];
            d.read_page(PageId::new(f, 0), &mut one).unwrap();
            assert_eq!(one, pattern(PageId::new(f, 0), 0));
            for page in [1, 3] {
                assert!(matches!(
                    d.read_page(PageId::new(f, page), &mut one),
                    Err(StorageError::Io(_))
                ));
            }
            for (first, n) in [(0, 3), (1, 2), (2, 1)] {
                assert!(
                    matches!(
                        try_read_run(&mut d, PageId::new(f, first), n),
                        Err(StorageError::Io(_))
                    ),
                    "run of {n} at page {first}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression for the durability gap: `FileDisk` wrote pages but
    /// never issued a durability barrier. `sync` must succeed on both
    /// backends and be counted, so callers (the WAL, checkpoints) can
    /// assert their barrier actually ran.
    #[test]
    fn sync_is_counted_on_both_backends() {
        let mut m = MemDisk::new();
        let f = m.create_file().unwrap();
        let p = m.allocate_page(f).unwrap();
        m.write_page(p, &[1u8; PAGE_SIZE]).unwrap();
        m.sync().unwrap();
        m.sync().unwrap();
        assert_eq!(m.stats().syncs, 2);

        let dir = std::env::temp_dir().join(format!("fieldrep-disk-sync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut d = FileDisk::open(&dir).unwrap();
            let f = d.create_file().unwrap();
            let p = d.allocate_page(f).unwrap();
            d.write_page(p, &[2u8; PAGE_SIZE]).unwrap();
            d.sync().unwrap();
            assert_eq!(d.stats().syncs, 1);
            // The barrier really hits the filesystem: the data is visible
            // through an independent handle immediately after.
            let mut back = [0u8; PAGE_SIZE];
            let mut d2 = FileDisk::open(&dir).unwrap();
            d2.read_page(p, &mut back).unwrap();
            assert_eq!(back[0], 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_reset() {
        let mut d = MemDisk::new();
        let f = d.create_file().unwrap();
        let p = d.allocate_page(f).unwrap();
        let buf = [0u8; PAGE_SIZE];
        d.write_page(p, &buf).unwrap();
        assert_ne!(d.stats(), IoStats::default());
        d.reset_stats();
        assert_eq!(d.stats(), IoStats::default());
    }
}
