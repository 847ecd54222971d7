//! Fault-injecting [`DiskManager`] wrapper.
//!
//! Wraps any disk manager and injects three failure modes at seeded
//! operation counts, so crash/corruption tests (and the future
//! deterministic simulation harness) can deterministically provoke them:
//!
//! * **torn page write** — the N-th `write_page` transfers only the
//!   first half of the page, then fails (a crash mid-sector-run);
//! * **read error** — the read call that transfers the N-th page fails
//!   with an I/O error;
//! * **sync failure** — the N-th `sync` fails (full disk, dying drive).
//!
//! Counts are cumulative across the wrapper's lifetime and each armed
//! fault fires once. The wrapper's [`IoStats`] are the inner disk's,
//! less the reads a torn write makes of the old bytes: the caller asked
//! for a write, and a write is all it is counted.

use crate::disk::DiskManager;
use crate::error::Result;
use crate::oid::{FileId, PageId};
use crate::page::PAGE_SIZE;
use crate::stats::IoStats;

/// Deterministic fault plan: `Some(n)` arms the fault at the n-th
/// matching operation (1-based).
#[derive(Clone, Copy, Default, Debug)]
pub struct FaultPlan {
    /// Tear the n-th page write (half the page reaches disk, then error).
    pub torn_write_at: Option<u64>,
    /// Fail the read call that transfers the n-th page.
    pub read_error_at: Option<u64>,
    /// Fail the n-th durability barrier.
    pub sync_error_at: Option<u64>,
}

/// A [`DiskManager`] that executes a [`FaultPlan`] over an inner disk.
pub struct FaultDisk<D: DiskManager> {
    inner: D,
    plan: FaultPlan,
    writes_seen: u64,
    reads_seen: u64,
    syncs_seen: u64,
    /// Single-page reads of the inner disk made by torn writes since
    /// the last `reset_stats`, left out of `stats`.
    torn_reads: u64,
    fired: Vec<&'static str>,
}

impl<D: DiskManager> FaultDisk<D> {
    /// Wrap `inner` with the given plan.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        FaultDisk {
            inner,
            plan,
            writes_seen: 0,
            reads_seen: 0,
            syncs_seen: 0,
            torn_reads: 0,
            fired: Vec::new(),
        }
    }

    /// Which faults have fired, in order (`"torn_write"`, `"read_error"`,
    /// `"sync_error"`).
    pub fn fired(&self) -> &[&'static str] {
        &self.fired
    }
}

fn injected(what: &str) -> crate::error::StorageError {
    std::io::Error::other(format!("injected disk fault: {what}")).into()
}

impl<D: DiskManager> DiskManager for FaultDisk<D> {
    fn create_file(&mut self) -> Result<FileId> {
        self.inner.create_file()
    }

    fn drop_file(&mut self, file: FileId) -> Result<()> {
        self.inner.drop_file(file)
    }

    fn allocate_page(&mut self, file: FileId) -> Result<PageId> {
        self.inner.allocate_page(file)
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        self.inner.page_count(file)
    }

    fn read_pages(&mut self, first: PageId, bufs: &mut [&mut [u8; PAGE_SIZE]]) -> Result<()> {
        let seen = self.reads_seen;
        self.reads_seen += bufs.len() as u64;
        if let Some(at) = self.plan.read_error_at {
            if seen < at && at <= self.reads_seen {
                self.fired.push("read_error");
                return Err(injected("read"));
            }
        }
        self.inner.read_pages(first, bufs)
    }

    fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        self.writes_seen += 1;
        if self.plan.torn_write_at == Some(self.writes_seen) {
            // Transfer only the front half: read-modify-write the page so
            // the tail keeps its *old* bytes, exactly what a crash
            // between sector runs leaves behind.
            let mut torn = [0u8; PAGE_SIZE];
            self.inner.read_page(pid, &mut torn)?;
            self.torn_reads += 1;
            torn[..PAGE_SIZE / 2].copy_from_slice(&buf[..PAGE_SIZE / 2]);
            self.inner.write_page(pid, &torn)?;
            self.fired.push("torn_write");
            return Err(injected("torn write"));
        }
        self.inner.write_page(pid, buf)
    }

    fn sync(&mut self) -> Result<()> {
        self.syncs_seen += 1;
        if self.plan.sync_error_at == Some(self.syncs_seen) {
            self.fired.push("sync_error");
            return Err(injected("sync"));
        }
        self.inner.sync()
    }

    fn stats(&self) -> IoStats {
        let mut stats = self.inner.stats();
        stats.reads -= self.torn_reads;
        stats.read_calls -= self.torn_reads;
        stats
    }

    fn reset_stats(&mut self) {
        self.torn_reads = 0;
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    #[test]
    fn torn_write_leaves_half_old_half_new() {
        let mut d = FaultDisk::new(
            MemDisk::new(),
            FaultPlan {
                torn_write_at: Some(2),
                ..FaultPlan::default()
            },
        );
        let f = d.create_file().unwrap();
        let p = d.allocate_page(f).unwrap();
        d.write_page(p, &[0xAA; PAGE_SIZE]).unwrap(); // write 1: clean
        assert!(d.write_page(p, &[0xBB; PAGE_SIZE]).is_err()); // write 2: torn
        assert_eq!(d.fired(), &["torn_write"]);
        let mut buf = [0u8; PAGE_SIZE];
        d.read_page(p, &mut buf).unwrap();
        assert_eq!(buf[0], 0xBB, "front half is the new image");
        assert_eq!(buf[PAGE_SIZE - 1], 0xAA, "tail kept the old image");
    }

    #[test]
    fn a_torn_write_counts_one_write_and_no_read() {
        let mut d = FaultDisk::new(
            MemDisk::new(),
            FaultPlan {
                torn_write_at: Some(1),
                ..FaultPlan::default()
            },
        );
        let f = d.create_file().unwrap();
        let p = d.allocate_page(f).unwrap();
        assert!(d.write_page(p, &[0xBB; PAGE_SIZE]).is_err());
        assert_eq!(d.fired(), &["torn_write"]);
        let stats = d.stats();
        assert_eq!((stats.reads, stats.read_calls, stats.writes), (0, 0, 1));

        let mut buf = [0u8; PAGE_SIZE];
        d.read_page(p, &mut buf).unwrap();
        let stats = d.stats();
        assert_eq!(
            (stats.reads, stats.read_calls),
            (1, 1),
            "a real read still counts"
        );
        d.reset_stats();
        assert_eq!(d.stats(), IoStats::default());
    }

    #[test]
    fn a_torn_write_whose_read_fails_returns_that_error() {
        let failing_reads = FaultDisk::new(
            MemDisk::new(),
            FaultPlan {
                read_error_at: Some(1),
                ..FaultPlan::default()
            },
        );
        let mut d = FaultDisk::new(
            failing_reads,
            FaultPlan {
                torn_write_at: Some(1),
                ..FaultPlan::default()
            },
        );
        let f = d.create_file().unwrap();
        let p = d.allocate_page(f).unwrap();
        let err = d.write_page(p, &[0xBB; PAGE_SIZE]).unwrap_err();
        assert!(
            err.to_string().contains("injected disk fault: read"),
            "{err}"
        );
        assert!(d.fired().is_empty(), "no half page was written");
        assert_eq!(d.stats().writes, 0);
    }

    #[test]
    fn read_error_fires_once_at_the_seeded_count() {
        let mut d = FaultDisk::new(
            MemDisk::new(),
            FaultPlan {
                read_error_at: Some(2),
                ..FaultPlan::default()
            },
        );
        let f = d.create_file().unwrap();
        let p = d.allocate_page(f).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        d.read_page(p, &mut buf).unwrap();
        assert!(d.read_page(p, &mut buf).is_err());
        d.read_page(p, &mut buf).unwrap();
    }

    #[test]
    fn sync_error_fires_at_the_seeded_count() {
        let mut d = FaultDisk::new(
            MemDisk::new(),
            FaultPlan {
                sync_error_at: Some(1),
                ..FaultPlan::default()
            },
        );
        assert!(d.sync().is_err());
        d.sync().unwrap();
    }
}
