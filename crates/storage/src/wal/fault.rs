//! Fault-injecting [`WalStore`] wrapper: short (torn) appends at a
//! seeded byte offset, the log-side counterpart of
//! [`crate::fault::FaultDisk`]. Used by the crash tests and available
//! to the future deterministic simulation harness.

use super::store::{WalStore, WalSyncer};
use crate::error::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Wraps a [`WalStore`]; once the cumulative appended byte count would
/// cross `cut_at`, the append is written only up to the cut and fails —
/// every later append fails outright. This models a crash mid-`write`:
/// a prefix of the frame reaches the log, the rest never does.
pub struct FaultWal<S: WalStore> {
    inner: S,
    appended: u64,
    cut_at: Option<u64>,
    /// Shared with syncer handles, which must also die once the fault
    /// has fired (a crashed process fsyncs nothing).
    tripped: Arc<AtomicBool>,
}

impl<S: WalStore> FaultWal<S> {
    /// Wrap `inner` with no fault armed.
    pub fn new(inner: S) -> Self {
        FaultWal {
            inner,
            appended: 0,
            cut_at: None,
            tripped: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Arm a short write: appends die once `cut_at` cumulative bytes
    /// have been appended through this wrapper.
    pub fn cut_after(mut self, cut_at: u64) -> Self {
        self.cut_at = Some(cut_at);
        self
    }

    /// Whether the armed fault has fired.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    fn trip(&self) {
        self.tripped.store(true, Ordering::Relaxed);
    }
}

fn crashed() -> crate::error::StorageError {
    std::io::Error::other("injected WAL crash: short append").into()
}

/// Syncer twin of [`FaultWal`]: refuses barriers once the fault fired.
struct FaultSyncer {
    tripped: Arc<AtomicBool>,
    inner: Box<dyn WalSyncer>,
}

impl WalSyncer for FaultSyncer {
    fn wal_sync_now(&self) -> Result<()> {
        if self.tripped.load(Ordering::Relaxed) {
            return Err(crashed());
        }
        self.inner.wal_sync_now()
    }
}

impl<S: WalStore> WalStore for FaultWal<S> {
    fn wal_append(&mut self, bytes: &[u8]) -> Result<()> {
        if self.tripped() {
            return Err(crashed());
        }
        if let Some(cut) = self.cut_at {
            if self.appended + bytes.len() as u64 > cut {
                let keep = cut.saturating_sub(self.appended) as usize;
                self.inner.wal_append(&bytes[..keep])?;
                self.appended += keep as u64;
                self.trip();
                return Err(crashed());
            }
        }
        self.inner.wal_append(bytes)?;
        self.appended += bytes.len() as u64;
        Ok(())
    }

    fn wal_sync(&mut self) -> Result<()> {
        if self.tripped() {
            return Err(crashed());
        }
        self.inner.wal_sync()
    }

    fn wal_read_all(&mut self) -> Result<Vec<u8>> {
        self.inner.wal_read_all()
    }

    fn wal_truncate(&mut self, len: u64) -> Result<()> {
        if self.tripped() {
            return Err(crashed());
        }
        self.inner.wal_truncate(len)
    }

    fn wal_len(&mut self) -> Result<u64> {
        self.inner.wal_len()
    }

    fn wal_syncer(&self) -> Box<dyn WalSyncer> {
        Box::new(FaultSyncer {
            tripped: Arc::clone(&self.tripped),
            inner: self.inner.wal_syncer(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::store::MemWalStore;

    #[test]
    fn short_append_leaves_a_prefix_then_fails_everything() {
        let shared = MemWalStore::new();
        let mut w = FaultWal::new(shared.clone()).cut_after(10);
        w.wal_append(b"12345678").unwrap();
        assert!(w.wal_append(b"ABCDEF").is_err(), "crosses the cut");
        assert!(w.tripped());
        assert_eq!(shared.snapshot(), b"12345678AB", "prefix reached the log");
        assert!(w.wal_append(b"x").is_err());
        assert!(w.wal_sync().is_err());
    }

    #[test]
    fn syncer_handle_sees_the_trip() {
        let mut w = FaultWal::new(MemWalStore::new()).cut_after(4);
        let syncer = w.wal_syncer();
        syncer.wal_sync_now().unwrap();
        assert!(w.wal_append(b"123456").is_err());
        assert!(
            syncer.wal_sync_now().is_err(),
            "a barrier through a pre-existing handle fails after the crash"
        );
    }
}
