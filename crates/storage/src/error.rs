//! Error type shared by every storage-level operation.

use crate::oid::{FileId, Oid, PageId};
use std::fmt;

/// Result alias used throughout the storage layer.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors raised by the storage manager and the layers built directly on it.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O error (file-backed disk manager only).
    Io(std::io::Error),
    /// The record payload exceeds what a single page can ever hold.
    RecordTooLarge {
        /// Size that was requested.
        size: usize,
        /// The largest payload a page can store.
        max: usize,
    },
    /// The referenced file does not exist (or was dropped).
    FileNotFound(FileId),
    /// The referenced page lies beyond the end of its file.
    PageOutOfBounds(PageId),
    /// The OID does not name a live record (bad slot, deleted record, or a
    /// slot holding a different kind of record than expected).
    InvalidOid(Oid),
    /// Every buffer-pool frame is pinned; the caller holds too many page
    /// handles at once.
    BufferExhausted,
    /// A batched fetch was handed page ids that are not strictly
    /// ascending (unsorted, or one repeated); names the first id found
    /// out of order.
    BatchNotAscending(PageId),
    /// On-page data failed an internal consistency check.
    Corrupt(String),
    /// The page's stored CRC32 does not match its contents — the page was
    /// torn by a crash mid-write or corrupted at rest.
    ChecksumMismatch(PageId),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::RecordTooLarge { size, max } => {
                write!(
                    f,
                    "record of {size} bytes exceeds page capacity of {max} bytes"
                )
            }
            StorageError::FileNotFound(id) => write!(f, "file {id} not found"),
            StorageError::PageOutOfBounds(pid) => write!(f, "page {pid} is out of bounds"),
            StorageError::InvalidOid(oid) => write!(f, "OID {oid} does not name a live record"),
            StorageError::BufferExhausted => {
                write!(f, "all buffer-pool frames are pinned; cannot evict")
            }
            StorageError::BatchNotAscending(pid) => {
                write!(f, "batched fetch: page {pid} is not above its predecessor")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt page data: {msg}"),
            StorageError::ChecksumMismatch(pid) => {
                write!(f, "page {pid} failed its CRC32 checksum")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}
