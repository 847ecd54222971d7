//! Engine-level errors.

use fieldrep_catalog::CatalogError;
use fieldrep_model::ModelError;
use fieldrep_storage::{Oid, StorageError};
use std::fmt;

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, DbError>;

/// Errors surfaced by the database engine.
#[derive(Debug)]
pub enum DbError {
    /// Storage-layer failure.
    Storage(StorageError),
    /// Data-model failure (encoding, typing, paths).
    Model(ModelError),
    /// Catalog/schema failure.
    Catalog(CatalogError),
    /// An object was deleted (or asked to be deleted) while other objects
    /// still reference it through a replication path. The paper assumes
    /// "D can be deleted only when it is not referenced by any object in
    /// Emp1" (§4.1.1); we enforce it.
    StillReferenced(Oid),
    /// A reference attribute points at an object of the wrong type.
    WrongRefType {
        /// The reference value.
        oid: Oid,
        /// Expected type name.
        expected: String,
        /// Actual type name.
        got: String,
    },
    /// Operation addressed to the wrong set or a foreign OID.
    NotInSet(Oid),
    /// A write-lock acquisition exceeded the deadlock watchdog bound.
    /// Sorted-order acquisition makes deadlock impossible, so this firing
    /// means either an ordering bug or a transaction stuck inside its
    /// critical section.
    LockTimeout(Oid),
    /// An operation was **applied but not made durable**: the in-memory
    /// apply succeeded (snapshot readers already see the new versions,
    /// and the next commit logs the dirty pages), but appending or
    /// fsyncing its WAL commit record failed. Distinct from a rejected update — callers
    /// that need the durability guarantee must treat the database as
    /// compromised (e.g. checkpoint or fail over); callers that only
    /// need the update applied may continue.
    CommitNotDurable(StorageError),
    /// Anything else that indicates a bug or unsupported usage.
    Unsupported(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Storage(e) => write!(f, "storage: {e}"),
            DbError::Model(e) => write!(f, "model: {e}"),
            DbError::Catalog(e) => write!(f, "catalog: {e}"),
            DbError::StillReferenced(o) => {
                write!(f, "object {o} is still referenced along a replication path")
            }
            DbError::WrongRefType { oid, expected, got } => {
                write!(f, "reference {oid} should be a {expected}, found {got}")
            }
            DbError::NotInSet(o) => write!(f, "OID {o} does not belong to the addressed set"),
            DbError::LockTimeout(o) => {
                write!(f, "write-lock wait on {o} exceeded the deadlock watchdog")
            }
            DbError::CommitNotDurable(e) => {
                write!(
                    f,
                    "commit applied in memory but not durable (WAL logging failed): {e}"
                )
            }
            DbError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Storage(e) => Some(e),
            DbError::Model(e) => Some(e),
            DbError::Catalog(e) => Some(e),
            DbError::CommitNotDurable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl From<ModelError> for DbError {
    fn from(e: ModelError) -> Self {
        DbError::Model(e)
    }
}

impl From<CatalogError> for DbError {
    fn from(e: CatalogError) -> Self {
        DbError::Catalog(e)
    }
}
