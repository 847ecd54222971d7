//! Query-layer errors.

use fieldrep_catalog::CatalogError;
use fieldrep_core::DbError;
use fieldrep_storage::StorageError;
use std::fmt;

/// Result alias for query operations.
pub type Result<T> = std::result::Result<T, QueryError>;

/// Errors raised while planning or executing queries.
#[derive(Debug)]
pub enum QueryError {
    /// Engine failure.
    Db(DbError),
    /// Malformed query (bad path, bad filter, type mismatch).
    BadQuery(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Db(e) => write!(f, "engine error: {e}"),
            QueryError::BadQuery(m) => write!(f, "bad query: {m}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DbError> for QueryError {
    fn from(e: DbError) -> Self {
        QueryError::Db(e)
    }
}

impl From<CatalogError> for QueryError {
    fn from(e: CatalogError) -> Self {
        QueryError::Db(DbError::Catalog(e))
    }
}

impl From<fieldrep_model::ModelError> for QueryError {
    fn from(e: fieldrep_model::ModelError) -> Self {
        QueryError::Db(DbError::Model(e))
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Db(DbError::Storage(e))
    }
}
