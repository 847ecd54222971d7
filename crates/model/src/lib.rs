//! # fieldrep-model
//!
//! The EXTRA-subset data model assumed by the paper (§2): type
//! definitions with scalar and *reference attributes*, runtime values,
//! the binary object encoding (including the hidden annotations that
//! field replication attaches to objects), and reference-path syntax.
//!
//! This crate is pure — it performs no I/O. Types here are consumed by
//! the catalog (schema resolution), the replication engine (annotation
//! maintenance) and the query processor (projection/selection).

pub mod error;
pub mod object;
pub mod path;
pub mod types;
pub mod value;

pub use error::ModelError;
pub use object::{Annotation, Object, ObjectView};
pub use path::PathExpr;
pub use types::{FieldDef, FieldType, TypeDef, TypeId};
pub use value::Value;
