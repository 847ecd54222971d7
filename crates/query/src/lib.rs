//! # fieldrep-query
//!
//! Read and update query processing over the field-replication engine —
//! the workload of the paper's §6 cost model:
//!
//! * **read queries**: `retrieve (R.fields, R.sref.repfield) where <range
//!   on an indexed scalar field>` — executed through index-range or full
//!   scans, with projections answered from replicated values whenever a
//!   replication path covers them, collapse-path shortcuts when one
//!   covers a prefix (§3.3.3), and page-optimal functional joins
//!   otherwise (§6.2's "optimal join" assumption, implemented by
//!   batching and sorting OIDs before fetching);
//! * **update queries**: `replace (S.fields = newvalues) where …` —
//!   executed in physical order, with all replica propagation handled by
//!   the engine;
//! * **delete queries**: `delete from S where …` — the same access path,
//!   then each qualifying object deleted in physical order.

pub mod error;
pub mod exec;
pub mod explain;
pub mod plan;
pub mod sysq;

pub use error::{QueryError, Result};
pub use exec::{QueryResult, Row, UpdateResult};
pub use explain::{
    explain_analyze_read, explain_analyze_update, explain_read, explain_update, render, Explain,
    ExplainRow,
};
pub use plan::{AccessPlan, Plan, ProjPlan};
pub use sysq::{SysPlan, SysQuery, SysResult};

use fieldrep_model::Value;

/// A predicate over one dotted path (usually a base field; a replicated
/// path works too, using a path index if present, §3.3.4).
#[derive(Clone, Debug)]
pub enum Filter {
    /// `lo ≤ value ≤ hi` (inclusive).
    Range {
        /// Dotted path relative to the set (e.g. `"salary"`).
        path: String,
        /// Lower bound.
        lo: Value,
        /// Upper bound.
        hi: Value,
    },
    /// `value = v`.
    Eq {
        /// Dotted path relative to the set.
        path: String,
        /// The value to match.
        value: Value,
    },
}

impl Filter {
    /// The filtered path.
    pub fn path(&self) -> &str {
        match self {
            Filter::Range { path, .. } | Filter::Eq { path, .. } => path,
        }
    }

    /// Inclusive key bounds for an index range scan.
    pub fn bounds(&self) -> (&Value, &Value) {
        match self {
            Filter::Range { lo, hi, .. } => (lo, hi),
            Filter::Eq { value, .. } => (value, value),
        }
    }

    /// Evaluate against a concrete value (used by scan fallbacks).
    pub fn matches(&self, v: &Value) -> bool {
        fn le(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::Int(x), Value::Int(y)) => x <= y,
                (Value::Float(x), Value::Float(y)) => x <= y,
                (Value::Str(x), Value::Str(y)) => x <= y,
                _ => false,
            }
        }
        match self {
            Filter::Range { lo, hi, .. } => le(lo, v) && le(v, hi),
            Filter::Eq { value, .. } => value == v,
        }
    }
}

/// A read query (the paper's §6 `Read Query`).
#[derive(Clone, Debug)]
pub struct ReadQuery {
    /// The queried set.
    pub set: String,
    /// Optional selection predicate.
    pub filter: Option<Filter>,
    /// Projected paths, dotted, relative to the set (e.g. `"name"`,
    /// `"dept.name"`, `"dept.org.budget"`).
    pub projections: Vec<String>,
    /// Generate the output file T (§6's `C_generate/T` term). Off by
    /// default; the benchmark harness turns it on.
    pub spool_output: bool,
    /// Pad each output record to this many bytes (the paper's `t`).
    pub output_row_bytes: Option<usize>,
}

impl ReadQuery {
    /// Start building a read query on `set`.
    pub fn on(set: impl Into<String>) -> ReadQuery {
        ReadQuery {
            set: set.into(),
            filter: None,
            projections: Vec::new(),
            spool_output: false,
            output_row_bytes: None,
        }
    }

    /// Add a selection predicate.
    pub fn filter(mut self, f: Filter) -> Self {
        self.filter = Some(f);
        self
    }

    /// Add projection paths.
    pub fn project<I, S>(mut self, paths: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.projections.extend(paths.into_iter().map(Into::into));
        self
    }

    /// Enable output spooling with rows padded to `t` bytes.
    pub fn spool(mut self, row_bytes: usize) -> Self {
        self.spool_output = true;
        self.output_row_bytes = Some(row_bytes);
        self
    }
}

/// How an update query changes a field.
#[derive(Clone, Debug)]
pub enum Assign {
    /// Assign a constant.
    Set(Value),
    /// Add a delta to an integer field (guarantees the value changes, so
    /// propagation is really exercised).
    Increment(i64),
    /// Rewrite a string field `base#k` → `base#(k+1 mod n)`.
    CycleStr(usize),
}

/// An update query (the paper's §6 `Update Query`).
#[derive(Clone, Debug)]
pub struct UpdateQuery {
    /// The updated set.
    pub set: String,
    /// Optional selection predicate.
    pub filter: Option<Filter>,
    /// Field assignments.
    pub assignments: Vec<(String, Assign)>,
}

impl UpdateQuery {
    /// Start building an update query on `set`.
    pub fn on(set: impl Into<String>) -> UpdateQuery {
        UpdateQuery {
            set: set.into(),
            filter: None,
            assignments: Vec::new(),
        }
    }

    /// Add a selection predicate.
    pub fn filter(mut self, f: Filter) -> Self {
        self.filter = Some(f);
        self
    }

    /// Add an assignment.
    pub fn assign(mut self, field: impl Into<String>, a: Assign) -> Self {
        self.assignments.push((field.into(), a));
        self
    }
}

/// A delete query: `delete from <set> where <filter>`.
#[derive(Clone, Debug)]
pub struct DeleteQuery {
    /// The set deleted from.
    pub set: String,
    /// Optional selection predicate (none deletes every member).
    pub filter: Option<Filter>,
}

impl DeleteQuery {
    /// Start building a delete query on `set`.
    pub fn on(set: impl Into<String>) -> DeleteQuery {
        DeleteQuery {
            set: set.into(),
            filter: None,
        }
    }

    /// Add a selection predicate.
    pub fn filter(mut self, f: Filter) -> Self {
        self.filter = Some(f);
        self
    }
}
