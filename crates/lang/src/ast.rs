//! Abstract syntax of the EXTRA-style statement language.

/// A literal or variable expression appearing as a value.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// The null reference.
    Null,
    /// `$var` — an object handle bound by `insert … as $var`.
    Var(String),
}

/// Comparison operators in `where` clauses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

/// A `where` predicate over one dotted path.
#[derive(Clone, PartialEq, Debug)]
pub enum Predicate {
    /// `path OP literal`.
    Cmp {
        /// Dotted path including the set name (`Emp1.salary`).
        path: Vec<String>,
        /// The operator.
        op: CmpOp,
        /// The literal.
        value: Expr,
    },
    /// `path between lo and hi` (inclusive).
    Between {
        /// Dotted path including the set name.
        path: Vec<String>,
        /// Lower bound.
        lo: Expr,
        /// Upper bound.
        hi: Expr,
    },
}

/// One field declaration inside `define type`.
#[derive(Clone, PartialEq, Debug)]
pub enum FieldDecl {
    /// `name: int`
    Int(String),
    /// `name: float`
    Float(String),
    /// `name: char[]`
    Str(String),
    /// `name: ref TYPE`
    Ref(String, String),
    /// `name: pad[N]` (benchmark sizing helper)
    Pad(String, u16),
}

/// A parsed statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `define type EMP ( name: char[], … )`
    DefineType {
        /// Type name.
        name: String,
        /// Field declarations.
        fields: Vec<FieldDecl>,
    },
    /// `create Emp1: {own ref EMP}`
    CreateSet {
        /// Set name.
        name: String,
        /// Element type name.
        type_name: String,
    },
    /// `replicate Emp1.dept.name [using separate] [deferred]`
    Replicate {
        /// Dotted path including the set name.
        path: Vec<String>,
        /// True for `using separate` (default is in-place, as in the
        /// paper's examples).
        separate: bool,
        /// True for `deferred` propagation.
        deferred: bool,
        /// True for `collapsed` (§4.3.3) inverted paths.
        collapsed: bool,
    },
    /// `drop replicate Emp1.dept.name`
    DropReplicate {
        /// Dotted path including the set name.
        path: Vec<String>,
    },
    /// `build [clustered] btree on Emp1.salary`
    BuildIndex {
        /// Dotted path including the set name.
        path: Vec<String>,
        /// True for `clustered`.
        clustered: bool,
    },
    /// `insert Emp1 (name = "Alice", dept = $shoe) [as $alice]`
    Insert {
        /// Target set.
        set: String,
        /// `(field, value)` pairs; unmentioned pad fields default.
        fields: Vec<(String, Expr)>,
        /// Variable to bind the new OID to.
        bind: Option<String>,
    },
    /// `retrieve (Emp1.name, Emp1.dept.name) [where …]`
    Retrieve {
        /// Projections: dotted paths including the set name (all must
        /// start from the same set).
        projections: Vec<Vec<String>>,
        /// Optional predicate.
        predicate: Option<Predicate>,
    },
    /// `retrieve (name, value) from sys.metrics [where …]` — a virtual
    /// scan over one introspection table. `retrieve (all) from sys.…`
    /// projects every column.
    RetrieveSys {
        /// Full table name (`"sys.metrics"`, …).
        table: String,
        /// Projected column names; empty = every column.
        columns: Vec<String>,
        /// Optional predicate over one column (bare column name).
        predicate: Option<Predicate>,
    },
    /// `replace (Dept.budget = 42) where Dept.name = "Shoe"`
    Replace {
        /// Assignments: `(set-qualified field path, value)`.
        assignments: Vec<(Vec<String>, Expr)>,
        /// Optional predicate.
        predicate: Option<Predicate>,
    },
    /// `delete from Emp1 where …`
    Delete {
        /// Target set.
        set: String,
        /// Optional predicate (absent = delete all).
        predicate: Option<Predicate>,
    },
    /// `advise Emp1.dept.name [at 0.3]` — measure the path and recommend
    /// a strategy using the §6 cost model (extension; see
    /// `Database::advise_path`).
    Advise {
        /// Dotted path including the set name.
        path: Vec<String>,
        /// Update probability of the workload mix (default 0.1).
        p_update: f64,
    },
    /// `explain [analyze] <retrieve|replace …>` — print the physical
    /// plan with §6 cost-model page-I/O predictions per operator;
    /// with `analyze`, execute and show measured I/O and drift too.
    Explain {
        /// True for `explain analyze` (executes the statement).
        analyze: bool,
        /// The explained statement (`Retrieve` or `Replace`).
        stmt: Box<Stmt>,
    },
    /// `set slowlog off` / `set slowlog threshold 10 ms 100 pages` —
    /// configure the process-wide slow-query log. Both limits `None`
    /// turns the log off.
    SetSlowlog {
        /// Wall-clock threshold in milliseconds.
        wall_ms: Option<u64>,
        /// Page-touch threshold.
        io_pages: Option<u64>,
    },
    /// `begin` — open a transaction (statistics window + abort right).
    Begin,
    /// `commit` — close the current transaction.
    Commit,
    /// `abort` — abandon the current transaction. The engine has no undo
    /// log, so aborting is only legal before the transaction's first
    /// write.
    Abort,
    /// `sync` — apply all deferred propagation.
    Sync,
    /// `show catalog | show pending | show io`
    Show {
        /// What to show.
        what: String,
    },
    /// `show stats [path Emp1.dept.name]` — observed per-path workload
    /// statistics (reads, update ripples, `P_up`, fan-out and page EWMAs).
    ShowStats {
        /// Restrict to one dotted path (including the set name).
        path: Option<Vec<String>>,
    },
}
