//! Interpreter: executes parsed statements against a [`Database`].

use crate::ast::{CmpOp, Expr, FieldDecl, Predicate, Stmt};
use crate::parser::{parse_script, parse_stmt};
use crate::LangError;
use fieldrep_catalog::{IndexKind, Propagation, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_query::{Assign, DeleteQuery, Filter, ReadQuery, UpdateQuery};
use fieldrep_storage::Oid;
use std::collections::HashMap;
use std::fmt;

/// The result of executing one statement.
#[derive(Debug)]
pub enum Output {
    /// Statement had no result (DDL).
    None,
    /// `insert` — the new object's OID.
    Inserted(Oid),
    /// `retrieve` — column headers and rows.
    Rows {
        /// Column headers (the projection paths).
        columns: Vec<String>,
        /// Result rows (`None` = broken reference path).
        rows: Vec<Vec<Option<Value>>>,
    },
    /// `replace` — number of objects updated.
    Updated(usize),
    /// `delete` — number of objects deleted.
    Deleted(usize),
    /// `sync` — number of deferred work items applied.
    Synced(usize),
    /// `show …` — formatted text.
    Text(String),
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Output::None => write!(f, "ok"),
            Output::Inserted(oid) => write!(f, "inserted {oid}"),
            Output::Updated(n) => write!(f, "{n} object(s) updated"),
            Output::Deleted(n) => write!(f, "{n} object(s) deleted"),
            Output::Synced(n) => write!(f, "{n} deferred propagation(s) applied"),
            Output::Text(s) => write!(f, "{s}"),
            Output::Rows { columns, rows } => {
                writeln!(f, "{}", columns.join(" | "))?;
                for row in rows {
                    let cells: Vec<String> = row
                        .iter()
                        .map(|v| match v {
                            Some(v) => format!("{v}"),
                            None => "NULL".into(),
                        })
                        .collect();
                    writeln!(f, "{}", cells.join(" | "))?;
                }
                write!(f, "({} row(s))", rows.len())
            }
        }
    }
}

/// An interpreter session: a database plus `$variable` bindings.
pub struct Interpreter {
    /// The underlying database (accessible for mixing API and language
    /// use).
    pub db: Database,
    vars: HashMap<String, Oid>,
    /// The open transaction, if any: `(id, has written)`. The engine has
    /// no undo log, so the `abort` statement is refused once the flag is
    /// set.
    txn: Option<(u64, bool)>,
}

impl Interpreter {
    /// Fresh in-memory database session.
    pub fn new(cfg: DbConfig) -> Interpreter {
        Interpreter {
            db: Database::in_memory(cfg),
            vars: HashMap::new(),
            txn: None,
        }
    }

    /// Wrap an existing database.
    pub fn with_db(db: Database) -> Interpreter {
        Interpreter {
            db,
            vars: HashMap::new(),
            txn: None,
        }
    }

    /// The id of the currently open transaction, if any.
    pub fn current_txn(&self) -> Option<u64> {
        self.txn.map(|(id, _)| id)
    }

    /// Look up a `$variable` bound by `insert … as $var`.
    pub fn var(&self, name: &str) -> Option<Oid> {
        self.vars.get(name).copied()
    }

    /// Bind a `$variable` programmatically.
    pub fn bind(&mut self, name: impl Into<String>, oid: Oid) {
        self.vars.insert(name.into(), oid);
    }

    /// Parse and execute a single statement.
    pub fn execute(&mut self, src: &str) -> Result<Output, LangError> {
        let stmt = parse_stmt(src)?;
        self.execute_stmt(&stmt)
    }

    /// Parse and execute a `;`-separated script, returning each
    /// statement's output.
    pub fn run_script(&mut self, src: &str) -> Result<Vec<Output>, LangError> {
        let stmts = parse_script(src)?;
        stmts.iter().map(|s| self.execute_stmt(s)).collect()
    }

    fn value_of(&self, e: &Expr) -> Result<Value, LangError> {
        Ok(match e {
            Expr::Int(v) => Value::Int(*v),
            Expr::Float(v) => Value::Float(*v),
            Expr::Str(s) => Value::Str(s.clone()),
            Expr::Null => Value::Ref(Oid::NULL),
            Expr::Var(name) => Value::Ref(
                *self
                    .vars
                    .get(name)
                    .ok_or_else(|| LangError::Exec(format!("unbound variable ${name}")))?,
            ),
        })
    }

    fn filter_of<'p>(&self, pred: &'p Predicate) -> Result<(&'p str, Filter), LangError> {
        let (path, filter) = match pred {
            Predicate::Between { path, lo, hi } => {
                let (set, rel) = split_set(path)?;
                (
                    set,
                    Filter::Range {
                        path: rel,
                        lo: self.value_of(lo)?,
                        hi: self.value_of(hi)?,
                    },
                )
            }
            Predicate::Cmp { path, op, value } => {
                let (set, rel) = split_set(path)?;
                let f = cmp_filter(rel, *op, self.value_of(value)?)?;
                (set, f)
            }
        };
        Ok((path, filter))
    }

    /// Convert a predicate over a bare column name (the `where` clause of
    /// a `retrieve … from sys.<table>`) into a [`Filter`].
    fn sys_filter_of(&self, pred: &Predicate) -> Result<Filter, LangError> {
        let col = |path: &[String]| {
            if path.len() == 1 {
                Ok(path[0].clone())
            } else {
                Err(LangError::Exec(format!(
                    "sys predicates filter one bare column, found {:?}",
                    path.join(".")
                )))
            }
        };
        match pred {
            Predicate::Between { path, lo, hi } => Ok(Filter::Range {
                path: col(path)?,
                lo: self.value_of(lo)?,
                hi: self.value_of(hi)?,
            }),
            Predicate::Cmp { path, op, value } => {
                cmp_filter(col(path)?, *op, self.value_of(value)?)
            }
        }
    }

    /// Build the [`ReadQuery`] for a `retrieve` statement, returning the
    /// column headers alongside. Shared by `retrieve` and `explain`.
    fn build_read_query(
        &self,
        projections: &[Vec<String>],
        predicate: &Option<Predicate>,
    ) -> Result<(Vec<String>, ReadQuery), LangError> {
        // The first projection names the set; the loop checks them all.
        let set = projections[0].first().map_or("", String::as_str);
        let mut q = ReadQuery::on(set);
        q.projections.reserve_exact(projections.len());
        for p in projections {
            let (s, rel) = split_set(p)?;
            if s != set {
                return Err(LangError::Exec(format!(
                    "all projections must start from the same set ({set} vs {s})"
                )));
            }
            q.projections.push(rel);
        }
        if let Some(pred) = predicate {
            let (pset, filter) = self.filter_of(pred)?;
            if pset != set {
                return Err(LangError::Exec(format!(
                    "predicate set {pset} differs from projection set {set}"
                )));
            }
            q = q.filter(filter);
        }
        let columns = projections.iter().map(|p| p.join(".")).collect();
        Ok((columns, q))
    }

    /// Build the [`UpdateQuery`] for a `replace` statement. Shared by
    /// `replace` and `explain`.
    fn build_update_query(
        &self,
        assignments: &[(Vec<String>, Expr)],
        predicate: &Option<Predicate>,
    ) -> Result<UpdateQuery, LangError> {
        let (set, first_field) = {
            let (s, rel) = split_set(&assignments[0].0)?;
            if rel.contains('.') {
                return Err(LangError::Exec(
                    "replace assigns base fields only (Set.field = value)".into(),
                ));
            }
            (s, rel)
        };
        let mut q = UpdateQuery::on(set)
            .assign(first_field, Assign::Set(self.value_of(&assignments[0].1)?));
        for (path, e) in &assignments[1..] {
            let (s, rel) = split_set(path)?;
            if s != set {
                return Err(LangError::Exec(
                    "all assignments must target the same set".into(),
                ));
            }
            q = q.assign(rel, Assign::Set(self.value_of(e)?));
        }
        if let Some(pred) = predicate {
            let (pset, filter) = self.filter_of(pred)?;
            if pset != set {
                return Err(LangError::Exec(format!(
                    "predicate set {pset} differs from assignment set {set}"
                )));
            }
            q = q.filter(filter);
        }
        Ok(q)
    }

    /// Execute one parsed statement.
    pub fn execute_stmt(&mut self, stmt: &Stmt) -> Result<Output, LangError> {
        let out = self.execute_stmt_inner(stmt)?;
        // Track whether the open transaction has written: once it has,
        // `abort` is no longer legal (there is no undo log).
        if matches!(
            stmt,
            Stmt::Insert { .. }
                | Stmt::Replace { .. }
                | Stmt::Delete { .. }
                | Stmt::Sync
                | Stmt::DefineType { .. }
                | Stmt::CreateSet { .. }
                | Stmt::Replicate { .. }
                | Stmt::DropReplicate { .. }
                | Stmt::BuildIndex { .. }
        ) {
            if let Some((_, wrote)) = &mut self.txn {
                *wrote = true;
            }
        }
        Ok(out)
    }

    fn execute_stmt_inner(&mut self, stmt: &Stmt) -> Result<Output, LangError> {
        match stmt {
            Stmt::Begin => {
                if let Some((id, _)) = self.txn {
                    return Err(LangError::Exec(format!(
                        "transaction {id} is already open (no nesting)"
                    )));
                }
                let id = self.db.txn().begin();
                self.txn = Some((id, false));
                Ok(Output::Text(format!("begin transaction {id}")))
            }
            Stmt::Commit => {
                let Some((id, _)) = self.txn.take() else {
                    return Err(LangError::Exec("no open transaction to commit".into()));
                };
                self.db.txn().commit(id);
                Ok(Output::Text(format!("commit transaction {id}")))
            }
            Stmt::Abort => {
                let Some((id, wrote)) = self.txn else {
                    return Err(LangError::Exec("no open transaction to abort".into()));
                };
                if wrote {
                    return Err(LangError::Exec(format!(
                        "transaction {id} has already applied writes and cannot abort \
                         (no undo log); commit instead"
                    )));
                }
                self.txn = None;
                self.db.txn().abort(id);
                Ok(Output::Text(format!("abort transaction {id}")))
            }
            Stmt::DefineType { name, fields } => {
                let fields: Vec<(String, FieldType)> = fields
                    .iter()
                    .map(|f| match f {
                        FieldDecl::Int(n) => (n.clone(), FieldType::Int),
                        FieldDecl::Float(n) => (n.clone(), FieldType::Float),
                        FieldDecl::Str(n) => (n.clone(), FieldType::Str),
                        FieldDecl::Ref(n, t) => (n.clone(), FieldType::Ref(t.clone())),
                        FieldDecl::Pad(n, sz) => (n.clone(), FieldType::Pad(*sz)),
                    })
                    .collect();
                self.db.define_type(TypeDef::new(name.clone(), fields))?;
                Ok(Output::None)
            }
            Stmt::CreateSet { name, type_name } => {
                self.db.create_set(name, type_name)?;
                Ok(Output::None)
            }
            Stmt::Replicate {
                path,
                separate,
                deferred,
                collapsed,
            } => {
                let strategy = if *separate {
                    Strategy::Separate
                } else {
                    Strategy::InPlace
                };
                let propagation = if *deferred {
                    Propagation::Deferred
                } else {
                    Propagation::Eager
                };
                if *collapsed {
                    if *separate {
                        return Err(LangError::Exec(
                            "collapsed inverted paths require the in-place strategy".into(),
                        ));
                    }
                    self.db.replicate_collapsed(&path.join("."), propagation)?;
                } else {
                    self.db
                        .replicate_with(&path.join("."), strategy, propagation)?;
                }
                Ok(Output::None)
            }
            Stmt::DropReplicate { path } => {
                let dotted = path.join(".");
                let pid = self
                    .db
                    .catalog()
                    .paths()
                    .find(|p| p.expr.to_string() == dotted)
                    .map(|p| p.id)
                    .ok_or_else(|| LangError::Exec(format!("no replication path {dotted:?}")))?;
                self.db.drop_replication(pid)?;
                Ok(Output::None)
            }
            Stmt::BuildIndex { path, clustered } => {
                let kind = if *clustered {
                    IndexKind::Clustered
                } else {
                    IndexKind::Unclustered
                };
                self.db.create_index(&path.join("."), kind)?;
                Ok(Output::None)
            }
            Stmt::Insert { set, fields, bind } => {
                let set_id = self.db.catalog().set_id(set)?;
                let def = self
                    .db
                    .catalog()
                    .type_def(self.db.catalog().set(set_id).elem_type)
                    .clone();
                let mut values = Vec::with_capacity(def.fields.len());
                for fd in &def.fields {
                    let provided = fields.iter().find(|(n, _)| *n == fd.name);
                    let v = match provided {
                        Some((_, e)) => self.value_of(e)?,
                        None => match &fd.ftype {
                            FieldType::Int => Value::Int(0),
                            FieldType::Float => Value::Float(0.0),
                            FieldType::Str => Value::Str(String::new()),
                            FieldType::Ref(_) => Value::Ref(Oid::NULL),
                            FieldType::Pad(_) => Value::Unit,
                        },
                    };
                    values.push(v);
                }
                // Reject unknown field names.
                for (n, _) in fields {
                    if def.field_index(n).is_none() {
                        return Err(LangError::Exec(format!(
                            "type {} has no field {n:?}",
                            def.name
                        )));
                    }
                }
                let oid = self.db.insert(set, values)?;
                if let Some(b) = bind {
                    self.vars.insert(b.clone(), oid);
                }
                Ok(Output::Inserted(oid))
            }
            Stmt::Retrieve {
                projections,
                predicate,
            } => {
                let (columns, q) = self.build_read_query(projections, predicate)?;
                let res = q.run(&mut self.db)?;
                if slowlog_armed() {
                    self.db.observe_statement(
                        &stmt_text(stmt),
                        &res.plan.to_string(),
                        &res.profile,
                        res.rows.len() as u64,
                    );
                }
                Ok(Output::Rows {
                    columns,
                    rows: res.rows,
                })
            }
            Stmt::RetrieveSys {
                table,
                columns,
                predicate,
            } => {
                let mut q =
                    fieldrep_query::SysQuery::on(table.clone()).project(columns.iter().cloned());
                if let Some(pred) = predicate {
                    q = q.filter(self.sys_filter_of(pred)?);
                }
                let res = q.run(&mut self.db)?;
                if slowlog_armed() {
                    self.db.observe_statement(
                        &stmt_text(stmt),
                        &q.plan()?.render(),
                        &res.profile,
                        res.rows.len() as u64,
                    );
                }
                Ok(Output::Rows {
                    columns: res.columns,
                    rows: res.rows,
                })
            }
            Stmt::Replace {
                assignments,
                predicate,
            } => {
                let q = self.build_update_query(assignments, predicate)?;
                let res = q.run(&mut self.db)?;
                if slowlog_armed() {
                    self.db.observe_statement(
                        &stmt_text(stmt),
                        &res.plan.to_string(),
                        &res.profile,
                        res.updated as u64,
                    );
                }
                Ok(Output::Updated(res.updated))
            }
            Stmt::SetSlowlog { wall_ms, io_pages } => {
                if wall_ms.is_none() && io_pages.is_none() {
                    self.db.set_slowlog_off();
                    Ok(Output::Text("slow-query log: off".into()))
                } else {
                    self.db.set_slowlog_thresholds(*wall_ms, *io_pages);
                    let mut arms = Vec::new();
                    if let Some(ms) = wall_ms {
                        arms.push(format!("wall >= {ms} ms"));
                    }
                    if let Some(p) = io_pages {
                        arms.push(format!("io >= {p} pages"));
                    }
                    Ok(Output::Text(format!(
                        "slow-query log: {}",
                        arms.join(" or ")
                    )))
                }
            }
            Stmt::Explain { analyze, stmt } => {
                if let Stmt::RetrieveSys {
                    table,
                    columns,
                    predicate,
                } = &**stmt
                {
                    let mut q = fieldrep_query::SysQuery::on(table.clone())
                        .project(columns.iter().cloned());
                    if let Some(pred) = predicate {
                        q = q.filter(self.sys_filter_of(pred)?);
                    }
                    let text = if *analyze {
                        q.explain_analyze_text(&mut self.db)?.0
                    } else {
                        q.explain_text()?
                    };
                    return Ok(Output::Text(text.trim_end().to_string()));
                }
                let report = match &**stmt {
                    Stmt::Retrieve {
                        projections,
                        predicate,
                    } => {
                        let (_, q) = self.build_read_query(projections, predicate)?;
                        if *analyze {
                            let (e, res) = fieldrep_query::explain_analyze_read(&mut self.db, &q)?;
                            if let Some(f) = res.output_file {
                                self.db.sm().drop_file(f).ok();
                            }
                            e
                        } else {
                            fieldrep_query::explain_read(&mut self.db, &q)?
                        }
                    }
                    Stmt::Replace {
                        assignments,
                        predicate,
                    } => {
                        let q = self.build_update_query(assignments, predicate)?;
                        if *analyze {
                            let (e, _) = fieldrep_query::explain_analyze_update(&mut self.db, &q)?;
                            e
                        } else {
                            fieldrep_query::explain_update(&mut self.db, &q)?
                        }
                    }
                    other => {
                        return Err(LangError::Exec(format!(
                            "explain supports retrieve and replace only, got {other:?}"
                        )))
                    }
                };
                Ok(Output::Text(
                    fieldrep_query::render(&report).trim_end().to_string(),
                ))
            }
            Stmt::Delete { set, predicate } => {
                let mut q = DeleteQuery::on(set.clone());
                if let Some(pred) = predicate {
                    let (pset, filter) = self.filter_of(pred)?;
                    if pset != *set {
                        return Err(LangError::Exec(format!(
                            "predicate set {pset} differs from target set {set}"
                        )));
                    }
                    q = q.filter(filter);
                }
                Ok(Output::Deleted(q.run(&self.db)?))
            }
            Stmt::Advise { path, p_update } => {
                let dotted = path.join(".");
                let (stats, rec) = self.db.advise_path(
                    &dotted,
                    fieldrep_costmodel::IndexSetting::Unclustered,
                    0.001,
                    0.001,
                    *p_update,
                )?;
                Ok(Output::Text(format!(
                    "{dotted}: |R| = {}, referenced terminals = {}, f = {:.1}, \
                     r = {:.0}B, s = {:.0}B, k = {:.0}B\n\
                     at P_update = {p_update}: use {:?} (saves {:.1}% vs no replication)",
                    stats.source_count,
                    stats.terminal_count,
                    stats.sharing,
                    stats.source_bytes,
                    stats.terminal_bytes,
                    stats.replicated_bytes,
                    rec.strategy,
                    rec.saving_pct,
                )))
            }
            Stmt::Sync => Ok(Output::Synced(self.db.sync_all_pending()?)),
            Stmt::Show { what } => self.show(what),
            Stmt::ShowStats { path } => self.show_stats(path.as_deref()),
        }
    }

    fn show_stats(&mut self, path: Option<&[String]>) -> Result<Output, LangError> {
        use std::fmt::Write;
        let filter = path.map(|p| p.join("."));
        let mut out = String::new();
        let _ = writeln!(out, "observed workload (per replication path):");
        let _ = writeln!(
            out,
            "  {:<28} {:>7} {:>8} {:>7} {:>7} {:>9} {:>9}",
            "path", "reads", "updates", "P_up", "fanout", "r_pages", "u_pages"
        );
        let mut shown = 0usize;
        for (expr, w) in self.db.workload().all() {
            if filter.as_deref().is_some_and(|f| f != expr) {
                continue;
            }
            shown += 1;
            let _ = writeln!(
                out,
                "  {:<28} {:>7} {:>8} {:>7.3} {:>7.1} {:>9.1} {:>9.1}",
                expr,
                w.reads,
                w.updates,
                w.p_up(),
                w.fanout_ewma,
                w.read_pages_ewma,
                w.update_pages_ewma
            );
        }
        if shown == 0 {
            if let Some(f) = &filter {
                return Err(LangError::Exec(format!(
                    "no observed statistics for path {f:?}"
                )));
            }
            let _ = writeln!(out, "  (none recorded yet)");
        }
        Ok(Output::Text(out.trim_end().to_string()))
    }

    fn show(&mut self, what: &str) -> Result<Output, LangError> {
        use std::fmt::Write;
        let mut out = String::new();
        match what {
            "catalog" => {
                writeln!(out, "sets:").unwrap();
                for s in self.db.catalog().sets() {
                    let ty = self.db.catalog().type_def(s.elem_type).name.clone();
                    writeln!(out, "  {}: {{own ref {}}}", s.name, ty).unwrap();
                }
                writeln!(out, "replication paths:").unwrap();
                let lines: Vec<String> = self
                    .db
                    .catalog()
                    .paths()
                    .map(|p| {
                        let seq: Vec<String> = p.links.iter().map(|l| l.0.to_string()).collect();
                        format!(
                            "  replicate {:<28} {:?}/{:?}  link sequence = ({})",
                            p.expr.to_string(),
                            p.strategy,
                            p.propagation,
                            seq.join(",")
                        )
                    })
                    .collect();
                for l in lines {
                    writeln!(out, "{l}").unwrap();
                }
                writeln!(out, "indexes:").unwrap();
                let idx: Vec<String> = self
                    .db
                    .catalog()
                    .sets()
                    .iter()
                    .flat_map(|s| {
                        self.db
                            .catalog()
                            .indexes_on(s.id)
                            .map(|i| format!("  {:?} on {} ({:?})", i.kind, s.name, i.target))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                for l in idx {
                    writeln!(out, "{l}").unwrap();
                }
            }
            "pending" => {
                let lines: Vec<String> = self
                    .db
                    .catalog()
                    .paths()
                    .map(|p| (p.id, p.expr.to_string()))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|(id, expr)| format!("  {expr}: {} pending", self.db.pending_count(id)))
                    .collect();
                writeln!(out, "deferred propagation queues:").unwrap();
                for l in lines {
                    writeln!(out, "{l}").unwrap();
                }
            }
            "io" => {
                writeln!(out, "{}", self.db.io_profile()).unwrap();
            }
            "slowlog" => {
                let (wall, pages) = fieldrep_obs::slowlog::thresholds();
                let arm = |v: Option<u64>, unit: &str| {
                    v.map_or("off".to_string(), |n| format!(">= {n} {unit}"))
                };
                writeln!(
                    out,
                    "slow-query log: wall {} | io {} | recorded {}",
                    arm(wall, "ms"),
                    arm(pages, "pages"),
                    fieldrep_obs::slowlog::recorded_total()
                )
                .unwrap();
                for line in fieldrep_obs::slowlog::dump_jsonl() {
                    writeln!(out, "{line}").unwrap();
                }
            }
            other => {
                return Err(LangError::Exec(format!(
                    "unknown `show` target {other:?} (catalog | pending | io | stats | slowlog)"
                )))
            }
        }
        Ok(Output::Text(out.trim_end().to_string()))
    }
}

/// Whether the process-wide slow-query log has any trigger armed. The
/// interpreter probes this before rendering statement/plan text, so the
/// disabled path costs two relaxed atomic loads per statement.
fn slowlog_armed() -> bool {
    fieldrep_obs::slowlog::thresholds() != (None, None)
}

fn expr_text(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => v.to_string(),
        Expr::Str(s) => format!("{s:?}"),
        Expr::Null => "null".into(),
        Expr::Var(v) => format!("${v}"),
    }
}

fn pred_text(p: &Predicate) -> String {
    match p {
        Predicate::Cmp { path, op, value } => {
            let sym = match op {
                CmpOp::Eq => "=",
                CmpOp::Lt => "<",
                CmpOp::Gt => ">",
                CmpOp::Le => "<=",
                CmpOp::Ge => ">=",
            };
            format!(" where {} {} {}", path.join("."), sym, expr_text(value))
        }
        Predicate::Between { path, lo, hi } => format!(
            " where {} between {} and {}",
            path.join("."),
            expr_text(lo),
            expr_text(hi)
        ),
    }
}

/// Canonical statement text for the slow-query log: the parsed statement
/// re-rendered (whitespace-normalised but otherwise faithful). Only the
/// observed statement kinds get a full rendering.
fn stmt_text(stmt: &Stmt) -> String {
    let where_of = |p: &Option<Predicate>| p.as_ref().map(pred_text).unwrap_or_default();
    match stmt {
        Stmt::Retrieve {
            projections,
            predicate,
        } => format!(
            "retrieve ({}){}",
            projections
                .iter()
                .map(|p| p.join("."))
                .collect::<Vec<_>>()
                .join(", "),
            where_of(predicate)
        ),
        Stmt::RetrieveSys {
            table,
            columns,
            predicate,
        } => format!(
            "retrieve ({}) from {}{}",
            if columns.is_empty() {
                "all".to_string()
            } else {
                columns.join(", ")
            },
            table,
            where_of(predicate)
        ),
        Stmt::Replace {
            assignments,
            predicate,
        } => format!(
            "replace ({}){}",
            assignments
                .iter()
                .map(|(p, e)| format!("{} = {}", p.join("."), expr_text(e)))
                .collect::<Vec<_>>()
                .join(", "),
            where_of(predicate)
        ),
        other => format!("{other:?}"),
    }
}

/// Map `path OP value` onto the inclusive [`Filter`] forms the query
/// layer understands (equality, or an open-ended integer range).
fn cmp_filter(rel: String, op: CmpOp, v: Value) -> Result<Filter, LangError> {
    let f = match (op, &v) {
        (CmpOp::Eq, _) => Filter::Eq {
            path: rel,
            value: v,
        },
        (CmpOp::Gt, Value::Int(x)) => Filter::Range {
            path: rel,
            lo: Value::Int(x + 1),
            hi: Value::Int(i64::MAX),
        },
        (CmpOp::Ge, Value::Int(x)) => Filter::Range {
            path: rel,
            lo: Value::Int(*x),
            hi: Value::Int(i64::MAX),
        },
        (CmpOp::Lt, Value::Int(x)) => Filter::Range {
            path: rel,
            lo: Value::Int(i64::MIN),
            hi: Value::Int(x - 1),
        },
        (CmpOp::Le, Value::Int(x)) => Filter::Range {
            path: rel,
            lo: Value::Int(i64::MIN),
            hi: Value::Int(*x),
        },
        (op, v) => {
            return Err(LangError::Exec(format!(
                "operator {op:?} is only supported on integer fields (got {v})"
            )))
        }
    };
    Ok(f)
}

/// Split `[set, rest…]` into `(set, "rest.joined")`.
fn split_set(path: &[String]) -> Result<(&str, String), LangError> {
    if path.len() < 2 {
        return Err(LangError::Exec(format!(
            "path {:?} must be set-qualified (Set.field…)",
            path.join(".")
        )));
    }
    Ok((&path[0], path[1..].join(".")))
}
