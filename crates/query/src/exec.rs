//! Query execution.
//!
//! Functional joins are performed the way the paper's cost model assumes
//! (§6.2): all target OIDs of a join step are collected, de-duplicated and
//! sorted into physical order, and each needed page is then fetched once.
//! With a cold buffer pool this makes measured page I/O directly
//! comparable to the analytical `C_read` / `C_update`.
//!
//! A full scan lists the set's OIDs with one page request per page
//! (`Database::file_oids`). A filter on it is planned once and evaluated
//! as one batched projection of its path over the listed OIDs, so a
//! filter through a reference joins once for the whole set, not once per
//! object.
//!
//! A read allocates for the rows it returns, not for the plumbing that
//! finds them: one `Vec` per row, one allocation per returned string, one
//! handle vector per page chunk, and a bounded constant per statement
//! (the plan, the sorted OID list of each batched step, the start list of
//! each join). Every value is decoded from the pinned page straight into
//! its row's column, and a replicated value list yields only the
//! positions projected ([`Value::list_item`]).
//! `crates/lang/tests/read_allocs.rs` pins the rule on the §6 read for all
//! three strategies.

use crate::error::{QueryError, Result};
use crate::plan::{plan_access, plan_projection, AccessPlan, Plan, ProjPlan};
use crate::{Assign, DeleteQuery, Filter, ReadQuery, UpdateQuery};
use fieldrep_btree::BTreeIndex;
use fieldrep_core::{value_key, Database};
use fieldrep_model::{Object, ObjectView, TypeId, Value};
use fieldrep_obs::{io as obs_io, names as obs_names, Profile, Span};
use fieldrep_storage::{HeapFile, Oid, PagePins};

/// One result row: one entry per projected column (`None` when a path was
/// broken by a NULL reference).
pub type Row = Vec<Option<Value>>;

/// The outcome of a read query.
#[derive(Debug)]
pub struct QueryResult {
    /// Result rows, in access-path order.
    pub rows: Vec<Row>,
    /// The plan that produced them.
    pub plan: Plan,
    /// The output file T, if the query was run with spooling; the caller
    /// drops it when done.
    pub output_file: Option<fieldrep_storage::FileId>,
    /// `EXPLAIN ANALYZE`-style per-operator breakdown: every plan
    /// operator's page-I/O delta and wall time. The per-operator deltas
    /// sum exactly to `profile.total_io` (telescoping segments).
    pub profile: Profile,
}

/// The outcome of an update query.
#[derive(Debug)]
pub struct UpdateResult {
    /// Number of objects updated.
    pub updated: usize,
    /// The plan used to locate them.
    pub plan: Plan,
    /// Per-operator breakdown; replica-propagation I/O done inside the
    /// apply loop is carved out as its own `core.propagate` operator.
    pub profile: Profile,
}

/// A borrowed reader over the stored bytes of an object with type tag `tag`.
fn object_view<'a>(db: &'a Database, tag: u16, payload: &'a [u8]) -> ObjectView<'a> {
    ObjectView::new(db.catalog().type_def(TypeId(tag)), payload)
}

/// The object a stored reference points at (`None` for NULL).
fn ref_target(v: &Value) -> Option<Oid> {
    match v {
        Value::Ref(o) if !o.is_null() => Some(*o),
        _ => None,
    }
}

/// Evaluate the access path: the OIDs (in retrieval order) of the
/// qualifying set members.
fn run_access(db: &Database, plan: &Plan, filter: Option<&Filter>) -> Result<Vec<Oid>> {
    match &plan.access {
        AccessPlan::IndexRange { index, .. } | AccessPlan::PathIndexRange { index, .. } => {
            let f = filter.ok_or_else(|| {
                QueryError::BadQuery("index access plan requires a filter".into())
            })?;
            let (lo, hi) = f.bounds();
            let mut oids = Vec::new();
            BTreeIndex::open(*index).for_each_in_range(
                db.sm(),
                &value_key(lo),
                &value_key(hi),
                |_, oid| oids.push(oid),
            )?;
            Ok(oids)
        }
        AccessPlan::FullScan => {
            let oids = db.file_oids(db.catalog().set(plan.set).file)?;
            let Some(f) = filter else { return Ok(oids) };
            // The no-index fallback: the filter's path is one batched
            // projection over every listed object.
            let proj = plan_projection(db.catalog(), plan.set, f.path())?;
            let rows = project(db, &oids, std::slice::from_ref(&proj), None)?;
            let hit = |(oid, row): (Oid, Row)| {
                matches!(row.last(), Some(Some(v)) if f.matches(v)).then_some(oid)
            };
            Ok(oids.into_iter().zip(rows).filter_map(hit).collect())
        }
    }
}

/// Take what `projections` need from one source record's bytes into a new
/// row of `width` columns: only the fields the plan names are decoded (a
/// base field by index, the projected positions of one path's hidden
/// replica values, the replica ref of one group, a first hop). The
/// columns a join fills in later stay `None`; where each projection's
/// join starts goes to its entry of `starts` (left `None` for NULL and
/// for projections that do not join). With `obj`, the whole object is
/// decoded into it, for a collapse projection's `read_path_values`.
fn read_source(
    db: &Database,
    projections: &[ProjPlan],
    width: usize,
    tag: u16,
    payload: &[u8],
    starts: &mut [Option<Oid>],
    obj: Option<&mut Option<Object>>,
) -> Result<Row> {
    let view = object_view(db, tag, payload);
    let mut row = Row::with_capacity(width);
    for (proj, start) in projections.iter().zip(starts) {
        let end = row.len() + proj.width();
        match proj {
            ProjPlan::BaseField { field } => row.push(Some(view.field(*field)?)),
            ProjPlan::InPlaceReplica { path, positions } => {
                if let Some(list) = view.replica_list(path.0)? {
                    for &pos in positions {
                        row.push(Some(Value::list_item(list, pos)?));
                    }
                }
            }
            ProjPlan::SeparateReplica { group, .. } => *start = view.replica_ref(group.0)?,
            ProjPlan::FunctionalJoin { hops, .. } => *start = ref_target(&view.field(hops[0])?),
            ProjPlan::CollapseThenJoin { .. } => {}
        }
        row.resize(end, None);
    }
    if let Some(obj) = obj {
        let def = db.catalog().type_def(TypeId(tag));
        *obj = Some(Object::decode(TypeId(tag), def, payload)?);
    }
    Ok(row)
}

/// Compute the projected columns for `oids`, one row per OID.
///
/// With `prof`, the sync/fetch phases and every projection operator close
/// their own profile segment (`None` when called for a full scan's
/// filter, whose I/O belongs to the enclosing access segment).
fn project(
    db: &Database,
    oids: &[Oid],
    projections: &[ProjPlan],
    mut prof: Option<&mut Profile>,
) -> Result<Vec<Row>> {
    let _span = Span::enter(obs_names::QUERY_PROJECT);
    // Deferred-propagation paths must be synced before their replicated
    // values are read (§8 / `Propagation::Deferred`).
    for proj in projections {
        match proj {
            ProjPlan::InPlaceReplica { path, .. } | ProjPlan::CollapseThenJoin { path, .. } => {
                db.sync_path(*path)?;
            }
            ProjPlan::SeparateReplica { group, .. } => {
                for &p in &db.catalog().group(*group).paths {
                    db.sync_path(p)?;
                }
            }
            _ => {}
        }
    }
    if let Some(p) = prof.as_deref_mut() {
        p.mark(obs_names::OP_SYNC);
    }
    // Read the source objects once (optimally), building each row while
    // its object's page is pinned. `starts` holds, row after row, where
    // each projection's join starts; `objs` the decoded objects a
    // collapse projection reads its replicated reference from.
    let (n, nproj) = (oids.len(), projections.len());
    let width = projections.iter().map(ProjPlan::width).sum();
    let mut rows: Vec<Row> = vec![Row::new(); n];
    let mut starts: Vec<Option<Oid>> = vec![None; n * nproj];
    let collapses = projections
        .iter()
        .any(|p| matches!(p, ProjPlan::CollapseThenJoin { .. }));
    let mut objs: Vec<Option<Object>> = vec![None; if collapses { n } else { 0 }];
    db.sm()
        .read_batch::<QueryError>(oids.iter().map(|&oid| Some(oid)), |i, tag, payload| {
            let starts = &mut starts[i * nproj..(i + 1) * nproj];
            rows[i] = read_source(
                db,
                projections,
                width,
                tag,
                payload,
                starts,
                objs.get_mut(i),
            )?;
            Ok(())
        })?;
    if let Some(p) = prof.as_deref_mut() {
        p.mark(obs_names::OP_FETCH);
    }

    // What is left are the joins: each fills the columns its projection
    // left open.
    let mut col = 0;
    for (proj_idx, proj) in projections.iter().enumerate() {
        let io_before = obs_io::snapshot();
        let starts = starts.iter().skip(proj_idx).step_by(nproj).copied();
        match proj {
            ProjPlan::BaseField { .. } | ProjPlan::InPlaceReplica { .. } => {}
            ProjPlan::SeparateReplica { positions, .. } => {
                // S'-scan: batched over the sorted replica OIDs, one
                // grouped read per adjacent page run.
                db.sm().read_batch::<QueryError>(starts, |i, _, payload| {
                    for (slot, &pos) in rows[i][col..].iter_mut().zip(positions) {
                        let v = Value::list_item(payload, pos).map_err(|e| {
                            QueryError::BadQuery(format!("bad replica object: {e}"))
                        })?;
                        *slot = Some(v);
                    }
                    Ok(())
                })?;
            }
            ProjPlan::CollapseThenJoin {
                path,
                remaining_hops,
                terminal_fields,
            } => {
                // Jump through the replicated reference…
                let pdef = db.catalog().path(*path);
                let mut current = Vec::with_capacity(n);
                for obj in objs.iter().flatten() {
                    let vals = fieldrep_core::attach::read_path_values(&mut db.ctx(), pdef, obj)
                        .map_err(QueryError::from)?;
                    current.push(vals.and_then(|v| v.first().and_then(ref_target)));
                }
                join_chain(db, current, remaining_hops, terminal_fields, &mut rows, col)?;
            }
            ProjPlan::FunctionalJoin {
                hops,
                terminal_fields,
            } => join_chain(
                db,
                starts.collect(),
                &hops[1..],
                terminal_fields,
                &mut rows,
                col,
            )?,
        }
        col += proj.width();
        record_replica_reads(db, proj, oids, io_before);
        if let Some(p) = prof.as_deref_mut() {
            p.mark(proj.label(proj_idx));
        }
    }
    Ok(rows)
}

/// Feed one projection's replicated reads into the database's observed
/// workload registry: `oids.len()` reads against the replication path(s)
/// the projection was answered by, with the projection's page-I/O delta
/// spread over them. Base fields and plain functional joins record
/// nothing — they do not touch replicated state.
fn record_replica_reads(db: &Database, proj: &ProjPlan, oids: &[Oid], io_before: obs_io::IoCounts) {
    if oids.is_empty() {
        return;
    }
    let pages = (obs_io::snapshot() - io_before).page_touches();
    let n = oids.len() as u64;
    match proj {
        ProjPlan::InPlaceReplica { path, .. } | ProjPlan::CollapseThenJoin { path, .. } => {
            db.workload()
                .record_read(&db.catalog().path(*path).expr_text, n, pages);
        }
        ProjPlan::SeparateReplica { group, .. } => {
            // Attribute to the group's paths rooted at the queried set
            // (the ones this projection could have been planned from).
            let set = oids.first().and_then(|&o| db.set_of(o).ok());
            for p in &db.catalog().group(*group).paths {
                let p = db.catalog().path(*p);
                if set.is_none_or(|s| p.set == s) {
                    db.workload().record_read(&p.expr_text, n, pages);
                }
            }
        }
        _ => {}
    }
}

/// Perform the remaining functional joins: `current` holds, per row, the
/// OID reached so far; `hops` are the ref fields still to follow; the
/// terminal fields of the final objects go to `rows` from column `col` on
/// (left `None` for a row whose chain broke on a NULL reference). Each
/// join level is batched (page-optimal) and decodes only the field it
/// follows.
fn join_chain(
    db: &Database,
    mut current: Vec<Option<Oid>>,
    hops: &[usize],
    terminal_fields: &[usize],
    rows: &mut [Row],
    col: usize,
) -> Result<()> {
    for &hop in hops {
        let mut next = vec![None; current.len()];
        db.sm()
            .read_batch::<QueryError>(current.iter().copied(), |i, tag, payload| {
                next[i] = ref_target(&object_view(db, tag, payload).field(hop)?);
                Ok(())
            })?;
        current = next;
    }
    db.sm()
        .read_batch::<QueryError>(current.iter().copied(), |i, tag, payload| {
            let obj = object_view(db, tag, payload);
            for (slot, &f) in rows[i][col..].iter_mut().zip(terminal_fields) {
                *slot = Some(obj.field(f)?);
            }
            Ok(())
        })
}

/// Compute the concrete `(field, new value)` changes of `assignments`
/// against the current state `obj`.
fn eval_assignments<'a>(
    def: &fieldrep_model::TypeDef,
    obj: &Object,
    assignments: &'a [(String, Assign)],
) -> Result<Vec<(&'a str, Value)>> {
    let mut changes: Vec<(&str, Value)> = Vec::new();
    for (field, assign) in assignments {
        let idx = def
            .field_index(field)
            .ok_or_else(|| QueryError::BadQuery(format!("no field {field}")))?;
        let new = match assign {
            Assign::Set(v) => v.clone(),
            Assign::Increment(d) => match &obj.values[idx] {
                Value::Int(x) => Value::Int(x + d),
                other => {
                    return Err(QueryError::BadQuery(format!(
                        "Increment on non-int field {field} ({other:?})"
                    )))
                }
            },
            Assign::CycleStr(suffixes) => match &obj.values[idx] {
                Value::Str(s) => {
                    let base = s.split('#').next().unwrap_or("").to_string();
                    let n: usize = s
                        .split('#')
                        .nth(1)
                        .and_then(|x| x.parse().ok())
                        .unwrap_or(0);
                    let next = (n + 1) % (*suffixes).max(1);
                    Value::Str(format!("{base}#{next}"))
                }
                other => {
                    return Err(QueryError::BadQuery(format!(
                        "CycleStr on non-string field {field} ({other:?})"
                    )))
                }
            },
        };
        changes.push((field.as_str(), new));
    }
    Ok(changes)
}

impl ReadQuery {
    /// Plan this query against the catalog without running it.
    pub fn plan(&self, db: &Database) -> Result<Plan> {
        let set = db.catalog().set_id(&self.set)?;
        let access = plan_access(db.catalog(), set, self.filter.as_ref())?;
        let projections = self
            .projections
            .iter()
            .map(|p| plan_projection(db.catalog(), set, p))
            .collect::<Result<Vec<_>>>()?;
        Ok(Plan {
            set,
            access,
            projections,
        })
    }

    /// Execute the query.
    pub fn run(&self, db: &mut Database) -> Result<QueryResult> {
        let span = Span::enter(obs_names::QUERY_READ);
        let mut prof = Profile::start();
        let plan = self.plan(db)?;
        prof.mark(obs_names::OP_PLAN);
        let access_label = plan.access.label();
        let access_span = span.child(&access_label);
        let oids = run_access(db, &plan, self.filter.as_ref())?;
        access_span.note("oids", oids.len());
        drop(access_span);
        prof.mark(access_label);
        let rows = project(db, &oids, &plan.projections, Some(&mut prof))?;
        span.note("rows", rows.len());

        // Generate the output file T if requested (§6.5.1 charges P_t for
        // it). Rows are padded to `output_row_bytes` to model `t`. The
        // spool commits as it goes, each time a row starts a page: under
        // a WAL a page no commit has logged cannot be evicted, so a spool
        // larger than the pool must not be one commit.
        let output_file = if self.spool_output {
            let hf = HeapFile::create(db.sm())?;
            let mut rest = rows.iter().peekable();
            while rest.peek().is_some() {
                db.apply_and_commit(|_, w| {
                    let mut page = None;
                    for row in rest.by_ref() {
                        let oid =
                            hf.rec_insert(w, &PagePins::none(), 0xFFFD, &self.spool_payload(row))?;
                        if *page.get_or_insert(oid.page) != oid.page {
                            break;
                        }
                    }
                    Ok(())
                })?;
            }
            Some(hf.file)
        } else {
            None
        };
        prof.mark(obs_names::OP_SPOOL);

        Ok(QueryResult {
            rows,
            plan,
            output_file,
            profile: prof.finish(),
        })
    }

    /// The record of `row` in the output file T.
    fn spool_payload(&self, row: &Row) -> Vec<u8> {
        let vals: Vec<Value> = row
            .iter()
            .map(|v| v.clone().unwrap_or(Value::Unit))
            .collect();
        let mut payload = Value::encode_list(&vals);
        if let Some(target) = self.output_row_bytes {
            if payload.len() < target {
                payload.resize(target, 0);
            }
        }
        payload
    }
}

/// The plan of a write query: the access path to `set`'s members that
/// `filter` selects, with nothing projected.
fn plan_write(db: &Database, set: &str, filter: Option<&Filter>) -> Result<Plan> {
    let set = db.catalog().set_id(set)?;
    Ok(Plan {
        set,
        access: plan_access(db.catalog(), set, filter)?,
        projections: Vec::new(),
    })
}

impl UpdateQuery {
    /// Plan this query.
    pub fn plan(&self, db: &Database) -> Result<Plan> {
        plan_write(db, &self.set, self.filter.as_ref())
    }

    /// Execute the query: locate qualifying objects and apply the
    /// assignments through the engine (which propagates to all replicas).
    pub fn run(&self, db: &mut Database) -> Result<UpdateResult> {
        let span = Span::enter(obs_names::QUERY_UPDATE);
        let mut prof = Profile::start();
        let plan = self.plan(db)?;
        prof.mark(obs_names::OP_PLAN);
        let access_label = plan.access.label();
        let access_span = span.child(&access_label);
        let mut oids = run_access(db, &plan, self.filter.as_ref())?;
        access_span.note("oids", oids.len());
        drop(access_span);
        // Visit in physical order (the paper propagates and updates in
        // clustered order).
        oids.sort_unstable();
        oids.dedup();
        prof.mark(access_label);
        span.note("updates", oids.len());
        // Drain any propagation I/O a previous (unprofiled) caller left
        // accumulated on this thread, so "apply" splits only its own.
        let _ = obs_io::component_take(obs_names::CORE_PROPAGATE);

        // The assignments are evaluated against the image the update's
        // plan decodes: the object is read once.
        let def = db.catalog().type_def(db.catalog().set(plan.set).elem_type);
        for oid in &oids {
            db.update_with(*oid, |obj| eval_assignments(def, obj, &self.assignments))?;
        }
        prof.mark(obs_names::OP_APPLY);
        prof.split_last(
            obs_names::CORE_PROPAGATE,
            obs_io::component_take(obs_names::CORE_PROPAGATE),
        );
        Ok(UpdateResult {
            updated: oids.len(),
            plan,
            profile: prof.finish(),
        })
    }
}

impl DeleteQuery {
    /// Plan this query.
    pub fn plan(&self, db: &Database) -> Result<Plan> {
        plan_write(db, &self.set, self.filter.as_ref())
    }

    /// Execute the query: locate the qualifying objects through the plan
    /// (an index serves the predicate; a full scan filters with one
    /// batched projection), then delete each through the engine, in
    /// physical order, one commit each. Returns how many were deleted.
    pub fn run(&self, db: &Database) -> Result<usize> {
        let plan = self.plan(db)?;
        let mut oids = run_access(db, &plan, self.filter.as_ref())?;
        oids.sort_unstable();
        oids.dedup();
        for oid in &oids {
            db.delete(*oid)?;
        }
        Ok(oids.len())
    }
}
