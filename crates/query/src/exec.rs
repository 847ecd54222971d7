//! Query execution.
//!
//! Functional joins are performed the way the paper's cost model assumes
//! (§6.2): all target OIDs of a join step are collected, de-duplicated and
//! sorted into physical order, and each needed page is then fetched once.
//! With a cold buffer pool this makes measured page I/O directly
//! comparable to the analytical `C_read` / `C_update`.

use crate::error::{QueryError, Result};
use crate::plan::{plan_access, plan_projection, AccessPlan, Plan, ProjPlan};
use crate::{Assign, Filter, ReadQuery, UpdateQuery};
use fieldrep_btree::BTreeIndex;
use fieldrep_core::{value_key, Database};
use fieldrep_model::{Object, ObjectView, TypeId, Value};
use fieldrep_obs::{io as obs_io, names as obs_names, Profile, Span};
use fieldrep_storage::{oid_page_chunks, HeapFile, Oid};

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

/// The page-chunk cap for batched fetches: half the pool, so decode work
/// under the pins always has free frames available.
fn max_batch_pages(db: &Database) -> usize {
    (db.sm().pool().capacity() / 2).clamp(1, 32)
}

/// Read something from each of `oids` with every page requested once: the
/// distinct OIDs are visited in physical order, each adjacent page run is
/// moved with one grouped disk read
/// ([`fieldrep_storage::StorageManager::get_pages_batch`]), and
/// `read(type_tag, payload)` takes what it needs straight from the record's
/// bytes in the pinned page. It runs under that frame's read latch, so it
/// must not touch the pool. Results come back in `oids` order, `None` for
/// `None`.
fn read_batch<T: Clone>(
    db: &Database,
    oids: &[Option<Oid>],
    mut read: impl FnMut(u16, &[u8]) -> Result<T>,
) -> Result<Vec<Option<T>>> {
    let mut order: Vec<usize> = (0..oids.len()).filter(|&i| oids[i].is_some()).collect();
    order.sort_unstable_by_key(|&i| oids[i]);
    let sorted: Vec<Oid> = order.iter().filter_map(|&i| oids[i]).collect();
    let mut out: Vec<Option<T>> = vec![None; oids.len()];
    for (range, pages) in oid_page_chunks(&sorted, max_batch_pages(db)) {
        let pinned = db.sm().get_pages_batch(&pages)?;
        let mut page = 0;
        for k in range {
            let oid = sorted[k];
            out[order[k]] = if k > 0 && sorted[k - 1] == oid {
                out[order[k - 1]].clone()
            } else {
                while pinned[page].pid != oid.page_id() {
                    page += 1;
                }
                let hf = HeapFile::open(oid.file);
                Some(hf.read_pinned(db.sm(), &pinned[page], oid, &mut read)??)
            };
        }
    }
    Ok(out)
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
fn run_access(db: &mut Database, plan: &Plan, filter: Option<&Filter>) -> Result<Vec<Oid>> {
    match &plan.access {
        AccessPlan::IndexRange { index, .. } | AccessPlan::PathIndexRange { index, .. } => {
            let f = filter.ok_or_else(|| {
                QueryError::BadQuery("index access plan requires a filter".into())
            })?;
            let (lo, hi) = f.bounds();
            let mut oids = Vec::new();
            BTreeIndex::open(*index).for_each_in_range(
                db.sm(),
                &value_key(&lo),
                &value_key(&hi),
                |_, oid| oids.push(oid),
            )?;
            Ok(oids)
        }
        AccessPlan::FullScan => {
            let oids = db.file_oids(db.catalog().set(plan.set).file)?;
            match filter {
                None => Ok(oids),
                Some(f) => {
                    // Evaluate the filter per object (base field or path
                    // dereference — the no-index fallback).
                    let mut keep = Vec::new();
                    for oid in oids {
                        let v = eval_filter_value(db, plan.set, f, oid)?;
                        if let Some(v) = v {
                            if f.matches(&v) {
                                keep.push(oid);
                            }
                        }
                    }
                    Ok(keep)
                }
            }
        }
    }
}

fn eval_filter_value(
    db: &mut Database,
    set: fieldrep_catalog::SetId,
    f: &Filter,
    oid: Oid,
) -> Result<Option<Value>> {
    // Reuse the projection machinery for a single object.
    let proj = plan_projection(db.catalog(), set, f.path())?;
    let mut rows = project(db, &[oid], std::slice::from_ref(&proj), None)?;
    Ok(rows.pop().and_then(|mut r| r.pop()).flatten())
}

/// What a read takes from one source object while its page is pinned.
#[derive(Clone)]
struct Source {
    /// The row so far: base fields and in-place replicas are finished
    /// columns, the columns a join will fill in are `None`.
    row: Row,
    /// Per projection, where its join starts (replica ref, first hop);
    /// `None` for NULL, and for projections that do not join.
    starts: Vec<Option<Oid>>,
    /// The whole object — decoded only when a collapse projection needs it
    /// for `read_path_values`.
    obj: Option<Object>,
}

/// Take what `projections` need from one source record's bytes: only the
/// fields the plan names are decoded (a base field by index, the hidden
/// replica values of one path, the replica ref of one group, a first hop).
fn read_source(
    db: &Database,
    projections: &[ProjPlan],
    width: usize,
    tag: u16,
    payload: &[u8],
) -> Result<Source> {
    let view = object_view(db, tag, payload);
    let mut src = Source {
        row: Row::with_capacity(width),
        starts: Vec::with_capacity(projections.len()),
        obj: None,
    };
    let mut end = 0;
    for proj in projections {
        let start = match proj {
            ProjPlan::BaseField { field } => {
                src.row.push(Some(view.field(*field)?));
                None
            }
            ProjPlan::InPlaceReplica { path, positions } => {
                let vals = view.replica_values(path.0)?;
                for &pos in positions {
                    src.row.push(vals.as_ref().map(|v| v[pos].clone()));
                }
                None
            }
            ProjPlan::SeparateReplica { group, .. } => view.replica_ref(group.0)?,
            ProjPlan::FunctionalJoin { hops, .. } => ref_target(&view.field(hops[0])?),
            ProjPlan::CollapseThenJoin { .. } => {
                if src.obj.is_none() {
                    let def = db.catalog().type_def(TypeId(tag));
                    src.obj = Some(Object::decode(TypeId(tag), def, payload)?);
                }
                None
            }
        };
        src.starts.push(start);
        // The columns a join fills in later stay `None` until then.
        end += proj.width();
        src.row.resize(end, None);
    }
    Ok(src)
}

/// Compute the projected columns for `oids`, one row per OID.
///
/// With `prof`, the sync/fetch phases and every projection operator close
/// their own profile segment (`None` when called for a nested filter
/// evaluation, whose I/O belongs to the enclosing access segment).
fn project(
    db: &mut Database,
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
    // its object's page is pinned.
    let width: usize = projections.iter().map(super::plan::ProjPlan::width).sum();
    let wanted: Vec<Option<Oid>> = oids.iter().copied().map(Some).collect();
    let mut srcs: Vec<Source> = read_batch(db, &wanted, |tag, payload| {
        read_source(db, projections, width, tag, payload)
    })?
    .into_iter()
    .flatten()
    .collect();
    if let Some(p) = prof.as_deref_mut() {
        p.mark(obs_names::OP_FETCH);
    }

    // What is left are the joins: each fills the columns its projection
    // left open.
    let mut col = 0;
    for (proj_idx, proj) in projections.iter().enumerate() {
        let io_before = obs_io::snapshot();
        let starts = |srcs: &[Source]| srcs.iter().map(|s| s.starts[proj_idx]).collect::<Vec<_>>();
        let joined = match proj {
            ProjPlan::BaseField { .. } | ProjPlan::InPlaceReplica { .. } => None,
            ProjPlan::SeparateReplica { positions, .. } => {
                // S'-scan: batched over the sorted replica OIDs, one
                // grouped read per adjacent page run.
                Some(read_batch(db, &starts(&srcs), |_, payload| {
                    let vals = Value::decode_list(payload)
                        .map_err(|e| QueryError::BadQuery(format!("bad replica object: {e}")))?;
                    Ok(positions.iter().map(|&pos| vals[pos].clone()).collect())
                })?)
            }
            ProjPlan::CollapseThenJoin {
                path,
                remaining_hops,
                terminal_fields,
            } => {
                // Jump through the replicated reference…
                let pdef = db.catalog().path(*path);
                let mut current = Vec::with_capacity(srcs.len());
                for obj in srcs.iter().filter_map(|s| s.obj.as_ref()) {
                    let vals = fieldrep_core::attach::read_path_values(&mut db.ctx(), pdef, obj)
                        .map_err(QueryError::from)?;
                    current.push(vals.and_then(|v| v.first().and_then(ref_target)));
                }
                Some(join_chain(db, current, remaining_hops, terminal_fields)?)
            }
            ProjPlan::FunctionalJoin {
                hops,
                terminal_fields,
            } => Some(join_chain(db, starts(&srcs), &hops[1..], terminal_fields)?),
        };
        for (src, vals) in srcs.iter_mut().zip(joined.into_iter().flatten()) {
            for (slot, v) in src.row[col..].iter_mut().zip(vals.into_iter().flatten()) {
                *slot = Some(v);
            }
        }
        col += proj.width();
        record_replica_reads(db, proj, oids, io_before);
        if let Some(p) = prof.as_deref_mut() {
            p.mark(proj.label(proj_idx));
        }
    }
    Ok(srcs.into_iter().map(|s| s.row).collect())
}

/// Feed one projection's replicated reads into the database's observed
/// workload registry: `oids.len()` reads against the replication path(s)
/// the projection was answered by, with the projection's page-I/O delta
/// spread over them. Base fields and plain functional joins record
/// nothing — they do not touch replicated state.
fn record_replica_reads(
    db: &mut Database,
    proj: &ProjPlan,
    oids: &[Oid],
    io_before: obs_io::IoCounts,
) {
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
/// terminal fields are projected from the final objects (`None` for a row
/// whose chain broke on a NULL reference). Each join level is batched
/// (page-optimal) and decodes only the field it follows.
fn join_chain(
    db: &Database,
    mut current: Vec<Option<Oid>>,
    hops: &[usize],
    terminal_fields: &[usize],
) -> Result<Vec<Option<Vec<Value>>>> {
    for &hop in hops {
        let next = read_batch(db, &current, |tag, payload| {
            Ok(ref_target(&object_view(db, tag, payload).field(hop)?))
        })?;
        current = next.into_iter().map(Option::flatten).collect();
    }
    read_batch(db, &current, |tag, payload| {
        let obj = object_view(db, tag, payload);
        Ok(terminal_fields
            .iter()
            .map(|&f| obj.field(f))
            .collect::<std::result::Result<_, _>>()?)
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
        let access = plan_access(
            db.catalog(),
            set,
            self.filter.as_ref().map(super::Filter::path),
        )?;
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
        // it). Rows are padded to `output_row_bytes` to model `t`.
        let output_file = if self.spool_output {
            let hf = HeapFile::create(db.sm())?;
            for row in &rows {
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
                hf.rec_insert(db.sm(), 0xFFFD, &payload)?;
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
}

impl UpdateQuery {
    /// Plan this query.
    pub fn plan(&self, db: &Database) -> Result<Plan> {
        let set = db.catalog().set_id(&self.set)?;
        let access = plan_access(
            db.catalog(),
            set,
            self.filter.as_ref().map(super::Filter::path),
        )?;
        Ok(Plan {
            set,
            access,
            projections: Vec::new(),
        })
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

        let elem_type = db.catalog().set(plan.set).elem_type;
        for oid in &oids {
            let obj = db.get(*oid)?;
            let def = db.catalog().type_def(elem_type);
            let changes = eval_assignments(def, &obj, &self.assignments)?;
            db.update(*oid, &changes)?;
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
