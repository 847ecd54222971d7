//! One client: turns operations into calls on the engine's public
//! doors, times them, and checks every answer against the oracle.

use crate::ledger::{Layers, Ledger};
use crate::ops::{read_query, statement, update_query, Op, ROWS_PER_READ};
use crate::trace::{Cat, OpRef, Tracer};
use crate::world::{parse_rep_value, rep_value, Oracle, Paths, Rep};
use fieldrep_core::Database;
use fieldrep_lang::{parse_stmt, Interpreter, Output};
use fieldrep_model::Value;
use fieldrep_obs::{io as obs_io, IoCounts, Profile};
use fieldrep_query::Row;
use fieldrep_storage::Oid;
use std::time::Instant;

/// What the engine is reached through.
pub enum Engine<'a> {
    /// `lang` statements; the interpreter owns the database.
    Stmt(&'a mut Interpreter),
    /// The transactional API on a shared database.
    Txn(&'a Database),
}

/// A finished operation.
pub struct Done {
    /// When the engine was entered.
    pub t0: Instant,
    /// When it returned.
    pub t1: Instant,
    /// Page events the operation caused on this thread.
    pub io: IoCounts,
    /// Whether it succeeded and the oracle accepts what it returned.
    pub ok: bool,
}

/// One client of a workload.
pub struct Client<'a> {
    /// The door.
    pub engine: Engine<'a>,
    /// The mirror answers are checked against.
    pub oracle: &'a Oracle,
    /// The replication paths.
    pub paths: Paths,
    /// One client: every row must equal the oracle. Two: every value
    /// must be one that was written for the `S` it names.
    pub exact: bool,
    reads_seen: u64,
}

/// `Database::update_txn`, or `Database::update` when peeling.
type UpdateFn = fn(&Database, Oid, &[(&str, Value)]) -> fieldrep_core::Result<()>;

/// Sampled reads of the two-client workload that are also checked with
/// `snapshot_path_check`: one in this many.
const PATH_CHECK_EVERY: u64 = 16;

impl<'a> Client<'a> {
    /// A client over `engine`.
    pub fn new(engine: Engine<'a>, oracle: &'a Oracle, paths: Paths, exact: bool) -> Client<'a> {
        Client {
            engine,
            oracle,
            paths,
            exact,
            reads_seen: 0,
        }
    }

    /// The database behind the door.
    pub fn db(&self) -> &Database {
        match &self.engine {
            Engine::Stmt(it) => &it.db,
            Engine::Txn(db) => db,
        }
    }

    /// Whether `text` is acceptable as field `rep` read through `R[r]`.
    fn value_ok(&self, text: &str, rep: Rep, r: u32) -> bool {
        let Some((s, version)) = parse_rep_value(text, rep) else {
            return false;
        };
        if s as usize >= self.oracle.s_count() {
            return false;
        }
        if self.exact {
            s == self.oracle.target(r) && version == self.oracle.version(s, rep)
        } else {
            version <= self.oracle.version(s, rep)
        }
    }

    /// Whether `rows` is what the read `op` must return.
    fn rows_ok(&self, op: &Op, rows: &[Row]) -> bool {
        let rep = op.kind.rep().expect("reads have a field");
        rows.len() == ROWS_PER_READ as usize
            && rows.iter().enumerate().all(|(i, row)| {
                let key = op.a as usize + i;
                matches!(
                    row.as_slice(),
                    [Some(Value::Int(k)), Some(Value::Str(v))]
                        if *k == key as i64 && self.value_ok(v, rep, self.oracle.r_by_key[key])
                )
            })
    }

    /// The value a field update writes: the next version of its field.
    fn next_value(&self, op: &Op) -> String {
        match op.kind.rep() {
            Some(rep) if !op.kind.is_read() => {
                rep_value(op.a, rep, self.oracle.next_version(op.a, rep))
            }
            _ => String::new(),
        }
    }

    /// Run `op` through the workload's door. With a tracer, the
    /// operation and the layers entered for it are recorded as spans.
    pub fn run(
        &mut self,
        op: &Op,
        op_id: u64,
        mut trace: Option<(&mut Tracer, &mut Layers)>,
    ) -> Done {
        let value = self.next_value(op);
        let at = OpRef {
            id: op_id,
            kind: op.kind,
        };
        match &mut self.engine {
            Engine::Stmt(it) => {
                let text = statement(op, self.oracle, &value);
                let io0 = obs_io::snapshot();
                let t0 = Instant::now();
                let parsed = parse_stmt(&text);
                let tp = Instant::now();
                let out = parsed.and_then(|stmt| it.execute_stmt(&stmt));
                let t1 = Instant::now();
                let io = obs_io::snapshot() - io0;
                let ok = match &out {
                    Ok(Output::Rows { rows, .. }) if op.kind.is_read() => self.rows_ok(op, rows),
                    Ok(Output::Updated(1)) => !op.kind.is_read(),
                    _ => false,
                };
                if let Some((tr, layers)) = trace.as_mut() {
                    tr.span("op", Cat::Op, t0, t1, "", at);
                    tr.span("lang.parse", Cat::Layer, t0, tp, "op", at);
                    tr.span("lang.exec", Cat::Layer, tp, t1, "op", at);
                    let exec = (t1 - tp).as_nanos() as u64;
                    layers.parse.push((tp - t0).as_nanos() as u64);
                    layers.exec.push(exec);
                    layers.door[op.kind.idx()].push(exec);
                }
                Done { t0, t1, io, ok }
            }
            Engine::Txn(db) => {
                let db: &Database = db;
                let io0 = obs_io::snapshot();
                let t0 = Instant::now();
                let ok = if op.kind.is_read() {
                    self.txn_read(db, op)
                } else {
                    self.txn_update(db, op, &value, Database::update_txn)
                };
                let t1 = Instant::now();
                let io = obs_io::snapshot() - io0;
                if let Some((tr, layers)) = trace.as_mut() {
                    let name = if op.kind.is_read() {
                        "core.txn.snapshot_read"
                    } else {
                        "core.txn.update_txn"
                    };
                    tr.span("op", Cat::Op, t0, t1, "", at);
                    tr.span(name, Cat::Layer, t0, t1, "op", at);
                    layers.door[op.kind.idx()].push((t1 - t0).as_nanos() as u64);
                }
                Done { t0, t1, io, ok }
            }
        }
    }

    /// A snapshot read of one `R` object's path value.
    fn txn_read(&self, db: &Database, op: &Op) -> bool {
        let rep = op.kind.rep().expect("reads have a field");
        let r_oid = self.oracle.r_oids[op.a as usize];
        let text = match self.paths.of(rep) {
            Some(path) => match db.snapshot_path_values(r_oid, path) {
                Ok(Some(mut vals)) if vals.len() == 1 => vals.pop(),
                _ => None,
            },
            // No replica: the functional join, by hand, as a client of
            // the transactional API writes it.
            None => match db.snapshot_get(r_oid).map(|obj| obj.values[0].clone()) {
                Ok(Value::Ref(s_oid)) => db.snapshot_field(s_oid, rep.field()).ok(),
                _ => None,
            },
        };
        matches!(text, Some(Value::Str(v)) if self.value_ok(&v, rep, op.a))
    }

    /// One consistent look at both sides of a replicated path from
    /// `R[r]`: the replica must equal its source. Used on sampled reads
    /// of the two-client workload. `None` when the kind has no replica.
    pub fn path_check(&mut self, op: &Op) -> Option<bool> {
        if self.exact || !op.kind.is_read() {
            return None;
        }
        self.reads_seen += 1;
        if !self.reads_seen.is_multiple_of(PATH_CHECK_EVERY) {
            return None;
        }
        let path = self.paths.of(op.kind.rep()?)?;
        let r_oid = self.oracle.r_oids[op.a as usize];
        Some(matches!(
            self.db().snapshot_path_check(r_oid, path),
            Ok((Some(visible), Some(truth))) if visible == truth
        ))
    }

    /// A field update or a re-point through `update` (`update_txn`, or
    /// `Database::update` when peeling).
    fn txn_update(&self, db: &Database, op: &Op, value: &str, update: UpdateFn) -> bool {
        match op.kind.rep() {
            Some(rep) => {
                let s_oid = self.oracle.s_oids[op.a as usize];
                update(db, s_oid, &[(rep.field(), Value::Str(value.to_string()))]).is_ok()
            }
            None => {
                // A re-point to the current target changes nothing and
                // would be timed as an update that did no work.
                let mut s = op.b;
                if self.oracle.target(op.a) == s {
                    s = (s + 1) % self.oracle.s_count() as u32;
                }
                let r_oid = self.oracle.r_oids[op.a as usize];
                let s_oid = self.oracle.s_oids[s as usize];
                let ok = update(db, r_oid, &[("sref", Value::Ref(s_oid))]).is_ok();
                if ok {
                    self.oracle.repoint(op.a, s);
                }
                ok
            }
        }
    }

    /// Whether a sampled `op` can be sent through the next door down.
    /// Statement operations always can. Transactional updates can with
    /// one client; with two, `Database::update` would write under the
    /// other client's readers without the locks they validate against.
    pub fn can_peel(&self, op: &Op) -> bool {
        match self.engine {
            Engine::Stmt(_) => true,
            Engine::Txn(_) => self.exact && !op.kind.is_read(),
        }
    }

    /// Run a sampled `op` one door down and enter its time into the
    /// ledger by layer. See [`crate::ledger`].
    pub fn run_peeled(
        &mut self,
        op: &Op,
        op_id: u64,
        tr: &mut Tracer,
        layers: &mut Layers,
        ledger: &mut Ledger,
    ) -> Done {
        let value = self.next_value(op);
        let k = op.kind.idx();
        let at = OpRef {
            id: op_id,
            kind: op.kind,
        };
        ledger.ops += 1;
        ledger.peeled[k] += 1;
        match &mut self.engine {
            Engine::Stmt(it) => {
                let text = statement(op, self.oracle, &value);
                let io0 = obs_io::snapshot();
                let t0 = Instant::now();
                let parsed = parse_stmt(&text).is_ok();
                let tp = Instant::now();
                // What `execute_stmt` would build from the parse tree.
                let (tq, t1, ok, profile) = if op.kind.is_read() {
                    let q = read_query(op);
                    let tq = Instant::now();
                    let res = q.run(&mut it.db);
                    let t1 = Instant::now();
                    match res {
                        Ok(res) => (tq, t1, true, Some((res.profile, Some(res.rows)))),
                        Err(_) => (tq, t1, false, None),
                    }
                } else {
                    let q = update_query(op, self.oracle, &value);
                    let tq = Instant::now();
                    let res = q.run(&mut it.db);
                    let t1 = Instant::now();
                    match res {
                        Ok(res) => (tq, t1, res.updated == 1, Some((res.profile, None))),
                        Err(_) => (tq, t1, false, None),
                    }
                };
                let io = obs_io::snapshot() - io0;
                let ok = parsed
                    && ok
                    && match &profile {
                        Some((_, Some(rows))) => self.rows_ok(op, rows),
                        Some((_, None)) => true,
                        None => false,
                    };
                let run_ns = (t1 - tq).as_nanos() as u64;
                tr.span("op", Cat::Op, t0, t1, "", at);
                tr.span("lang.parse", Cat::Layer, t0, tp, "op", at);
                tr.span("query.run", Cat::Layer, tq, t1, "op", at);
                layers.parse.push((tp - t0).as_nanos() as u64);
                layers.peeled[k].push(run_ns);
                if op.kind.is_read() {
                    layers.query_run.push(run_ns);
                }
                ledger.measured_ns += (t1 - t0).as_nanos() as u64;
                ledger.parse_ns += (tp - t0).as_nanos() as u64;
                if let Some((profile, _)) = &profile {
                    enter_profile(profile, tr.offset_ns(tq), at, tr, ledger);
                }
                Done { t0, t1, io, ok }
            }
            Engine::Txn(db) => {
                let db: &Database = db;
                let io0 = obs_io::snapshot();
                let t0 = Instant::now();
                let ok = self.txn_update(db, op, &value, Database::update);
                let tu = Instant::now();
                let io_update = obs_io::snapshot() - io0;
                // The commit half of `update_txn`, by the same calls.
                let wal = db.sm().wal().cloned();
                let mut logged = true;
                if let Some(w) = &wal {
                    let apply = w.apply_lock();
                    let lsn = db.sm().pool().log_txn_commit();
                    drop(apply);
                    logged = match lsn {
                        Ok(Some(lsn)) => w.sync_to(lsn).is_ok(),
                        Ok(None) => true,
                        Err(_) => false,
                    };
                }
                let t1 = Instant::now();
                let io = obs_io::snapshot() - io0;
                // The same sweep with nothing left to log.
                let sweep_ns = wal.as_ref().map_or(0, |w| {
                    let _apply = w.apply_lock();
                    let s0 = Instant::now();
                    let _ = db.sm().pool().log_txn_commit();
                    s0.elapsed().as_nanos() as u64
                });
                let update_ns = (tu - t0).as_nanos() as u64;
                let commit_ns = (t1 - tu).as_nanos() as u64;
                tr.span("op", Cat::Op, t0, t1, "", at);
                tr.span("core.update", Cat::Layer, t0, tu, "op", at);
                tr.span("storage.wal.log_commit", Cat::Layer, tu, t1, "op", at);
                layers.update[k].push(update_ns);
                layers.log_commit.push(commit_ns);
                layers.commit_sweep.push(sweep_ns);
                layers.peeled[k].push(update_ns + commit_ns);
                ledger.measured_ns += update_ns + commit_ns;
                ledger.core.add(update_ns, io_update);
                let sweep_ns = sweep_ns.min(commit_ns);
                ledger.sweep_ns += sweep_ns;
                ledger.wal_ns += commit_ns - sweep_ns;
                Done {
                    t0,
                    t1,
                    io,
                    ok: ok && logged,
                }
            }
        }
    }
}

/// Enter the engine's own per-operator profile of a peeled query into
/// the ledger, and lay its segments out as child spans of `query.run`.
/// Object fetch, projection, apply and propagate are the core layer
/// working for the query; the rest (plan, index access, sync, spool) is
/// the query layer itself.
fn enter_profile(
    profile: &Profile,
    mut at_ns: u64,
    at: OpRef,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) {
    for seg in &profile.ops {
        let nanos = seg.nanos as u64;
        let (name, is_core) = match seg.name.as_str() {
            "plan" => ("query.plan", false),
            "sync" => ("query.sync", false),
            "spool" => ("query.spool", false),
            "fetch" => ("core.fetch_objects", true),
            "apply" => ("core.update", true),
            "core.propagate" => ("core.propagate", true),
            n if n.starts_with("access") => ("btree.access", false),
            n if n.starts_with("proj") => ("core.project", true),
            _ => ("query.other", false),
        };
        if is_core {
            ledger.core.add(nanos, seg.io);
        } else {
            ledger.query.add(nanos, seg.io);
        }
        tr.span_ns(name, Cat::Layer, at_ns, nanos, "query.run", at);
        at_ns += nanos;
    }
}
