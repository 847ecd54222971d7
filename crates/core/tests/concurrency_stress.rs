//! Seeded multi-threaded hostile stress: 8 threads hammer one database
//! with snapshot path reads, terminal updates, and reference re-points
//! across all three replication strategies at once (in-place, separate,
//! collapsed) — in a second case with inserts and deletes beside them,
//! and in a third with two deferred paths (§8) and a thread syncing them.
//! The acceptance invariant is the paper's consistency
//! contract under concurrency: every committed read observes replica
//! values equal to their source field — no torn ripples — and the run
//! finishes with zero errors (a deadlock would surface as
//! `DbError::LockTimeout` from the watchdog).
//!
//! The seed is fixed for reproducibility; override with
//! `FIELDREP_STRESS_SEED=<n>` to explore other schedules.

mod common;

use common::check_consistency;
use fieldrep_catalog::{PathId, Propagation, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_storage::Oid;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Barrier;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 300;
const DEFAULT_SEED: u64 = 0xF1E1D;

fn seed() -> u64 {
    std::env::var("FIELDREP_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

struct World {
    db: Database,
    orgs: Vec<Oid>,
    depts: Vec<Oid>,
    emps: Vec<Oid>,
    paths: Vec<PathId>,
}

/// Figure-1 schema (ORG ← DEPT ← EMP) with one path per strategy:
/// `Emp1.dept.name` in-place, `Emp1.dept.budget` separate, and
/// `Emp1.dept.org.name` collapsed (§4.3.3).
fn build_world() -> World {
    let mut db = Database::in_memory(DbConfig {
        pool_pages: 256,
        inline_link_threshold: 4,
    });
    db.define_type(TypeDef::new(
        "ORG",
        vec![("name", FieldType::Str), ("budget", FieldType::Int)],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "DEPT",
        vec![
            ("name", FieldType::Str),
            ("budget", FieldType::Int),
            ("org", FieldType::Ref("ORG".into())),
        ],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "EMP",
        vec![
            ("name", FieldType::Str),
            ("salary", FieldType::Int),
            ("dept", FieldType::Ref("DEPT".into())),
        ],
    ))
    .unwrap();
    db.create_set("Org", "ORG").unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp1", "EMP").unwrap();

    let orgs: Vec<Oid> = (0..4)
        .map(|i| {
            db.insert(
                "Org",
                vec![Value::Str(format!("org{i}")), Value::Int(1000 + i)],
            )
            .unwrap()
        })
        .collect();
    let depts: Vec<Oid> = (0..8)
        .map(|i| {
            db.insert(
                "Dept",
                vec![
                    Value::Str(format!("dept{i}")),
                    Value::Int(100 * i),
                    Value::Ref(orgs[(i as usize) % orgs.len()]),
                ],
            )
            .unwrap()
        })
        .collect();
    let emps: Vec<Oid> = (0..64)
        .map(|i| {
            db.insert(
                "Emp1",
                vec![
                    Value::Str(format!("emp{i}")),
                    Value::Int(i),
                    Value::Ref(depts[(i as usize) % depts.len()]),
                ],
            )
            .unwrap()
        })
        .collect();

    let p_inplace = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    let p_separate = db
        .replicate("Emp1.dept.budget", Strategy::Separate)
        .unwrap();
    let p_collapsed = db
        .replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    World {
        db,
        orgs,
        depts,
        emps,
        paths: vec![p_inplace, p_separate, p_collapsed],
    }
}

/// One worker's hostile mix: ~50% snapshot consistency checks, ~20%
/// terminal field updates, ~15% `emp.dept` re-points, ~15% `dept.org`
/// re-points (the collapsed path's intermediate hop).
fn worker(w: &World, thread: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(thread as u64));
    for op in 0..OPS_PER_THREAD {
        let roll = rng.gen_range(0..100u32);
        let step = |what: &str, r: fieldrep_core::Result<()>| {
            r.map_err(|e| format!("thread {thread} op {op} ({what}): {e}"))
        };
        if roll < 50 {
            let e = w.emps[rng.gen_range(0..w.emps.len())];
            let p = w.paths[rng.gen_range(0..w.paths.len())];
            let (visible, truth) =
                w.db.snapshot_path_check(e, p)
                    .map_err(|err| format!("thread {thread} op {op} (read): {err}"))?;
            if visible != truth {
                return Err(format!(
                    "thread {thread} op {op}: torn ripple on {e:?} path {p:?}: \
                     replica {visible:?} != source {truth:?}"
                ));
            }
        } else if roll < 70 {
            match rng.gen_range(0..3u32) {
                0 => {
                    let d = w.depts[rng.gen_range(0..w.depts.len())];
                    let v = Value::Str(format!("dept-t{thread}-{op}"));
                    step("dept.name", w.db.update_txn(d, &[("name", v)]))?;
                }
                1 => {
                    let d = w.depts[rng.gen_range(0..w.depts.len())];
                    let v = Value::Int(rng.gen_range(0..1_000_000));
                    step("dept.budget", w.db.update_txn(d, &[("budget", v)]))?;
                }
                _ => {
                    let o = w.orgs[rng.gen_range(0..w.orgs.len())];
                    let v = Value::Str(format!("org-t{thread}-{op}"));
                    step("org.name", w.db.update_txn(o, &[("name", v)]))?;
                }
            }
        } else if roll < 85 {
            let e = w.emps[rng.gen_range(0..w.emps.len())];
            let d = w.depts[rng.gen_range(0..w.depts.len())];
            step(
                "emp.dept re-point",
                w.db.update_txn(e, &[("dept", Value::Ref(d))]),
            )?;
        } else {
            let d = w.depts[rng.gen_range(0..w.depts.len())];
            let o = w.orgs[rng.gen_range(0..w.orgs.len())];
            step(
                "dept.org re-point",
                w.db.update_txn(d, &[("org", Value::Ref(o))]),
            )?;
        }
    }
    Ok(())
}

#[test]
fn eight_thread_hostile_mix_has_no_torn_ripples_and_no_deadlocks() {
    let mut w = build_world();
    let seed = seed();
    let errors: Vec<String> = std::thread::scope(|s| {
        let w = &w;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| s.spawn(move || worker(w, t, seed)))
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("worker panicked").err())
            .collect()
    });
    assert!(errors.is_empty(), "seed {seed}: {errors:#?}");

    // Quiesced finale: every emp × every path still agrees with its
    // source, and the whole-database structural invariants hold.
    for &e in &w.emps {
        for &p in &w.paths {
            let (visible, truth) = w.db.snapshot_path_check(e, p).unwrap();
            assert_eq!(visible, truth, "seed {seed}: emp {e:?} path {p:?}");
            assert!(visible.is_some(), "seed {seed}: broken chain on {e:?}");
        }
    }
    check_consistency(&mut w.db);

    // The run was genuinely concurrent and conflict-laden, and nothing
    // timed out (the watchdog would have surfaced as an error above).
    let stats = w.db.txn().stats();
    assert_eq!(stats.active, 0);
    // `commit_epoch` counts applied write transactions (explicit
    // begin/commit pairs feed `committed`, which this test doesn't use).
    assert!(
        stats.commit_epoch >= (THREADS * OPS_PER_THREAD / 4) as u64,
        "{stats:?}"
    );
}

/// One worker of the mixed case: snapshot checks of shared and own
/// employees, `insert`s of new employees, `delete`s of its own, and
/// updates through both doors — `update` for names and re-points of its
/// own employees, `update_txn` for budgets and `dept.org` re-points.
fn mixed_worker(w: &World, thread: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xA11 + thread as u64));
    let mut mine: Vec<Oid> = Vec::new();
    for op in 0..OPS_PER_THREAD {
        let fail = |what: &str, e: fieldrep_core::DbError| {
            format!("thread {thread} op {op} ({what}): {e}")
        };
        let dept = w.depts[rng.gen_range(0..w.depts.len())];
        match rng.gen_range(0..100u32) {
            0..=39 => {
                let e = match mine.len() {
                    n if n > 0 && rng.gen_bool(0.5) => mine[rng.gen_range(0..n)],
                    _ => w.emps[rng.gen_range(0..w.emps.len())],
                };
                let p = w.paths[rng.gen_range(0..w.paths.len())];
                let (visible, truth) =
                    w.db.snapshot_path_check(e, p)
                        .map_err(|e| fail("read", e))?;
                if visible != truth {
                    return Err(format!(
                        "thread {thread} op {op}: torn ripple on {e:?} path {p:?}: \
                         replica {visible:?} != source {truth:?}"
                    ));
                }
            }
            40..=54 => {
                let values = vec![
                    Value::Str(format!("new-t{thread}-{op}")),
                    Value::Int(op as i64),
                    Value::Ref(dept),
                ];
                mine.push(w.db.insert("Emp1", values).map_err(|e| fail("insert", e))?);
            }
            55..=64 if !mine.is_empty() => {
                let e = mine.swap_remove(rng.gen_range(0..mine.len()));
                w.db.delete(e).map_err(|e| fail("delete", e))?;
            }
            55..=79 => {
                let (oid, change) = match (rng.gen_range(0..3u32), mine.is_empty()) {
                    (0, false) => (
                        mine[rng.gen_range(0..mine.len())],
                        ("dept", Value::Ref(dept)),
                    ),
                    (1, _) => {
                        let o = w.orgs[rng.gen_range(0..w.orgs.len())];
                        (o, ("name", Value::Str(format!("org-m{thread}-{op}"))))
                    }
                    _ => (dept, ("name", Value::Str(format!("dept-m{thread}-{op}")))),
                };
                w.db.update(oid, &[change]).map_err(|e| fail("update", e))?;
            }
            _ => {
                let change = match rng.gen_bool(0.5) {
                    true => ("budget", Value::Int(rng.gen_range(0..1_000_000))),
                    false => ("org", Value::Ref(w.orgs[rng.gen_range(0..w.orgs.len())])),
                };
                w.db.update_txn(dept, &[change])
                    .map_err(|e| fail("update_txn", e))?;
            }
        }
    }
    Ok(())
}

/// Every writer at once: `insert`, `delete` and `update` beside
/// `update_txn` and snapshot readers, all through the one write path. It
/// ends with replica == source for every employee left, a clean
/// structural checker, and no `LockTimeout`.
#[test]
fn inserts_deletes_and_updates_mix_with_update_txn_and_snapshot_readers() {
    let mut w = build_world();
    let seed = seed();
    let errors: Vec<String> = std::thread::scope(|s| {
        let w = &w;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| s.spawn(move || mixed_worker(w, t, seed)))
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("worker panicked").err())
            .collect()
    });
    assert!(errors.is_empty(), "seed {seed}: {errors:#?}");

    let emps = w.db.scan_set("Emp1").unwrap();
    assert!(emps.len() > w.emps.len(), "inserts outlived the deletes");
    for &e in &emps {
        for &p in &w.paths {
            let (visible, truth) = w.db.snapshot_path_check(e, p).unwrap();
            assert_eq!(visible, truth, "seed {seed}: emp {e:?} path {p:?}");
        }
    }
    check_consistency(&mut w.db);
    assert_eq!(w.db.txn().stats().active, 0);
}

/// The stress world plus two deferred paths (§8): `Emp1.dept.org.budget`
/// in place and `Emp1.dept.org.all` separate. Their ids follow the three
/// eager paths in `paths`.
fn build_deferred_world() -> World {
    let mut w = build_world();
    for (path, strategy) in [
        ("Emp1.dept.org.budget", Strategy::InPlace),
        ("Emp1.dept.org.all", Strategy::Separate),
    ] {
        let p = w.db.replicate_with(path, strategy, Propagation::Deferred);
        w.paths.push(p.unwrap());
    }
    w
}

/// One worker of the deferred case. All start together at `start`, so the
/// syncs overlap the writes from the first op on. Thread 0 only runs
/// `sync_all_pending`. The others read snapshots — exact on the three
/// eager paths; a deferred one serves what was last synced, so there the
/// read only has to succeed — and write: terminal fields (`dept.name`,
/// `org.name`, `org.budget`), an employee's own plain fields (written back
/// as a whole record, over the hidden values a sync refreshes), and both
/// references.
fn deferred_worker(w: &World, start: &Barrier, thread: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xDEF + thread as u64));
    start.wait();
    for op in 0..OPS_PER_THREAD {
        let fail = |what: &str, e: fieldrep_core::DbError| {
            format!("thread {thread} op {op} ({what}): {e}")
        };
        let e = w.emps[rng.gen_range(0..w.emps.len())];
        let d = w.depts[rng.gen_range(0..w.depts.len())];
        let o = w.orgs[rng.gen_range(0..w.orgs.len())];
        if thread == 0 {
            w.db.sync_all_pending().map_err(|e| fail("sync", e))?;
            continue;
        }
        match rng.gen_range(0..100u32) {
            0..=39 => {
                let i = rng.gen_range(0..w.paths.len());
                let (visible, truth) =
                    w.db.snapshot_path_check(e, w.paths[i])
                        .map_err(|e| fail("read", e))?;
                if i < 3 && visible != truth {
                    return Err(format!(
                        "thread {thread} op {op}: torn ripple on {e:?} path {:?}: \
                         replica {visible:?} != source {truth:?}",
                        w.paths[i]
                    ));
                }
            }
            40..=59 => {
                let (oid, change) = match rng.gen_range(0..3u32) {
                    0 => (d, ("name", Value::Str(format!("dept-d{thread}-{op}")))),
                    1 => (o, ("name", Value::Str(format!("org-d{thread}-{op}")))),
                    _ => (o, ("budget", Value::Int(rng.gen_range(0..1_000_000)))),
                };
                w.db.update_txn(oid, &[change])
                    .map_err(|e| fail("terminal", e))?;
            }
            60..=79 => {
                let change = match rng.gen_bool(0.5) {
                    true => ("salary", Value::Int(op as i64)),
                    false => ("name", Value::Str(format!("emp-d{thread}-{op}"))),
                };
                w.db.update(e, &[change]).map_err(|e| fail("source", e))?;
            }
            80..=89 => {
                w.db.update(e, &[("dept", Value::Ref(d))])
                    .map_err(|e| fail("emp.dept re-point", e))?;
            }
            _ => {
                w.db.update_txn(d, &[("org", Value::Ref(o))])
                    .map_err(|e| fail("dept.org re-point", e))?;
            }
        }
    }
    Ok(())
}

/// Deferred paths under the writer protocol: a sync is a locked write, so
/// one racing the updates of terminals, of references and of the sources
/// themselves loses no refresh. After a final sync nothing is pending and
/// every replica, deferred ones included, equals its source; the run ends
/// with no error and a clean structural checker.
#[test]
fn deferred_paths_sync_under_writers_and_snapshot_readers() {
    let mut w = build_deferred_world();
    let seed = seed();
    let start = Barrier::new(THREADS);
    let errors: Vec<String> = std::thread::scope(|s| {
        let (w, start) = (&w, &start);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| s.spawn(move || deferred_worker(w, start, t, seed)))
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("worker panicked").err())
            .collect()
    });
    assert!(errors.is_empty(), "seed {seed}: {errors:#?}");

    w.db.sync_all_pending().unwrap();
    for &e in &w.emps {
        for &p in &w.paths {
            assert_eq!(w.db.pending_count(p), 0, "seed {seed}: path {p:?}");
            let (visible, truth) = w.db.snapshot_path_check(e, p).unwrap();
            assert_eq!(visible, truth, "seed {seed}: emp {e:?} path {p:?}");
            assert!(visible.is_some(), "seed {seed}: broken chain on {e:?}");
        }
    }
    check_consistency(&mut w.db);
    assert_eq!(w.db.txn().stats().active, 0);
}

/// Same engine, single thread, fixed seed: a cheap smoke for CI scripts
/// (`scripts/check.sh`) that still crosses every strategy's footprint
/// code path.
#[test]
fn single_thread_mix_smoke() {
    let w = build_world();
    worker(&w, 0, DEFAULT_SEED).unwrap();
    let stats = w.db.txn().stats();
    assert_eq!(stats.conflicts, 0, "no conflicts possible single-threaded");
}
