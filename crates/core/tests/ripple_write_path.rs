//! The ripple write path costs what it changes (ISSUE 20): hidden values
//! are patched where they lie, under the pin the page group already
//! holds — so an in-place ripple makes one pool request per source
//! *page* (plus one per page its forwarded bodies lie on), a source that
//! already holds the value is neither dirtied nor logged, a path index
//! follows the patched value, and the steady-state log cost of an
//! in-place commit is the few bytes per page that changed.

use fieldrep_btree::BTreeIndex;
use fieldrep_catalog::{IndexKind, PathId, Propagation, Strategy};
use fieldrep_core::attach::{attach_terminal, walk_chain};
use fieldrep_core::{value_key, Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_storage::{MemDisk, MemWalStore, Oid, PageId, PageView, RecordFlags};
use std::collections::BTreeSet;

fn sval(s: &str) -> Value {
    Value::Str(s.into())
}

fn cfg() -> DbConfig {
    DbConfig {
        // Holds every test's data: no eviction, every request a hit.
        pool_pages: 256,
        inline_link_threshold: 0,
    }
}

/// `DEPT ← EMP` with `depts` departments and `emps` ~100-byte employees,
/// employee `i` in department `dept_of(i)`.
fn populate(
    mut db: Database,
    depts: usize,
    emps: usize,
    dept_of: impl Fn(usize) -> usize,
) -> (Database, Vec<Oid>, Vec<Oid>) {
    db.define_type(TypeDef::new(
        "DEPT",
        vec![("name", FieldType::Str), ("budget", FieldType::Int)],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "EMP",
        vec![
            ("name", FieldType::Str),
            ("salary", FieldType::Int),
            ("dept", FieldType::Ref("DEPT".into())),
            ("pad", FieldType::Pad(60)),
        ],
    ))
    .unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Emp", "EMP").unwrap();
    let depts: Vec<Oid> = (0..depts)
        .map(|d| {
            db.insert("Dept", vec![sval(&format!("dept-{d:04}")), Value::Int(0)])
                .unwrap()
        })
        .collect();
    let emps: Vec<Oid> = (0..emps)
        .map(|i| {
            let dept = Value::Ref(depts[dept_of(i)]);
            db.insert(
                "Emp",
                vec![
                    sval(&format!("e{i:05}")),
                    Value::Int(i as i64),
                    dept,
                    Value::Unit,
                ],
            )
            .unwrap()
        })
        .collect();
    (db, depts, emps)
}

fn wal_db() -> Database {
    Database::with_disk_and_wal(
        Box::new(MemDisk::new()),
        Box::new(MemWalStore::new()),
        cfg(),
    )
    .unwrap()
}

fn requests(db: &Database) -> u64 {
    db.io_profile().pool_hits + db.io_profile().pool_misses
}

/// The page `oid`'s moved body lies on, if its record is forwarded.
fn body_page(db: &Database, oid: Oid) -> Option<PageId> {
    let page = db.sm().pool().fetch(oid.page_id()).unwrap();
    let data = page.data();
    let (hdr, payload) = PageView::new(&data[..]).record(oid.slot).unwrap();
    (hdr.flags == RecordFlags::Forward).then(|| Oid::from_bytes(payload).page_id())
}

fn assert_replicas(db: &Database, path: PathId, sources: &[Oid], want: &str) {
    for &s in sources {
        assert_eq!(db.path_values(s, path).unwrap(), Some(vec![sval(want)]));
    }
}

#[test]
fn an_inplace_ripple_requests_each_source_page_once() {
    // Every eighth employee is in department 0: its sources are spread
    // over every page of `Emp`, several to a page. The pages were full
    // before `replicate` grew each record by its hidden field, so some
    // sources now live behind a forwarding stub.
    let (mut db, depts, emps) = populate(Database::in_memory(cfg()), 2, 200, |i| {
        usize::from(i % 8 != 0)
    });
    let path = db.replicate("Emp.dept.name", Strategy::InPlace).unwrap();
    let sources: Vec<Oid> = emps.iter().copied().step_by(8).collect();
    let f = sources.len();
    let p = sources
        .iter()
        .map(Oid::page_id)
        .collect::<BTreeSet<_>>()
        .len();
    // The pages the forwarded sources' bodies lie on.
    let forwarded = |db: &Database| {
        let pages: BTreeSet<PageId> = sources.iter().filter_map(|s| body_page(db, *s)).collect();
        pages.len()
    };
    let k = forwarded(&db);
    assert!(p > 1 && f > 2 * p && k > 0, "f = {f}, p = {p}, k = {k}");

    // Apart from the fan-out, an update of the department reads it (the
    // plan) and reads the one link-store page that lists its sources:
    // two requests. Writing the department back takes its page from the
    // plan's pins, so the object's page is requested once.
    let c = 2;
    // A list of the stored length is patched where it lies: one request
    // per source page (the batch pin) and one per page of forwarded
    // bodies (kept by the pins), however many sources a page holds. The
    // transactional door costs the same — its unlocked plan is the plan,
    // not a second one.
    db.reset_profile();
    db.update(depts[0], &[("name", sval("dept-0001"))]).unwrap();
    assert_eq!(requests(&db), (p + k + c) as u64);
    assert_replicas(&db, path, &sources, "dept-0001");
    db.reset_profile();
    db.update_txn(depts[0], &[("name", sval("dept-0002"))])
        .unwrap();
    assert_eq!(requests(&db), (p + k + c) as u64);
    assert_replicas(&db, path, &sources, "dept-0002");

    // A longer list is spliced in and may move records off their full
    // pages (placement costs requests of its own); a shorter one shrinks
    // them where they are. Either way the sources read the new value…
    for name in ["department-0002", "d2"] {
        db.update(depts[0], &[("name", sval(name))]).unwrap();
        assert_replicas(&db, path, &sources, name);
    }
    // …and the next same-length ripple is back to pages, not objects.
    let k = forwarded(&db);
    db.reset_profile();
    db.update(depts[0], &[("name", sval("d3"))]).unwrap();
    assert_eq!(requests(&db), (p + k + c) as u64);
    assert_replicas(&db, path, &sources, "d3");
}

#[test]
fn a_synced_rename_requests_what_the_eager_rename_does() {
    // Twin worlds, as in the test above, one path eager and one deferred.
    let world = |propagation| {
        let (mut db, depts, emps) = populate(Database::in_memory(cfg()), 2, 200, |i| {
            usize::from(i % 8 != 0)
        });
        let path = db
            .replicate_with("Emp.dept.name", Strategy::InPlace, propagation)
            .unwrap();
        let sources: Vec<Oid> = emps.iter().copied().step_by(8).collect();
        (db, depts[0], sources, path)
    };
    let (eager, dept, sources, path) = world(Propagation::Eager);
    eager.reset_profile();
    eager.update(dept, &[("name", sval("dept-0001"))]).unwrap();
    let want = requests(&eager);
    assert_replicas(&eager, path, &sources, "dept-0001");

    // A sync plans the parked rename as the update planned its fan-out —
    // the department, the link-store page listing its sources — and
    // refreshes them through the same pins: one request per source page
    // and per page of forwarded bodies, the terminal read once.
    let (deferred, dept, sources, path) = world(Propagation::Deferred);
    deferred
        .update(dept, &[("name", sval("dept-0001"))])
        .unwrap();
    assert_eq!(deferred.pending_count(path), 1);
    deferred.reset_profile();
    assert_eq!(deferred.sync_path(path).unwrap(), 1);
    assert_eq!(requests(&deferred), want);
    assert_replicas(&deferred, path, &sources, "dept-0001");
}

#[test]
fn rematerialising_current_sources_dirties_and_logs_nothing() {
    let (mut db, depts, emps) = populate(wal_db(), 4, 120, |i| i % 4);
    let eager = db.replicate("Emp.dept.name", Strategy::InPlace).unwrap();
    let deferred = db
        .replicate_with("Emp.dept.budget", Strategy::InPlace, Propagation::Deferred)
        .unwrap();
    // Park a refresh whose sources are already current: there and back.
    db.update(depts[1], &[("budget", Value::Int(5))]).unwrap();
    db.update(depts[1], &[("budget", Value::Int(0))]).unwrap();
    assert_eq!(db.pending_count(deferred), 1);
    db.sm().checkpoint().unwrap(); // every page clean, the log empty
    let logged = db.sm().wal_stats();

    // An idempotent attach: every source of department 0 is handed the
    // values it already holds.
    let pdef = db.catalog().path(eager).clone();
    for &e in emps.iter().step_by(4) {
        db.apply_and_commit(|db, w| {
            let mut ctx = db.write_ctx(w);
            let chain = walk_chain(&mut ctx, &pdef, e, &db.get(e)?)?;
            let page = ctx.page_of(e)?;
            attach_terminal(&mut ctx, &pdef, &page, e, &chain)
        })
        .unwrap();
    }
    // A sync with nothing stale.
    assert_eq!(db.sync_path(deferred).unwrap(), 1);

    assert_eq!(db.sm().pool().log_txn_commit().unwrap(), None);
    assert_eq!(db.sm().wal_stats().appends, logged.appends);
    let writes = db.io_profile().disk.writes;
    db.flush_all().unwrap();
    assert_eq!(db.io_profile().disk.writes, writes, "no page was dirtied");
    assert_eq!(db.sm().wal_stats().appends, logged.appends);
    assert_replicas(&db, eager, &emps[..1], "dept-0000");
}

#[test]
fn a_path_index_follows_the_patched_value() {
    for txn in [false, true] {
        let (mut db, depts, emps) = populate(Database::in_memory(cfg()), 3, 30, |i| i % 3);
        let path = db.replicate("Emp.dept.name", Strategy::InPlace).unwrap();
        let idx = db
            .create_index("Emp.dept.name", IndexKind::Unclustered)
            .unwrap();
        let tree = BTreeIndex::open(db.catalog().index(idx).file);
        let update = |oid, changes: &[(&str, Value)]| {
            if txn {
                db.update_txn(oid, changes)
            } else {
                db.update(oid, changes)
            }
            .unwrap();
        };
        let under = |name: &str| tree.lookup(db.sm(), &value_key(&sval(name))).unwrap();
        let in_dept0: Vec<Oid> = emps.iter().copied().step_by(3).collect();
        assert_eq!(under("dept-0000"), in_dept0);

        // Overwrite (same length) and splice (longer): old key out, new in.
        for (old, new) in [("dept-0000", "dept-zero"), ("dept-zero", "department zero")] {
            update(depts[0], &[("name", sval(new))]);
            assert!(under(old).is_empty());
            assert_eq!(under(new), in_dept0);
            assert_eq!(tree.entry_count(db.sm()).unwrap(), 30);
        }
        // An unchanged value moves nothing.
        update(depts[0], &[("budget", Value::Int(9))]);
        assert_eq!(under("department zero"), in_dept0);

        // Present → cleared: the employee leaves every department…
        update(in_dept0[0], &[("dept", Value::Ref(Oid::NULL))]);
        assert_eq!(db.path_values(in_dept0[0], path).unwrap(), None);
        assert_eq!(under("department zero"), in_dept0[1..]);
        assert_eq!(tree.entry_count(db.sm()).unwrap(), 29);
        // …and cleared → present: joins another.
        update(in_dept0[0], &[("dept", Value::Ref(depts[1]))]);
        assert!(under("dept-0001").contains(&in_dept0[0]));
        assert_eq!(tree.entry_count(db.sm()).unwrap(), 30);
    }
}

/// The decision gate that closed the logical-ripple-record question
/// (ROADMAP "Parked": 448 B physical is under the 2 KB bar): what an
/// in-place commit costs the log. Every page it touches has a base —
/// its disk copy, or the image its first commit logged — so from the
/// first pass on the `PageDelta` stream carries the ~20 bytes each
/// source page changed; a page's 4 KiB image waits for its first
/// write-back in the epoch, and this pool writes nothing back.
#[test]
fn steady_state_inplace_commit_logs_well_under_2_kb() {
    // f = 10, unclustered: department d's sources are employees d, d + 50,
    // d + 100, … — one on nearly every page of `Emp`.
    let (mut db, depts, emps) = populate(wal_db(), 50, 500, |i| i % 50);
    let path = db.replicate("Emp.dept.name", Strategy::InPlace).unwrap();
    let rename_all = |version: u32| {
        let before = db.sm().wal_stats().bytes;
        for (d, &dept) in depts.iter().enumerate() {
            db.update_txn(dept, &[("name", sval(&format!("d{d:03}v{version:04}")))])
                .unwrap();
        }
        (db.sm().wal_stats().bytes - before) / depts.len() as u64
    };
    for pass in 0..3 {
        let per_commit = rename_all(pass);
        println!("WAL bytes per in-place commit (f = 10), pass {pass}: {per_commit}");
        assert!(
            per_commit < 2048,
            "pass {pass}: {per_commit} B per in-place commit"
        );
    }
    for (i, &e) in emps.iter().enumerate() {
        let want = format!("d{:03}v0002", i % 50);
        assert_eq!(db.path_values(e, path).unwrap(), Some(vec![sval(&want)]));
    }
}
