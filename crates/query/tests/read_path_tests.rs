//! The batched read path touches each object once: pool requests are
//! counted exactly, moved objects are followed, and a two-frame pool still
//! answers.

use fieldrep_btree::BTreeIndex;
use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_obs::io as obs_io;
use fieldrep_query::{AccessPlan, Filter, ProjPlan, ReadQuery, Row};
use fieldrep_storage::{FileDisk, Oid, PageId, PageView, RecordFlags};

const STRATEGIES: [Option<Strategy>; 3] = [None, Some(Strategy::InPlace), Some(Strategy::Separate)];

fn sval(s: &str) -> Value {
    Value::Str(s.into())
}

/// `S` (5 small objects) and `R` (`n_r` objects of `pad` + ~40 bytes, each
/// referencing one `S`), an unclustered index on `R.field_r`, and
/// `R.sref.name` replicated with `strategy`.
fn build(mut db: Database, n_r: i64, pad: u16, strategy: Option<Strategy>) -> (Database, Vec<Oid>) {
    db.define_type(TypeDef::new("STYPE", vec![("name", FieldType::Str)]))
        .unwrap();
    db.define_type(TypeDef::new(
        "RTYPE",
        vec![
            ("field_r", FieldType::Int),
            ("label", FieldType::Str),
            ("sref", FieldType::Ref("STYPE".into())),
            ("pad", FieldType::Pad(pad)),
        ],
    ))
    .unwrap();
    db.create_set("S", "STYPE").unwrap();
    db.create_set("R", "RTYPE").unwrap();
    let s: Vec<Oid> = (0..5)
        .map(|i| db.insert("S", vec![sval(&format!("s{i}"))]).unwrap())
        .collect();
    let r: Vec<Oid> = (0..n_r)
        .map(|i| {
            let vals = vec![
                Value::Int(i),
                sval("r"),
                Value::Ref(s[(i % 5) as usize]),
                Value::Unit,
            ];
            db.insert("R", vals).unwrap()
        })
        .collect();
    db.create_index("R.field_r", IndexKind::Unclustered)
        .unwrap();
    if let Some(strategy) = strategy {
        db.replicate("R.sref.name", strategy).unwrap();
    }
    (db, r)
}

fn query() -> ReadQuery {
    ReadQuery::on("R")
        .filter(Filter::Range {
            path: "field_r".into(),
            lo: Value::Int(100),
            hi: Value::Int(119),
        })
        .project(["field_r", "sref.name"])
}

/// What the rows must be, computed without the batched path.
fn expected_rows() -> Vec<Row> {
    (100..120)
        .map(|i| vec![Some(Value::Int(i)), Some(sval(&format!("s{}", i % 5)))])
        .collect()
}

#[test]
fn twenty_row_index_read_requests_each_object_page_once() {
    for strategy in STRATEGIES {
        // One R object per page.
        let (mut db, r) = build(
            Database::in_memory(DbConfig::default()),
            400,
            3000,
            strategy,
        );
        let pages: std::collections::BTreeSet<PageId> =
            r[100..120].iter().map(Oid::page_id).collect();
        assert_eq!(
            pages.len(),
            20,
            "the selected objects sit on distinct pages"
        );
        let q = query();
        let AccessPlan::IndexRange { index, .. } = q.plan(&db).unwrap().access else {
            panic!("expected an index plan");
        };

        // The tree's share: the same range, searched directly.
        let before = obs_io::snapshot();
        let (lo, hi) = (Value::Int(100), Value::Int(119));
        let mut hits = 0;
        BTreeIndex::open(index)
            .for_each_in_range(
                db.sm(),
                &fieldrep_core::value_key(&lo),
                &fieldrep_core::value_key(&hi),
                |_, _| hits += 1,
            )
            .unwrap();
        let tree_pages = (obs_io::snapshot() - before).page_touches();
        assert_eq!(hits, 20);
        assert!((2..=3).contains(&tree_pages), "root, one or two leaves");

        let pool_before = db.io_profile();
        let res = q.run(&mut db).unwrap();
        let pool_after = db.io_profile();
        assert_eq!(res.rows, expected_rows(), "{strategy:?}");
        let requests = (pool_after.pool_hits + pool_after.pool_misses)
            - (pool_before.pool_hits + pool_before.pool_misses);
        // Every R page once; then whatever the join needs: nothing for an
        // in-place replica, the one S' page, or the one S page.
        let join_pages = match strategy {
            Some(Strategy::InPlace) => 0,
            _ => 1,
        };
        assert_eq!(requests, tree_pages + 20 + join_pages, "{strategy:?}");

        // The per-operator profile still telescopes to the raw pool totals.
        assert_eq!(res.profile.ops_io_sum(), res.profile.total_io);
        assert_eq!(res.profile.total_io.page_touches(), requests);
        let op = |name: &str| {
            let op = res.profile.ops.iter().find(|o| o.name.starts_with(name));
            op.unwrap_or_else(|| panic!("no {name} operator"))
                .io
                .page_touches()
        };
        assert_eq!(op("access"), tree_pages);
        assert_eq!(op("fetch"), 20);
        assert_eq!(op("proj[0]"), 0);
        assert_eq!(op("proj[1]"), join_pages);
    }
}

/// The R objects of `oids` whose home slot holds a forwarding stub.
fn forwarded(db: &Database, oids: &[Oid]) -> usize {
    oids.iter()
        .filter(|oid| {
            let page = db.sm().pool().fetch(oid.page_id()).unwrap();
            let data = page.data();
            let (hdr, _) = PageView::new(&data[..]).record(oid.slot).unwrap();
            hdr.flags == RecordFlags::Forward
        })
        .count()
}

/// Packed R objects (~30 per page); a third of the selected ones are then
/// grown until they leave their page behind a forwarding stub.
fn build_with_moved_objects(db: Database, strategy: Option<Strategy>) -> (Database, Vec<Row>) {
    let (db, r) = build(db, 400, 60, strategy);
    let mut want = expected_rows();
    for i in (100..120).step_by(3) {
        let label = "x".repeat(700 + i);
        db.update(r[i], &[("label", sval(&label))]).unwrap();
        want[i - 100].push(Some(sval(&label)));
    }
    for row in want.iter_mut().filter(|row| row.len() == 2) {
        row.push(Some(sval("r")));
    }
    assert!(forwarded(&db, &r[100..120]) >= 5, "updates moved objects");
    (db, want)
}

#[test]
fn moved_objects_are_followed_by_the_batched_path() {
    for strategy in STRATEGIES {
        let (mut db, want) =
            build_with_moved_objects(Database::in_memory(DbConfig::default()), strategy);
        let q = query().project(["label"]);
        let kind = match q.plan(&db).unwrap().projections[1] {
            ProjPlan::FunctionalJoin { .. } => None,
            ProjPlan::InPlaceReplica { .. } => Some(Strategy::InPlace),
            ProjPlan::SeparateReplica { .. } => Some(Strategy::Separate),
            ref other => panic!("unexpected plan {other:?}"),
        };
        assert_eq!(kind, strategy);
        assert_eq!(q.run(&mut db).unwrap().rows, want, "{strategy:?}");
    }
}

#[test]
fn a_two_frame_pool_still_answers() {
    for (n, strategy) in STRATEGIES.into_iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("fieldrep-read-path-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Box::new(FileDisk::open(&dir).unwrap());
        let (mut db, want) =
            build_with_moved_objects(Database::with_disk(disk, DbConfig::default()), strategy);
        db.save().unwrap();
        drop(db);
        // Two frames: batches are chunked to one page, and a forwarded
        // record's body takes the other frame.
        let cfg = DbConfig {
            pool_pages: 2,
            ..DbConfig::default()
        };
        let mut db = Database::open(Box::new(FileDisk::open(&dir).unwrap()), cfg).unwrap();
        let res = query().project(["label"]).run(&mut db).unwrap();
        assert_eq!(res.rows, want, "{strategy:?}");
        assert_eq!(res.profile.ops_io_sum(), res.profile.total_io);
        // Tree, R page, moved bodies, join target: more pages than frames.
        assert!(res.profile.total_io.disk_reads > 2);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The no-index fallback: a full scan lists `R` with one request per page,
/// and its filter through `sref` is one batched projection — each `R` page
/// once more and the one `S` page — before the fetch of the matches.
#[test]
fn a_full_scan_filter_through_a_reference_is_one_batched_join() {
    let (mut db, r) = build(Database::in_memory(DbConfig::default()), 400, 3000, None);
    let pages: std::collections::BTreeSet<PageId> = r.iter().map(Oid::page_id).collect();
    assert_eq!(pages.len(), 400, "one R object per page");
    let q = ReadQuery::on("R")
        .filter(Filter::Eq {
            path: "sref.name".into(),
            value: sval("s0"),
        })
        .project(["field_r"]);
    assert_eq!(q.plan(&db).unwrap().access, AccessPlan::FullScan);

    let pool_before = db.io_profile();
    let res = q.run(&mut db).unwrap();
    let pool_after = db.io_profile();
    let want: Vec<Row> = (0..400)
        .step_by(5)
        .map(|i| vec![Some(Value::Int(i))])
        .collect();
    assert_eq!(res.rows, want);
    let requests = (pool_after.pool_hits + pool_after.pool_misses)
        - (pool_before.pool_hits + pool_before.pool_misses);
    // Listing 400, filter 400, S 1, fetch 80.
    assert_eq!(requests, 400 + 400 + 1 + 80);

    // The per-operator profile still telescopes to the raw pool totals.
    assert_eq!(res.profile.ops_io_sum(), res.profile.total_io);
    assert_eq!(res.profile.total_io.page_touches(), requests);
    let op = |name: &str| {
        let op = res.profile.ops.iter().find(|o| o.name.starts_with(name));
        op.unwrap_or_else(|| panic!("no {name} operator"))
            .io
            .page_touches()
    };
    assert_eq!(op("access"), 801);
    assert_eq!(op("fetch"), 80);
}
