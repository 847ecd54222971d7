//! Save/reopen tests: a file-backed database survives a full process
//! round trip — schema, data, replication state, indexes and all.

mod common;

use common::check_consistency;
use fieldrep_btree::BTreeIndex;
use fieldrep_catalog::{persist, IndexKind, LinkId, Propagation, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, PathExpr, TypeDef, Value};
use fieldrep_query::{Assign, Filter, ReadQuery, UpdateQuery};
use fieldrep_storage::{
    checksum, DiskManager, FileDisk, FileId, MemDisk, PageId, PageKind, PageMut, StorageManager,
    PAGE_SIZE,
};

fn schema(db: &mut Database) {
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
}

#[test]
fn catalog_image_roundtrip() {
    // Pure encode/decode equivalence, observed through the public API.
    let sm = StorageManager::in_memory(64);
    let mut cat = fieldrep_catalog::Catalog::new();
    cat.define_type(TypeDef::new(
        "ORG",
        vec![("name", FieldType::Str), ("pad", FieldType::Pad(9))],
    ))
    .unwrap();
    cat.define_type(TypeDef::new(
        "DEPT",
        vec![
            ("name", FieldType::Str),
            ("org", FieldType::Ref("ORG".into())),
        ],
    ))
    .unwrap();
    let f1 = sm.create_file().unwrap();
    let f2 = sm.create_file().unwrap();
    cat.create_set("Dept", "DEPT", f1).unwrap();
    cat.create_set("Org", "ORG", f2).unwrap();
    cat.declare_replication_with(
        &PathExpr::parse("Dept.org.name").unwrap(),
        Strategy::InPlace,
        Propagation::Deferred,
        &sm,
    )
    .unwrap();

    let image = persist::encode(&cat);
    let back = persist::decode(&image).unwrap();
    assert_eq!(back.set_id("Dept").unwrap(), cat.set_id("Dept").unwrap());
    assert_eq!(back.paths().count(), 1);
    let p = back.paths().next().unwrap();
    assert_eq!(p.expr.dotted(), "Dept.org.name");
    assert_eq!(p.strategy, Strategy::InPlace);
    assert_eq!(p.propagation, Propagation::Deferred);
    assert_eq!(p.links, vec![LinkId(1)]);
    assert_eq!(back.link(LinkId(1)).refcount, 1);
    assert_eq!(
        back.type_def(back.type_id("ORG").unwrap()).fields[1].ftype,
        FieldType::Pad(9)
    );

    // Corrupt images are rejected.
    assert!(persist::decode(&image[..image.len() - 3]).is_err());
    assert!(persist::decode(b"NOTACATALOG").is_err());
    let mut trailing = image.clone();
    trailing.push(0);
    assert!(persist::decode(&trailing).is_err());
}

#[test]
fn file_backed_save_and_reopen_full_stack() {
    let dir = std::env::temp_dir().join(format!("fieldrep-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (d, e0) = {
        let mut db =
            Database::with_disk(Box::new(FileDisk::open(&dir).unwrap()), DbConfig::default());
        schema(&mut db);
        let o = db
            .insert("Org", vec![Value::Str("Acme".into()), Value::Int(1)])
            .unwrap();
        let d = db
            .insert(
                "Dept",
                vec![Value::Str("Shoe".into()), Value::Int(2), Value::Ref(o)],
            )
            .unwrap();
        let mut e0 = None;
        for i in 0..200 {
            let e = db
                .insert(
                    "Emp1",
                    vec![
                        Value::Str(format!("e{i}")),
                        Value::Int(1000 + i),
                        Value::Ref(d),
                    ],
                )
                .unwrap();
            e0.get_or_insert(e);
        }
        db.create_index("Emp1.salary", IndexKind::Unclustered)
            .unwrap();
        db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
        db.replicate("Emp1.dept.org.name", Strategy::Separate)
            .unwrap();
        db.save().unwrap();
        (d, e0.unwrap())
    };

    // Reopen from the same directory: everything intact and operational.
    let mut db =
        Database::open(Box::new(FileDisk::open(&dir).unwrap()), DbConfig::default()).unwrap();
    assert_eq!(db.set_len("Emp1").unwrap(), 200);
    check_consistency(&mut db);

    // Queries use the reopened index and replicas.
    let res = ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(1000),
            hi: Value::Int(1004),
        })
        .project(["name", "dept.name", "dept.org.name"])
        .run(&mut db)
        .unwrap();
    assert_eq!(res.rows.len(), 5);
    assert_eq!(res.rows[0][1], Some(Value::Str("Shoe".into())));
    assert_eq!(res.rows[0][2], Some(Value::Str("Acme".into())));

    // Mutations keep propagating after reopen.
    db.update(d, &[("name", Value::Str("Footwear".into()))])
        .unwrap();
    check_consistency(&mut db);
    let p = db.catalog().paths().next().unwrap().id;
    assert_eq!(
        db.path_values(e0, p).unwrap(),
        Some(vec![Value::Str("Footwear".into())])
    );

    // Inserts and update queries too.
    db.insert(
        "Emp1",
        vec![Value::Str("new".into()), Value::Int(9999), Value::Ref(d)],
    )
    .unwrap();
    UpdateQuery::on("Dept")
        .assign("budget", Assign::Increment(5))
        .run(&mut db)
        .unwrap();
    check_consistency(&mut db);

    // Save again and reopen once more.
    db.save().unwrap();
    drop(db);
    let mut db =
        Database::open(Box::new(FileDisk::open(&dir).unwrap()), DbConfig::default()).unwrap();
    assert_eq!(db.set_len("Emp1").unwrap(), 201);
    check_consistency(&mut db);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rewrite index file `file` on `disk` in the layout written before the
/// B⁺-tree root was fixed at page 0: page 0 a meta page naming the root
/// (a `u32` at byte 40), the height (`u16` at 44) and the entry count
/// (`u64` at 46), and the root node on a page of its own.
fn to_meta_page_layout(disk: &mut FileDisk, file: FileId, height: u16, count: u64) {
    let mut page = [0u8; PAGE_SIZE];
    disk.read_page(PageId::new(file, 0), &mut page).unwrap();
    let root = disk.allocate_page(file).unwrap();
    disk.write_page(root, &page).unwrap();
    page.fill(0);
    PageMut::new(&mut page).init(PageKind::Meta);
    page[40..44].copy_from_slice(&root.page.to_le_bytes());
    page[44..46].copy_from_slice(&height.to_le_bytes());
    page[46..54].copy_from_slice(&count.to_le_bytes());
    checksum::stamp(&mut page, 0);
    disk.write_page(PageId::new(file, 0), &page).unwrap();
    disk.sync().unwrap();
}

#[test]
fn an_index_in_the_meta_page_layout_is_upgraded_once_at_open() {
    let dir = std::env::temp_dir().join(format!("fieldrep-persist-meta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || Database::open(Box::new(FileDisk::open(&dir).unwrap()), DbConfig::default());
    let index_files =
        |db: &Database| -> Vec<FileId> { db.catalog().indexes().map(|i| i.file).collect() };
    let scans = |db: &Database| -> Vec<Vec<(Vec<u8>, fieldrep_storage::Oid)>> {
        index_files(db)
            .into_iter()
            .map(|f| BTreeIndex::open(f).scan_all(db.sm()).unwrap())
            .collect()
    };
    let (want, shapes, d) = {
        let mut db =
            Database::with_disk(Box::new(FileDisk::open(&dir).unwrap()), DbConfig::default());
        schema(&mut db);
        let o = db
            .insert("Org", vec![Value::Str("Acme".into()), Value::Int(1)])
            .unwrap();
        let depts: Vec<_> = (0..3)
            .map(|i| {
                let vals = vec![Value::Str(format!("d{i}")), Value::Int(i), Value::Ref(o)];
                db.insert("Dept", vals).unwrap()
            })
            .collect();
        for i in 0..2000 {
            let vals = vec![
                Value::Str(format!("e{i}")),
                Value::Int(i * 7 % 2000),
                Value::Ref(depts[i as usize % 3]),
            ];
            db.insert("Emp1", vals).unwrap();
        }
        db.create_index("Emp1.salary", IndexKind::Unclustered)
            .unwrap();
        db.create_index("Dept.budget", IndexKind::Unclustered)
            .unwrap();
        db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
        db.create_index("Emp1.dept.name", IndexKind::Unclustered)
            .unwrap();
        let shapes: Vec<(FileId, u16, u64)> = index_files(&db)
            .into_iter()
            .map(|f| {
                let tree = BTreeIndex::open(f);
                let shape = (
                    tree.height(db.sm()).unwrap(),
                    tree.entry_count(db.sm()).unwrap(),
                );
                (f, shape.0, shape.1)
            })
            .collect();
        assert_eq!(
            shapes.iter().map(|s| s.1).collect::<Vec<_>>(),
            vec![2, 1, 2],
            "leaf roots and internal roots"
        );
        db.save().unwrap();
        (scans(&db), shapes, depts[0])
    };
    let mut disk = FileDisk::open(&dir).unwrap();
    for &(file, height, count) in &shapes {
        to_meta_page_layout(&mut disk, file, height, count);
    }
    drop(disk);

    // The first open rewrites page 0 of each index, and nothing else.
    let mut db = open().unwrap();
    assert_eq!(db.sm().pool().pool_stats().dirty, shapes.len());
    assert_eq!(scans(&db), want, "the same entries, in the same order");
    for &(file, height, count) in &shapes {
        let tree = BTreeIndex::open(file);
        assert_eq!(tree.height(db.sm()).unwrap(), height);
        assert_eq!(tree.entry_count(db.sm()).unwrap(), count);
    }
    let res = ReadQuery::on("Emp1")
        .filter(Filter::Range {
            path: "salary".into(),
            lo: Value::Int(100),
            hi: Value::Int(119),
        })
        .project(["salary", "dept.name"])
        .run(&mut db)
        .unwrap();
    assert_eq!(res.rows.len(), 20);
    check_consistency(&mut db);
    // The upgraded trees take inserts (leaf splits included), deletes and
    // index-maintaining updates.
    for i in 0..400 {
        let vals = vec![
            Value::Str(format!("n{i}")),
            Value::Int(5000 + i),
            Value::Ref(d),
        ];
        db.insert("Emp1", vals).unwrap();
    }
    db.update(d, &[("name", Value::Str("renamed".into()))])
        .unwrap();
    check_consistency(&mut db);
    db.save().unwrap();
    drop(db);

    // The second open finds nothing to upgrade.
    let mut db = open().unwrap();
    assert_eq!(db.sm().pool().pool_stats().dirty, 0);
    assert_eq!(db.set_len("Emp1").unwrap(), 2400);
    let salary = BTreeIndex::open(shapes[0].0);
    let hits = salary
        .range(
            db.sm(),
            &fieldrep_core::value_key(&Value::Int(5000)),
            &fieldrep_core::value_key(&Value::Int(5399)),
        )
        .unwrap();
    assert_eq!(hits.len(), 400);
    check_consistency(&mut db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_without_save_fails_cleanly() {
    let disk = MemDisk::new();
    assert!(Database::open(Box::new(disk), DbConfig::default()).is_err());
}

#[test]
fn save_syncs_deferred_work() {
    let dir = std::env::temp_dir().join(format!("fieldrep-persist-def-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db =
            Database::with_disk(Box::new(FileDisk::open(&dir).unwrap()), DbConfig::default());
        schema(&mut db);
        let o = db
            .insert("Org", vec![Value::Str("O".into()), Value::Int(0)])
            .unwrap();
        let d = db
            .insert(
                "Dept",
                vec![Value::Str("D".into()), Value::Int(0), Value::Ref(o)],
            )
            .unwrap();
        db.insert(
            "Emp1",
            vec![Value::Str("E".into()), Value::Int(0), Value::Ref(d)],
        )
        .unwrap();
        let p = db
            .replicate_with("Emp1.dept.name", Strategy::InPlace, Propagation::Deferred)
            .unwrap();
        db.update(d, &[("name", Value::Str("D2".into()))]).unwrap();
        assert_eq!(db.pending_count(p), 1);
        db.save().unwrap(); // must flush the deferred queue
    }
    let mut db =
        Database::open(Box::new(FileDisk::open(&dir).unwrap()), DbConfig::default()).unwrap();
    let e = db.scan_set("Emp1").unwrap()[0];
    let p = db.catalog().paths().next().unwrap().id;
    assert_eq!(
        db.path_values(e, p).unwrap(),
        Some(vec![Value::Str("D2".into())])
    );
    check_consistency(&mut db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn large_catalog_image_chunks() {
    // A catalog large enough to span multiple record chunks still
    // round-trips.
    let mut db = Database::in_memory(DbConfig::default());
    // Many wide types with long names.
    for t in 0..60 {
        let fields: Vec<(String, FieldType)> = (0..40)
            .map(|i| {
                (
                    format!("field_with_a_rather_long_name_{t}_{i}"),
                    FieldType::Int,
                )
            })
            .collect();
        db.define_type(TypeDef::new(format!("TYPE_{t:04}"), fields))
            .unwrap();
        db.create_set(&format!("Set_{t:04}"), &format!("TYPE_{t:04}"))
            .unwrap();
    }
    let image = persist::encode(db.catalog());
    assert!(
        image.len() > fieldrep_storage::MAX_RECORD_PAYLOAD,
        "image spans chunks ({} bytes)",
        image.len()
    );
    db.save().unwrap();
    // In-memory disks cannot be reopened across processes, but the chunked
    // write/readback path is the same; decode the image directly too.
    let back = persist::decode(&image).unwrap();
    assert_eq!(back.sets().len(), 60);
}
