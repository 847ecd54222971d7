//! The WAL apply section covers *every* engine write path, not just
//! `update_txn`: while one thread holds it, a concurrent `insert` must
//! block rather than interleave its page images into the holder's commit
//! record. And when commit logging fails after a successful apply, the
//! caller gets the distinct [`DbError::CommitNotDurable`] outcome, not a
//! rejected update. A read with nothing pending, on the other hand,
//! enters no writer lock at all.

use fieldrep_catalog::Strategy;
use fieldrep_core::{Database, DbConfig, DbError};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_query::ReadQuery;
use fieldrep_storage::wal::fault::FaultWal;
use fieldrep_storage::{MemDisk, MemWalStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

fn cfg() -> DbConfig {
    DbConfig {
        pool_pages: 256,
        inline_link_threshold: 4,
    }
}

fn mem_db_with_wal(store: Box<dyn fieldrep_storage::WalStore>) -> Database {
    let mut db =
        Database::with_disk_and_wal(Box::new(MemDisk::new()), store, cfg()).expect("fresh db");
    db.define_type(TypeDef::new(
        "EMP",
        vec![("name", FieldType::Str), ("salary", FieldType::Int)],
    ))
    .unwrap();
    db.create_set("Emp1", "EMP").unwrap();
    db
}

#[test]
fn insert_blocks_while_the_apply_section_is_held() {
    let db = Arc::new(mem_db_with_wal(Box::new(MemWalStore::new())));
    let wal = db.sm().wal().expect("wal attached").clone();

    let guard = wal.apply_lock();
    let done = Arc::new(AtomicBool::new(false));
    let t = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let oid = db
                .insert("Emp1", vec![Value::Str("blocked".into()), Value::Int(1)])
                .expect("insert succeeds once the section is free");
            done.store(true, Ordering::SeqCst);
            oid
        })
    };
    // The insert must be parked on the apply section, not finished.
    thread::sleep(Duration::from_millis(100));
    assert!(
        !done.load(Ordering::SeqCst),
        "insert ran while another thread held the WAL apply section"
    );
    drop(guard);
    let oid = t.join().expect("insert thread");
    assert!(done.load(Ordering::SeqCst));
    assert_eq!(
        db.get_field(oid, "name").unwrap(),
        Value::Str("blocked".into())
    );
}

#[test]
fn failed_commit_logging_reports_commit_not_durable() {
    // Every operation commits, so the fault is armed at the log's length
    // after the schema and one insert, measured on a twin run: the next
    // commit record's append is the first to die.
    let store = MemWalStore::new();
    let twin = mem_db_with_wal(Box::new(store.clone()));
    twin.insert("Emp1", vec![Value::Str("alice".into()), Value::Int(10)])
        .unwrap();
    let logged = store.snapshot().len() as u64;
    let db = mem_db_with_wal(Box::new(
        FaultWal::new(MemWalStore::new()).cut_after(logged),
    ));
    let oid = db
        .insert("Emp1", vec![Value::Str("alice".into()), Value::Int(10)])
        .expect("the insert's commit fits under the cut");

    let err = db
        .update_txn(oid, &[("salary", Value::Int(20))])
        .expect_err("commit append hits the armed fault");
    assert!(
        matches!(err, DbError::CommitNotDurable(_)),
        "expected CommitNotDurable, got {err:?}"
    );
    // The update *was* applied: only durability was lost.
    assert_eq!(db.get_field(oid, "salary").unwrap(), Value::Int(20));
}

#[test]
fn a_read_with_nothing_pending_takes_no_writer_lock() {
    let mut db = mem_db_with_wal(Box::new(MemWalStore::new()));
    db.define_type(TypeDef::new(
        "DEPT",
        vec![("name", FieldType::Str), ("budget", FieldType::Int)],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "WORKER",
        vec![
            ("name", FieldType::Str),
            ("dept", FieldType::Ref("DEPT".into())),
        ],
    ))
    .unwrap();
    db.create_set("Dept", "DEPT").unwrap();
    db.create_set("Staff", "WORKER").unwrap();
    let dept = db
        .insert("Dept", vec![Value::Str("toys".into()), Value::Int(7)])
        .unwrap();
    let worker = db
        .insert("Staff", vec![Value::Str("ann".into()), Value::Ref(dept)])
        .unwrap();
    let in_place = db.replicate("Staff.dept.name", Strategy::InPlace).unwrap();
    db.replicate("Staff.dept.budget", Strategy::Separate)
        .unwrap();

    let wal = db.sm().wal().expect("wal attached").clone();
    let section = wal.apply_lock();
    let (tx, rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let rows = ReadQuery::on("Staff")
            .project(["dept.name", "dept.budget"])
            .run(&mut db)
            .expect("retrieve")
            .rows;
        let values = db.path_values(worker, in_place).expect("path_values");
        tx.send((rows, values)).expect("main thread waits");
    });
    // The reader must finish while the section is held. A reader that
    // waits on it fails the test instead of hanging it: the section is
    // dropped before the join, which lets the reader through.
    let got = rx.recv_timeout(Duration::from_secs(10));
    drop(section);
    reader.join().expect("reader thread");
    let (rows, values) = got.expect("a read with nothing pending waited on the apply section");
    assert_eq!(
        rows,
        vec![vec![Some(Value::Str("toys".into())), Some(Value::Int(7))]]
    );
    assert_eq!(values, Some(vec![Value::Str("toys".into())]));
}
