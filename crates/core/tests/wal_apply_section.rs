//! The WAL apply section covers *every* engine write path, not just
//! `update_txn`: while one thread holds it, a concurrent `insert` must
//! block rather than interleave its page images into the holder's commit
//! record. And when commit logging fails after a successful apply, the
//! caller gets the distinct [`DbError::CommitNotDurable`] outcome, not a
//! rejected update.

use fieldrep_core::{Database, DbConfig, DbError};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_storage::wal::fault::FaultWal;
use fieldrep_storage::{MemDisk, MemWalStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
