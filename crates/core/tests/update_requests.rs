//! A write requests each page it touches once, and so does the listing of
//! a file (forwarded records included). The plan of an update,
//! insert or delete reads through a bounded set of page pins, and the
//! apply takes its pages from the same set, so on a cold pool every pool
//! request of the operation is a miss: no hits, and the misses are the
//! distinct pages it touched (each read from disk once, none evicted).
//!
//! The world is the benchmark's shape, small: `R.sref → S` with an
//! in-place path and a separate path on the one link, populated before
//! it is replicated, so that some R and S records are forwarded. S is
//! indexed on `field_s`, which no update writes; an insert or delete of
//! an S maintains the index, and asks for each index page once too.

mod common;

use common::check_consistency;
use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_lang::Interpreter;
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_storage::{
    DiskManager, FileId, IoStats, MemDisk, Oid, PageId, PageView, RecordFlags, Result, PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

const N_S: usize = 60;
const F: usize = 10;

/// The world at `pool_pages` frames: `N_S` S objects, each referenced by
/// exactly `F` R objects from shuffled positions, then both paths
/// replicated. Returns the database, S's and R's OIDs.
fn world(pool_pages: usize) -> (Database, Vec<Oid>, Vec<Oid>) {
    world_over(Box::new(MemDisk::new()), pool_pages)
}

/// [`world`] over `disk`.
fn world_over(disk: Box<dyn DiskManager>, pool_pages: usize) -> (Database, Vec<Oid>, Vec<Oid>) {
    let mut db = Database::with_disk(
        disk,
        DbConfig {
            pool_pages,
            ..DbConfig::default()
        },
    );
    db.define_type(TypeDef::new(
        "STYPE",
        vec![
            ("field_s", FieldType::Int),
            ("rep_none", FieldType::Str),
            ("rep_ip", FieldType::Str),
            ("rep_sep", FieldType::Str),
            ("pad", FieldType::Pad(131)),
        ],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "RTYPE",
        vec![
            ("sref", FieldType::Ref("STYPE".into())),
            ("field_r", FieldType::Int),
            ("pad", FieldType::Pad(83)),
        ],
    ))
    .unwrap();
    db.create_set("S", "STYPE").unwrap();
    db.create_set("R", "RTYPE").unwrap();
    let text = |i: usize, tag: char| Value::Str(format!("{i:05}{tag}{:012}", 0));
    let s: Vec<Oid> = (0..N_S)
        .map(|i| {
            let values = vec![
                Value::Int(i as i64),
                text(i, 'n'),
                text(i, 'i'),
                text(i, 's'),
                Value::Unit,
            ];
            db.insert("S", values).unwrap()
        })
        .collect();
    let mut assign: Vec<usize> = (0..N_S * F).map(|i| i % N_S).collect();
    assign.shuffle(&mut StdRng::seed_from_u64(37));
    let r: Vec<Oid> = assign
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let values = vec![Value::Ref(s[t]), Value::Int(i as i64), Value::Unit];
            db.insert("R", values).unwrap()
        })
        .collect();
    // The statement door finds its object through this index; no update
    // below writes `field_s`.
    db.create_index("S.field_s", IndexKind::Unclustered)
        .unwrap();
    db.replicate("R.sref.rep_ip", Strategy::InPlace).unwrap();
    db.replicate("R.sref.rep_sep", Strategy::Separate).unwrap();
    (db, s, r)
}

fn is_forwarded(db: &Database, oid: Oid) -> bool {
    let page = db.sm().pool().fetch(oid.page_id()).unwrap();
    let data = page.data();
    let (hdr, _) = PageView::new(&data[..]).record(oid.slot).unwrap();
    hdr.flags == RecordFlags::Forward
}

/// Empty the pool and zero its counters.
fn go_cold(db: &Database) {
    db.flush_all().unwrap();
    db.reset_profile();
}

/// What ran since [`go_cold`] requested each page it touched once.
fn assert_each_page_once(db: &Database, what: &str) {
    let io = db.io_profile();
    assert_eq!(io.evictions, 0, "{what}: the pool holds the world");
    assert!(io.pool_misses > 0, "{what}: touched nothing");
    assert_eq!(
        io.pool_hits, 0,
        "{what}: a page was requested again ({} misses)",
        io.pool_misses
    );
    assert_eq!(io.disk.reads, io.pool_misses, "{what}: each miss one read");
}

/// Run `op` on a cold pool; it must request each page it touches once.
fn once_per_page<T>(db: &Database, what: &str, op: impl FnOnce(&Database) -> T) -> T {
    go_cold(db);
    let out = op(db);
    assert_each_page_once(db, what);
    out
}

/// Objects of `all` at stride 7, some forwarded and some not.
fn some(db: &Database, all: &[Oid]) -> Vec<Oid> {
    let picked: Vec<Oid> = all.iter().copied().step_by(7).collect();
    let forwarded = picked.iter().filter(|o| is_forwarded(db, **o)).count();
    assert!(
        forwarded > 0 && forwarded < picked.len(),
        "{forwarded} of {} forwarded",
        picked.len()
    );
    picked
}

#[test]
fn every_update_kind_requests_each_page_once_on_a_cold_pool() {
    let (mut db, s, r) = world(512);
    let (s_some, r_some) = (some(&db, &s), some(&db, &r));
    for (n, &o) in s_some.iter().enumerate() {
        // Same-length strings: each update costs what it touches.
        for field in ["rep_none", "rep_ip", "rep_sep"] {
            let value = Value::Str(format!("{n:05}{field:>13}"));
            once_per_page(&db, field, |db| db.update(o, &[(field, value)]).unwrap());
        }
    }
    for (n, &o) in r_some.iter().enumerate() {
        let to = Value::Ref(s[(n * 13 + 5) % N_S]);
        once_per_page(&db, "re-point", |db| {
            db.update_txn(o, &[("sref", to)]).unwrap();
        });
    }
    check_consistency(&mut db);
}

#[test]
fn a_statement_replace_reads_its_object_once() {
    let (db, _, _) = world(512);
    let mut interp = Interpreter::with_db(db);
    for (n, i) in (0..N_S).step_by(7).enumerate() {
        for field in ["rep_none", "rep_ip", "rep_sep"] {
            let value = format!("{n:05}{field:>13}");
            let stmt = format!("replace (S.{field} = \"{value}\") where S.field_s = {i}");
            go_cold(&interp.db);
            interp.execute(&stmt).unwrap();
            assert_each_page_once(&interp.db, &stmt);
        }
    }
    check_consistency(&mut interp.db);
}

#[test]
fn an_insert_and_a_delete_request_each_page_once() {
    let (mut db, s, _) = world(512);
    for n in 0..6 {
        let values = vec![
            Value::Ref(s[(n * 11) % N_S]),
            Value::Int(100_000 + n as i64),
            Value::Unit,
        ];
        let oid = once_per_page(&db, "insert", |db| db.insert("R", values).unwrap());
        once_per_page(&db, "delete", |db| db.delete(oid).unwrap());
    }
    check_consistency(&mut db);
}

/// A [`MemDisk`] that records every page it reads.
struct ReadLog {
    disk: MemDisk,
    reads: Arc<Mutex<Vec<PageId>>>,
}

impl DiskManager for ReadLog {
    fn create_file(&mut self) -> Result<FileId> {
        self.disk.create_file()
    }
    fn drop_file(&mut self, file: FileId) -> Result<()> {
        self.disk.drop_file(file)
    }
    fn allocate_page(&mut self, file: FileId) -> Result<PageId> {
        self.disk.allocate_page(file)
    }
    fn page_count(&self, file: FileId) -> Result<u32> {
        self.disk.page_count(file)
    }
    fn read_pages(&mut self, first: PageId, bufs: &mut [&mut [u8; PAGE_SIZE]]) -> Result<()> {
        let run = (first.page..).take(bufs.len());
        let mut reads = self.reads.lock().unwrap();
        reads.extend(run.map(|page| PageId::new(first.file, page)));
        self.disk.read_pages(first, bufs)
    }
    fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        self.disk.write_page(pid, buf)
    }
    fn sync(&mut self) -> Result<()> {
        self.disk.sync()
    }
    fn stats(&self) -> IoStats {
        self.disk.stats()
    }
    fn reset_stats(&mut self) {
        self.disk.reset_stats();
    }
}

#[test]
fn index_maintenance_requests_each_index_page_once() {
    let reads = Arc::new(Mutex::new(Vec::new()));
    let disk = ReadLog {
        disk: MemDisk::new(),
        reads: Arc::clone(&reads),
    };
    let (mut db, _, _) = world_over(Box::new(disk), 512);
    let s_set = db.catalog().set_id("S").unwrap();
    let index = db.catalog().indexes_on(s_set).next().unwrap().file;
    let height = fieldrep_btree::BTreeIndex::open(index)
        .height(db.sm())
        .unwrap();
    // On a cold pool each request is one read, so the index's share of
    // the reads is its share of the requests.
    let index_share = || {
        let mut reads = reads.lock().unwrap();
        let n = reads.iter().filter(|p| p.file == index).count();
        reads.clear();
        n
    };
    for n in 0..6 {
        let values = vec![
            Value::Int(1_000 + n),
            Value::Str(format!("{n:05}n")),
            Value::Str(format!("{n:05}i")),
            Value::Str(format!("{n:05}s")),
            Value::Unit,
        ];
        index_share();
        let oid = once_per_page(&db, "insert", |db| db.insert("S", values).unwrap());
        assert_eq!(index_share(), usize::from(height), "insert {n}");
        index_share();
        once_per_page(&db, "delete", |db| db.delete(oid).unwrap());
        assert_eq!(index_share(), usize::from(height), "delete {n}");
    }
    check_consistency(&mut db);
}

#[test]
fn a_listing_requests_each_page_of_the_file_once() {
    let (db, s, r) = world(512);
    for (set, all) in [("S", s), ("R", r)] {
        some(&db, &all); // forwarded records among them
        let file = db.catalog().set(db.catalog().set_id(set).unwrap()).file;
        let pages = u64::from(db.sm().page_count(file).unwrap());
        let listed = once_per_page(&db, set, |db| db.file_oids(file).unwrap());
        assert_eq!(db.io_profile().pool_misses, pages, "{set}");
        let mut want = all;
        want.sort_unstable();
        assert_eq!(listed, want, "{set}: every member once, in physical order");
    }
}

#[test]
fn at_sixteen_frames_the_pins_reach_their_cap_and_every_kind_completes() {
    // Two pins kept (16 / 8); the pool holds a fraction of the world, so
    // requests past the cap are made, evictions happen, and every
    // replica still reads what its source reaches.
    let (db, s, r) = world(16);
    for (n, &o) in s.iter().enumerate().step_by(5) {
        for field in ["rep_none", "rep_ip", "rep_sep"] {
            let value = Value::Str(format!("{n:05}{field:>13}"));
            db.update(o, &[(field, value)]).unwrap();
        }
    }
    for (n, &o) in r.iter().enumerate().step_by(23) {
        db.update(o, &[("sref", Value::Ref(s[(n * 7) % N_S]))])
            .unwrap();
    }
    let oid = db
        .insert("R", vec![Value::Ref(s[3]), Value::Int(-1), Value::Unit])
        .unwrap();
    db.delete(oid).unwrap();
    let mut interp = Interpreter::with_db(db);
    interp
        .execute("replace (S.rep_ip = \"a-longer-value-than-before\") where S.field_s = 3")
        .unwrap();
    check_consistency(&mut interp.db);
}
