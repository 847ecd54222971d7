//! Kill-and-recover acceptance test for the WAL (ISSUE 9).
//!
//! A seeded multi-path update workload runs over a file-backed database
//! with all three replication strategies live (in-place, separate,
//! collapsed). The buffer pool is sized so **no page is ever written
//! back during the workload** — the WAL is the only durable trace of
//! the updates. The process is then "killed" at ≥100 seeded WAL byte
//! offsets: for each offset we reconstruct the exact crash state (the
//! checkpointed data files plus a prefix of the log), reopen with
//! [`Database::open_with_wal`], and require that
//!
//! * recovery replays exactly the committed prefix (every recovered
//!   field value is one the workload actually wrote, or the initial
//!   value),
//! * every replica equals its source field (the structural checker
//!   walks all three strategies), and
//! * the torn tail is discarded cleanly, never an error.
//!
//! A second case runs the same kind of workload through a pool a
//! fraction of the data's size, so committed pages are written back,
//! fetched again and delta-logged again while it runs; there the crash
//! state is the data files *as copied between two commits* plus the log
//! up to that point and a prefix of the next commit's group, and every
//! acknowledged value must read back exactly.
//!
//! A third case checks that one operation is one commit: large ripples,
//! a `lang` statement and a `replicate` over a small pool, each crashed
//! inside its commit group and at the write-backs that follow it.

mod common;

use common::check_consistency;
use fieldrep_catalog::{Propagation, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_storage::{
    DiskManager, FileDisk, FileWalStore, MemDisk, MemWalStore, Oid, PageId, PAGE_SIZE,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const SEED: u64 = 0xC0FFEE;
const UPDATES: usize = 150;
const KILL_POINTS: usize = 100;

fn cfg() -> DbConfig {
    DbConfig {
        // Large enough that the workload never evicts: the data files
        // stay at their checkpoint image and the WAL alone carries the
        // updates (asserted below).
        pool_pages: 512,
        inline_link_threshold: 4,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fieldrep-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_db(dir: &Path, cfg: DbConfig) -> Database {
    Database::open_with_wal(
        Box::new(FileDisk::open(dir).unwrap()),
        Box::new(FileWalStore::open(dir).unwrap()),
        cfg,
    )
    .unwrap()
}

struct World {
    db: Database,
    orgs: Vec<Oid>,
    depts: Vec<Oid>,
}

/// Figure-1 schema with one replicated path per strategy, loaded into a
/// freshly created `db`. Employee `i` of `emps` works in department
/// `dept_of(i)`.
fn populate(mut db: Database, emps: usize, dept_of: fn(usize) -> usize) -> World {
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
    for i in 0..emps {
        db.insert(
            "Emp1",
            vec![
                Value::Str(format!("emp{i}")),
                Value::Int(i as i64),
                Value::Ref(depts[dept_of(i)]),
            ],
        )
        .unwrap();
    }

    db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
    db.replicate("Emp1.dept.budget", Strategy::Separate)
        .unwrap();
    db.replicate_collapsed("Emp1.dept.org.name", Propagation::Eager)
        .unwrap();
    World { db, orgs, depts }
}

/// [`populate`] over a file-backed database with a log in `dir`, then
/// checkpointed (so the data files are a durable baseline and the log
/// is empty apart from the checkpoint marker).
fn build_world(dir: &Path, cfg: DbConfig, emps: usize, dept_of: fn(usize) -> usize) -> World {
    let db = Database::with_disk_and_wal(
        Box::new(FileDisk::open(dir).unwrap()),
        Box::new(FileWalStore::open(dir).unwrap()),
        cfg,
    )
    .unwrap();
    let mut w = populate(db, emps, dept_of);
    w.db.save().unwrap();
    w
}

/// Copy every `f*.pages` baseline file into `scratch` and install the
/// first `cut` bytes of the captured WAL as its log — the exact disk
/// state a crash at that log offset leaves behind.
fn stage_crash(baseline: &Path, wal: &[u8], cut: usize, scratch: &Path) {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).unwrap();
    for entry in std::fs::read_dir(baseline).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".pages") {
            std::fs::copy(entry.path(), scratch.join(name)).unwrap();
        }
    }
    std::fs::write(scratch.join("wal.log"), &wal[..cut]).unwrap();
}

#[test]
fn kill_at_100_seeded_wal_offsets_recovers_consistently() {
    let live = temp_dir("live");
    let baseline = temp_dir("baseline");
    let w = build_world(&live, cfg(), 64, |i| i % 8);

    // Snapshot the checkpointed data files: with zero evictions during
    // the workload these ARE the on-disk pages at every kill point.
    for entry in std::fs::read_dir(&live).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".pages") {
            std::fs::copy(entry.path(), baseline.join(name)).unwrap();
        }
    }

    // Seeded multi-path workload: updates only, across all three
    // strategies. Track every value written per object so recovered
    // states can be validated as "some committed prefix".
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut dept_names: Vec<Vec<String>> = vec![Vec::new(); w.depts.len()];
    let mut dept_budgets: Vec<Vec<i64>> = vec![Vec::new(); w.depts.len()];
    let mut org_names: Vec<Vec<String>> = vec![Vec::new(); w.orgs.len()];
    w.db.reset_profile();
    for step in 0..UPDATES {
        match rng.gen_range(0..3u32) {
            0 => {
                let i = rng.gen_range(0..w.depts.len());
                let v = format!("d{i}-n{step}");
                w.db.update_txn(w.depts[i], &[("name", Value::Str(v.clone()))])
                    .unwrap();
                dept_names[i].push(v);
            }
            1 => {
                let i = rng.gen_range(0..w.depts.len());
                let v = rng.gen_range(0..1_000_000i64);
                w.db.update_txn(w.depts[i], &[("budget", Value::Int(v))])
                    .unwrap();
                dept_budgets[i].push(v);
            }
            _ => {
                let i = rng.gen_range(0..w.orgs.len());
                let v = format!("o{i}-n{step}");
                w.db.update_txn(w.orgs[i], &[("name", Value::Str(v.clone()))])
                    .unwrap();
                org_names[i].push(v);
            }
        }
    }
    let prof = w.db.io_profile();
    assert_eq!(
        prof.evictions, 0,
        "workload must fit in the pool: the WAL must be the only durable trace"
    );
    let stats = w.db.sm().wal_stats();
    assert_eq!(stats.last_lsn, stats.durable_lsn, "every commit fsynced");
    assert!(
        stats.appends as usize >= UPDATES * 3,
        "Begin+image+Commit each"
    );

    let wal = std::fs::read(live.join("wal.log")).unwrap();
    assert!(wal.len() > PAGE_PROBE, "workload produced a real log");
    let orgs = w.orgs.clone();
    let depts = w.depts.clone();
    drop(w); // the "kill": no save, no flush

    // ≥100 seeded kill offsets, plus the two edges.
    let mut cuts: Vec<usize> = (0..KILL_POINTS - 2)
        .map(|_| rng.gen_range(0..wal.len() + 1))
        .collect();
    cuts.push(0);
    cuts.push(wal.len());

    let scratch = temp_dir("scratch");
    for (k, cut) in cuts.iter().enumerate() {
        stage_crash(&baseline, &wal, *cut, &scratch);
        let mut db = open_db(&scratch, cfg());
        let r = db.sm().recovery_report();
        // The torn tail is at most one partial frame (a page-image
        // frame is 8 bytes of framing + 4119 of payload).
        assert!(
            r.truncated_bytes < 4200,
            "kill point {k}: torn tail {} is larger than one frame",
            r.truncated_bytes
        );

        // Every recovered field is the initial value or one the
        // workload committed — nothing invented, nothing torn.
        for (i, d) in depts.iter().enumerate() {
            let name = db.get_field(*d, "name").unwrap();
            let Value::Str(name) = name else {
                panic!("dept name is a string")
            };
            assert!(
                name == format!("dept{i}") || dept_names[i].contains(&name),
                "kill point {k} (cut {cut}): dept{i} name {name:?} was never written"
            );
            let Value::Int(budget) = db.get_field(*d, "budget").unwrap() else {
                panic!("dept budget is an int")
            };
            assert!(
                budget == 100 * i as i64 || dept_budgets[i].contains(&budget),
                "kill point {k}: dept{i} budget {budget} was never written"
            );
        }
        for (i, o) in orgs.iter().enumerate() {
            let Value::Str(name) = db.get_field(*o, "name").unwrap() else {
                panic!("org name is a string")
            };
            assert!(
                name == format!("org{i}") || org_names[i].contains(&name),
                "kill point {k}: org{i} name {name:?} was never written"
            );
        }

        // The paper's invariant, structurally: every replica equals its
        // source field across all three strategies.
        check_consistency(&mut db);
    }

    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&baseline);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// `wal.len()` is compared against this to make sure the workload
/// actually logged page images (a page image frame alone is >4 KiB).
const PAGE_PROBE: usize = 4096;

#[test]
fn clean_save_then_reopen_replays_nothing() {
    let dir = temp_dir("clean");
    let (depts0, budget0);
    {
        let w = build_world(&dir, cfg(), 64, |i| i % 8);
        depts0 = w.depts.clone();
        let Value::Int(b) = w.db.get_field(depts0[3], "budget").unwrap() else {
            panic!()
        };
        budget0 = b;
        // `build_world` ends in save(): checkpointed, log truncated.
    }
    let mut db = open_db(&dir, cfg());
    let r = db.sm().recovery_report();
    assert_eq!(r.replayed_pages, 0, "clean shutdown leaves nothing to redo");
    assert_eq!(r.committed_txns, 0);
    let Value::Int(b) = db.get_field(depts0[3], "budget").unwrap() else {
        panic!()
    };
    assert_eq!(b, budget0);
    check_consistency(&mut db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fast deterministic smoke for `scripts/check.sh`: one committed
/// update, kill with the full log, reopen, verify the replica ripple
/// survived.
#[test]
fn smoke_single_commit_survives_a_kill() {
    let dir = temp_dir("smoke");
    let w = build_world(&dir, cfg(), 64, |i| i % 8);
    let db = w.db;
    db.update_txn(w.depts[0], &[("name", Value::Str("rebuilt".into()))])
        .unwrap();
    drop(db); // kill: never saved after the update
    let mut db = open_db(&dir, cfg());
    assert!(
        db.sm().recovery_report().replayed_pages > 0,
        "the commit was replayed from the log"
    );
    assert_eq!(
        db.get_field(w.depts[0], "name").unwrap(),
        Value::Str("rebuilt".into())
    );
    check_consistency(&mut db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Attaching a WAL changes page I/O by exactly zero: the log is a
/// separate byte stream and page checksums are stamped in place, so a
/// counted [`MemDisk`] sees the same traffic (reads + writes +
/// allocations, world build and update loop together) with and without
/// one. The pool holds everything, so nothing else moves the count.
#[test]
fn wal_on_and_off_do_identical_page_io() {
    let page_io = |db: Database| {
        db.reset_profile();
        let w = populate(db, 512, |i| i % 8);
        let mut rng = StdRng::seed_from_u64(SEED);
        for step in 0..UPDATES {
            let dept = w.depts[rng.gen_range(0..w.depts.len())];
            let (oid, change) = match rng.gen_range(0..3u32) {
                0 => (dept, ("name", Value::Str(format!("d-{step}")))),
                1 => (dept, ("budget", Value::Int(rng.gen_range(0..1_000_000)))),
                _ => (
                    w.orgs[rng.gen_range(0..w.orgs.len())],
                    ("name", Value::Str(format!("o-{step}"))),
                ),
            };
            w.db.update_txn(oid, &[change]).unwrap();
        }
        let prof = w.db.io_profile();
        assert_eq!(prof.evictions, 0, "the pin must stay eviction-free");
        prof.disk.reads + prof.disk.writes + prof.disk.allocations
    };
    let off = page_io(Database::with_disk(Box::new(MemDisk::new()), cfg()));
    let on = page_io(
        Database::with_disk_and_wal(
            Box::new(MemDisk::new()),
            Box::new(MemWalStore::new()),
            cfg(),
        )
        .unwrap(),
    );
    assert!(off > 0, "the pin must measure something");
    assert_eq!(off, on, "attaching a WAL changed page I/O");
}

/// Employees of the eviction-bearing world, clustered by department so
/// one ripple's write set is a few pages while the file is many.
const CROWD: usize = 2400;

/// What every department and organisation must read: department names
/// and budgets, and organisation names.
#[derive(Clone)]
struct Acked {
    dept_names: Vec<String>,
    dept_budgets: Vec<i64>,
    org_names: Vec<String>,
}

impl Acked {
    /// The values `populate` gave them.
    fn initial(w: &World) -> Acked {
        Acked {
            dept_names: (0..w.depts.len()).map(|i| format!("dept{i}")).collect(),
            dept_budgets: (0..w.depts.len()).map(|i| 100 * i as i64).collect(),
            org_names: (0..w.orgs.len()).map(|i| format!("org{i}")).collect(),
        }
    }

    /// One seeded update through `db` — a department name (`kind` 0), a
    /// department budget (1) or an organisation name (2), drawn from
    /// `kinds` — recorded here once `db` returns (acknowledged) and not
    /// at all if it fails.
    fn update(
        &mut self,
        db: &Database,
        w: &World,
        rng: &mut StdRng,
        kinds: std::ops::Range<u32>,
        step: usize,
    ) -> bool {
        match rng.gen_range(kinds) {
            0 => {
                let i = rng.gen_range(0..w.depts.len());
                let v = format!("d{i}-n{step}");
                let ok = db.update_txn(w.depts[i], &[("name", Value::Str(v.clone()))]);
                ok.map(|()| self.dept_names[i] = v).is_ok()
            }
            1 => {
                let i = rng.gen_range(0..w.depts.len());
                let v = rng.gen_range(0..1_000_000i64);
                let ok = db.update_txn(w.depts[i], &[("budget", Value::Int(v))]);
                ok.map(|()| self.dept_budgets[i] = v).is_ok()
            }
            _ => {
                let i = rng.gen_range(0..w.orgs.len());
                let v = format!("o{i}-n{step}");
                let ok = db.update_txn(w.orgs[i], &[("name", Value::Str(v.clone()))]);
                ok.map(|()| self.org_names[i] = v).is_ok()
            }
        }
    }

    /// `db` reads exactly these values, and every replica equals its
    /// source.
    fn check(&self, db: &mut Database, w: &World, at: &str) {
        for (i, d) in w.depts.iter().enumerate() {
            assert_eq!(
                db.get_field(*d, "name").unwrap(),
                Value::Str(self.dept_names[i].clone()),
                "{at}: dept{i} name"
            );
            assert_eq!(
                db.get_field(*d, "budget").unwrap(),
                Value::Int(self.dept_budgets[i]),
                "{at}: dept{i} budget"
            );
        }
        for (i, o) in w.orgs.iter().enumerate() {
            assert_eq!(
                db.get_field(*o, "name").unwrap(),
                Value::Str(self.org_names[i].clone()),
                "{at}: org{i} name"
            );
        }
        check_consistency(db);
    }
}

/// The eviction-bearing case (see the module docs): a pool a fraction
/// of the data, so between crash points committed pages are written
/// back, fetched again and logged again as deltas against what the
/// page header says was logged before.
#[test]
fn kill_between_commits_with_a_small_pool_recovers_every_acknowledged_value() {
    use fieldrep_storage::wal::{record, WalRecord};
    const STEPS: usize = 120;
    const CRASH_EVERY: usize = 5;
    let small = || DbConfig {
        pool_pages: 40,
        inline_link_threshold: 4,
    };
    let live = temp_dir("evict-live");
    let scratch = temp_dir("evict-scratch");
    let checkpoint = temp_dir("evict-checkpoint");
    // Built (bulk replication pins whole files under no-steal) and
    // checkpointed through a roomy pool, then reopened through the
    // small one.
    let mut w = build_world(&live, cfg(), CROWD, |i| i * 8 / CROWD);
    stage_crash(&live, &[], 0, &checkpoint);
    w.db = open_db(&live, small());
    let wal = w.db.sm().wal().unwrap().clone();

    // What every object must read after the commits so far.
    let mut now = Acked::initial(&w);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xE71C);
    let mut crashes = 0;
    w.db.reset_profile();
    for step in 0..STEPS {
        let crash_here = step % CRASH_EVERY == CRASH_EVERY - 1;
        let acked = now.clone();
        let len_before = wal.log_len().unwrap() as usize;
        if crash_here {
            // The data files as a kill right now would leave them.
            stage_crash(&live, &[], 0, &scratch);
        }
        assert!(now.update(&w.db, &w, &mut rng, 0..3, step), "step {step}");
        if !crash_here {
            continue;
        }
        // Killed while this commit's group was being appended: nothing
        // of it has reached the data files (no-steal), the log holds
        // everything before it and some prefix of it.
        let log = std::fs::read(live.join("wal.log")).unwrap();
        let group = log.len() - len_before;
        for cut in [0, rng.gen_range(1..group), group] {
            std::fs::write(scratch.join("wal.log"), &log[..len_before + cut]).unwrap();
            let mut db = open_db(&scratch, small());
            let want = if cut == group { &now } else { &acked };
            want.check(&mut db, &w, &format!("step {step} cut {cut}/{group}"));
            crashes += 1;
        }
    }
    assert_eq!(crashes, 3 * STEPS / CRASH_EVERY);

    // The case is only worth its name if the pool really did steal.
    let prof = w.db.io_profile();
    assert!(
        prof.evictions > 100 && prof.pool_misses > 100,
        "workload must write pages back and fetch them again: {prof:?}"
    );
    // A page with a base is logged as a delta, unless the write was
    // wide; and a page's first write-back in the epoch logs its image.
    // Replaying the log page by page onto the checkpoint's data files,
    // an image either equals the page's last logged state (a write-back
    // image: the pages written back were all logged) or differs from it
    // in at least 16 of its 64 lines (a delta holds up to 31; a
    // compaction, or a grown record's slide, moves about half a page).
    // A page logged as an image after a narrow change lost its base.
    let mut base = FileDisk::open(&checkpoint).unwrap();
    let log = std::fs::read(live.join("wal.log")).unwrap();
    let mut logged: HashMap<PageId, Box<[u8; PAGE_SIZE]>> = HashMap::new();
    let (mut deltas, mut write_back_images, mut narrowest) = (0, 0, 64);
    for e in record::scan(&log).entries {
        match e.rec {
            WalRecord::PageImage { page, image, .. } => {
                if let Some(was) = logged.get(&page) {
                    // The LSN and CRC a write-back stamps aside.
                    let body = |p: &[u8; PAGE_SIZE]| [&p[..16], &p[28..]].concat();
                    let (was, now) = (body(was), body(&image));
                    match was
                        .chunks(64)
                        .zip(now.chunks(64))
                        .filter(|(a, b)| a != b)
                        .count()
                    {
                        0 => write_back_images += 1,
                        n => narrowest = narrowest.min(n),
                    }
                }
                logged.insert(page, image);
            }
            WalRecord::PageDelta { page, ranges, .. } => {
                let was = logged.entry(page).or_insert_with(|| {
                    let mut buf = Box::new([0u8; PAGE_SIZE]);
                    base.read_page(page, &mut buf).unwrap();
                    buf
                });
                record::apply_delta(was, &ranges);
                deltas += 1;
            }
            _ => {}
        }
    }
    assert!(
        deltas > 100 && write_back_images > 0 && narrowest >= 16,
        "pages with a base are logged as deltas: {deltas} deltas, \
         {write_back_images} write-back images, and a page imaged again \
         after a {narrowest}-line change"
    );

    drop(w);
    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir_all(&checkpoint);
}

/// A torn write-back is repaired by recovery. Over a file log, a fault
/// disk tears one page write half-way, and the process dies there: in
/// a pool a fraction of the data, the write is an eviction; in a pool
/// that holds it, a page of the checkpoint's flush. The workload updates
/// department budgets, a separate replica, so the pages written back
/// (the departments' and the replicas') were logged as narrow deltas on
/// their disk copies, which the tear destroys. Recovery must bring back
/// every acknowledged value with every replica equal to its source —
/// which is why a page's first write-back in a log epoch logs its image.
#[test]
fn a_torn_write_back_is_repaired_by_recovery() {
    use fieldrep_storage::{FaultDisk, FaultPlan};
    const STEPS: usize = 20;
    let built = temp_dir("torn-built");
    let live = temp_dir("torn-live");
    let w = build_world(&built, cfg(), CROWD, |i| i * 8 / CROWD);
    let emps = w.db.scan_set("Emp1").unwrap();
    let marker = std::fs::read(built.join("wal.log")).unwrap();
    // (pool pages, the page write that tears): evictions, then the flush.
    for (pool_pages, tear) in [(40, 1), (40, 2), (40, 7), (512, 2), (512, 3)] {
        let at = format!("{pool_pages}-page pool, write {tear} torn");
        stage_crash(&built, &marker, marker.len(), &live);
        let disk = FaultDisk::new(
            FileDisk::open(&live).unwrap(),
            FaultPlan {
                torn_write_at: Some(tear),
                ..FaultPlan::default()
            },
        );
        let cfg = DbConfig {
            pool_pages,
            inline_link_threshold: 4,
        };
        let mut db = Database::open_with_wal(
            Box::new(disk),
            Box::new(FileWalStore::open(&live).unwrap()),
            cfg.clone(),
        )
        .unwrap();
        let mut acked = Acked::initial(&w);
        let mut rng = StdRng::seed_from_u64(SEED ^ tear);
        // Each update, then reads over every employee page.
        let torn = (0..STEPS).any(|step| {
            !acked.update(&db, &w, &mut rng, 1..2, step)
                || emps.iter().step_by(10).any(|&e| db.get(e).is_err())
        });
        match pool_pages {
            40 => assert!(torn, "{at}: no eviction tore"),
            _ => {
                assert!(!torn, "{at}: the workload fits the pool");
                assert!(db.save().is_err(), "{at}: the checkpoint tore");
            }
        }
        drop(db); // the crash: no save, no flush
        let mut db = open_db(&live, cfg);
        assert!(db.sm().recovery_report().replayed_pages > 0, "{at}");
        acked.check(&mut db, &w, &at);
    }
    drop(w);
    let _ = std::fs::remove_dir_all(&built);
    let _ = std::fs::remove_dir_all(&live);
}

/// Employees of the one-commit case, 750 to a department: the shape of
/// the probe that found updates torn across page-by-page log records.
const PROBE: usize = 6000;

/// Write-backs after each operation at which a crash is staged.
const CUTS_PER_OP: usize = 3;

/// One operation is one commit, at every crash cut. The world is read
/// back through a 64-page pool, and three operations run on it: a
/// `Database::update` renaming a department (750 sources rewritten), a
/// `replace` statement doing the same through `lang`, and a `replicate`.
/// Right after each, the data files are copied and recovered with the
/// log cut before, inside and after the operation's commit group; then
/// reads churn the pool, and at each of the next write-backs the files
/// and the whole log are copied and recovered. Every copy must come back
/// as of an operation boundary — the one before a cut commit group, the
/// acknowledged one otherwise — with every replica equal to its source.
#[test]
fn one_operation_is_one_commit_at_every_crash_cut() {
    let live = temp_dir("probe-live");
    let scratch = temp_dir("probe-scratch");
    let small = || DbConfig {
        pool_pages: 64,
        inline_link_threshold: 4,
    };
    let w = build_world(&live, cfg(), PROBE, |i| i * 8 / PROBE);
    let depts = w.depts.clone();
    let mut it = fieldrep_lang::Interpreter::with_db(open_db(&live, small()));
    let emps = it.db.scan_set("Emp1").unwrap();
    drop(w);

    // The database as of an operation boundary: department names and
    // how many paths are replicated.
    let mut names: Vec<String> = (0..depts.len()).map(|i| format!("dept{i}")).collect();
    let mut paths = it.db.catalog().paths().count();
    let recovers_to = |at: &str, names: &[String], paths: usize| {
        let mut db = open_db(&scratch, small());
        for (i, d) in depts.iter().enumerate() {
            let name = db.get_field(*d, "name").unwrap();
            assert_eq!(name, Value::Str(names[i].clone()), "{at}: dept{i}");
        }
        assert_eq!(db.catalog().paths().count(), paths, "{at}: paths");
        check_consistency(&mut db);
    };

    for op in 0..3 {
        let acked = (names.clone(), paths);
        let len_before = std::fs::metadata(live.join("wal.log")).unwrap().len() as usize;
        match op {
            0 => {
                names[0] = "torn".into();
                it.db
                    .update(depts[0], &[("name", Value::Str(names[0].clone()))])
                    .unwrap();
            }
            1 => {
                names[1] = "shorn".into();
                it.execute(r#"replace (Dept.name = "shorn") where Dept.name = "dept1""#)
                    .unwrap();
            }
            _ => {
                it.db.replicate("Dept.org.name", Strategy::InPlace).unwrap();
                paths += 1;
            }
        }
        // No page of the operation has reached the data files yet.
        stage_crash(&live, &[], 0, &scratch);
        let log = std::fs::read(live.join("wal.log")).unwrap();
        let group = log.len() - len_before;
        assert!(group > 0, "op {op} logged nothing");
        for cut in [0, group / 2, group] {
            std::fs::write(scratch.join("wal.log"), &log[..len_before + cut]).unwrap();
            let at = format!("op {op}, log cut {cut}/{group}");
            match cut == group {
                true => recovers_to(&at, &names, paths),
                false => recovers_to(&at, &acked.0, acked.1),
            }
        }
        // Reads until the pool writes committed pages back.
        let mut cuts = 0;
        for &emp in emps.iter().rev() {
            if cuts == CUTS_PER_OP {
                break;
            }
            let writes = it.db.io_profile().evictions;
            it.db.get(emp).unwrap();
            if it.db.io_profile().evictions > writes {
                stage_crash(&live, &[], 0, &scratch);
                std::fs::copy(live.join("wal.log"), scratch.join("wal.log")).unwrap();
                recovers_to(&format!("op {op}, write-back {cuts}"), &names, paths);
                cuts += 1;
            }
        }
        assert_eq!(cuts, CUTS_PER_OP, "op {op}: the reads wrote nothing back");
    }
    drop(it);
    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&scratch);
}
