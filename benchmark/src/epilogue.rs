//! The durability epilogue of `txn_ripple`: acknowledged commits must
//! survive a crash that keeps only what was flushed before it.
//!
//! Killing a process leaves the operating system's cache intact, so the
//! harness builds the crash image itself: the checkpointed data files,
//! copied at the checkpoint, plus the log cut at the length recorded
//! when the last commit was acknowledged. Anything later is discarded by
//! the harness, not by luck. (Protocol of
//! `crates/core/tests/crash_recovery.rs`, on the benchmark's schema at a
//! tenth of the scale, over `FileDisk` + `FileWalStore`.)

use crate::client::{Client, Engine};
use crate::ops::OpGen;
use crate::spec::{workload, Workload};
use crate::world::{build, copy_pages, verify, Store, World, WorldSpec, S_COUNT};
use fieldrep_core::{Database, DbConfig};
use fieldrep_storage::{FileDisk, FileWalStore};
use std::path::Path;
use std::time::Instant;

/// Acknowledged commits before the crash, at scale 1. Each costs a real
/// `fsync` (about a millisecond here), and the epilogue runs after every
/// `txn_ripple` window, so there are hundreds, not thousands.
const COMMITS: usize = 500;

/// What the epilogue found.
#[derive(Default, Debug, Clone, Copy)]
pub struct Durability {
    /// Commits acknowledged before the crash.
    pub acknowledged: u64,
    /// Acknowledged writes the recovered database does not show, plus
    /// replicas that differ from their source.
    pub lost: u64,
    /// `Database::save` (the checkpoint), milliseconds.
    pub save_ms: f64,
    /// `open_with_wal` on the crash image, seconds.
    pub recovery_s: f64,
    /// Page images recovery wrote back.
    pub replayed_pages: u64,
    /// Log bytes recovery read.
    pub log_bytes: u64,
}

/// Run the epilogue under `dir`.
pub fn run(dir: &Path, seed: u64, scale: f64) -> Result<Durability, String> {
    let e = |e: fieldrep_core::DbError| format!("durability epilogue: {e}");
    let io = |e: std::io::Error| format!("durability epilogue: {e}");
    let live = dir.join("live");
    let crash = dir.join("crash");
    let s_count = ((S_COUNT as f64 * scale / 10.0) as usize).max(20);
    // A pool that holds the world: nothing is written back during the
    // commits, so the checkpoint copy is what the files hold at the
    // crash and the log alone carries the updates.
    let pool_pages = s_count + 256;
    let mut world = build(
        &WorldSpec {
            s_count,
            pool_pages,
            store: Store::FileWal(live.clone()),
            seed,
        },
        &mut || (),
    )
    .map_err(e)?;

    let wal = world
        .db
        .sm()
        .wal()
        .cloned()
        .ok_or("epilogue world has no log")?;
    let commits = ((COMMITS as f64 * scale) as u64).max(50);
    // `txn_ripple`'s updates, without its reads.
    let updates_only = Workload {
        read_pct: 0,
        ..*workload("txn_ripple").expect("a declared workload")
    };
    let mut stream = OpGen::new(&updates_only, &world.oracle, seed ^ 0xD0_D0, 0);
    let mut commit = |db: &Database, id: u64| {
        let mut client = Client::new(Engine::Txn(db), &world.oracle, world.paths, true);
        if client.run(&stream.next_op(), id, None).ok {
            Ok(())
        } else {
            Err("durability epilogue: a commit was refused".to_string())
        }
    };

    // A tenth as many commits first, so the checkpoint has pages to flush.
    for id in 0..commits / 10 {
        commit(&world.db, id)?;
    }
    let t = Instant::now();
    world.db.save().map_err(e)?;
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    copy_pages(&live, &crash).map_err(io)?;
    world.db.reset_profile();

    let mut acked_len = wal.log_len().map_err(|e| e.to_string())?;
    for id in 0..commits {
        commit(&world.db, id)?;
        // `update_txn` returned: the commit is acknowledged, and the
        // log up to here is what it promised to keep.
        acked_len = wal.log_len().map_err(|e| e.to_string())?;
    }
    if world.db.io_profile().evictions != 0 {
        return Err("durability epilogue: the pool wrote pages back before the crash".into());
    }

    // The crash: checkpoint files + the acknowledged prefix of the log.
    let log = std::fs::read(live.join("wal.log")).map_err(io)?;
    let cut = (acked_len as usize).min(log.len());
    std::fs::write(crash.join("wal.log"), &log[..cut]).map_err(io)?;
    let World {
        db, oracle, paths, ..
    } = world;
    drop(db);

    let t = Instant::now();
    let db = Database::open_with_wal(
        Box::new(FileDisk::open(&crash).map_err(|e| e.to_string())?),
        Box::new(FileWalStore::open(&crash).map_err(|e| e.to_string())?),
        DbConfig {
            pool_pages,
            ..DbConfig::default()
        },
    )
    .map_err(e)?;
    let recovery_s = t.elapsed().as_secs_f64();
    let report = db.sm().recovery_report();

    // Every acknowledged value reads back, and replica == source.
    let lost = verify(&db, &oracle, paths, true);
    Ok(Durability {
        acknowledged: commits,
        lost,
        save_ms,
        recovery_s,
        replayed_pages: report.replayed_pages,
        log_bytes: cut as u64,
    })
}
