//! The one world every workload runs on, and the oracle that mirrors it.
//!
//! The paper's section-6 schema in a single database:
//!
//! ```text
//! define type STYPE ( field_s: int, rep_ip, rep_sep, rep_none: char[18], pad )   // 200 B
//! define type RTYPE ( sref: ref STYPE, field_r: int, pad )                        // 100 B
//! build btree on R.field_r; build btree on S.field_s        (both unclustered)
//! replicate R.sref.rep_ip                 (in-place)
//! replicate R.sref.rep_sep using separate
//! -- R.sref.rep_none stays a functional join
//! ```
//!
//! All three strategies therefore share one buffer pool and one run; an
//! operation names its strategy by the field it reads or writes.

use fieldrep_catalog::{IndexKind, PathId, Strategy};
use fieldrep_core::{Database, DbConfig, DbError};
use fieldrep_model::{FieldType, TypeDef, Value};
use fieldrep_storage::{
    remove_db_dir, DiskManager, FileDisk, FileId, FileWalStore, IoStats, MemDisk, MemWalStore, Oid,
    PageId, Result as SResult, PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// `|S|` at scale 1.
pub const S_COUNT: usize = 5_000;
/// Sharing level `f`: `|R| = f * |S|`, every `S` referenced by exactly
/// `f` members of `R` after the build.
pub const SHARING: usize = 10;
/// Pages the world occupies at scale 1 after the build (data, indexes,
/// link objects, `S'`). Pool sizes are stated as fractions of this; the
/// measured figure is reported as `bench.data_pages` so drift shows.
pub const DATA_PAGES_AT_SCALE_1: usize = 2_925;

/// The three replicated-or-not string fields of `S`, in field order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rep {
    /// `rep_none`: no replication, read by functional join.
    None = 0,
    /// `rep_ip`: replicated in place.
    Inplace = 1,
    /// `rep_sep`: replicated in the separate file `S'`.
    Separate = 2,
}

impl Rep {
    /// Field name in `STYPE`.
    pub fn field(self) -> &'static str {
        match self {
            Rep::None => "rep_none",
            Rep::Inplace => "rep_ip",
            Rep::Separate => "rep_sep",
        }
    }

    fn tag(self) -> char {
        match self {
            Rep::None => 'n',
            Rep::Inplace => 'i',
            Rep::Separate => 's',
        }
    }
}

/// The 18-character value of field `rep` of `S[s]` at `version`:
/// the value names its own object, so a reader can be checked without
/// knowing which `S` the row's `R` pointed at when it was read.
pub fn rep_value(s: u32, rep: Rep, version: u32) -> String {
    format!("{s:05}{}{version:012}", rep.tag())
}

/// Inverse of [`rep_value`]: `(s, version)` if `text` is a well-formed
/// value of field `rep`.
pub fn parse_rep_value(text: &str, rep: Rep) -> Option<(u32, u32)> {
    let b = text.as_bytes();
    if b.len() != 18 || b[5] != rep.tag() as u8 {
        return None;
    }
    Some((text[..5].parse().ok()?, text[6..].parse().ok()?))
}

/// Where the pages and the log live.
#[derive(Clone, Debug)]
pub enum Store {
    /// `MemDisk`, no log.
    Mem,
    /// `MemDisk` + `MemWalStore`.
    MemWal,
    /// `FileDisk` in the directory, no log.
    File(PathBuf),
    /// `FileDisk` + `FileWalStore` in the directory.
    FileWal(PathBuf),
}

/// A `MemDisk` the harness keeps a second handle to, so that a world
/// can be built through one `Database` and served through another —
/// the in-memory counterpart of closing and re-opening a directory.
#[derive(Clone, Default)]
pub struct SharedMemDisk(Arc<Mutex<MemDisk>>);

impl SharedMemDisk {
    fn with<T>(&self, f: impl FnOnce(&mut MemDisk) -> T) -> T {
        f(&mut self.0.lock().expect("a disk call panicked"))
    }
}

impl DiskManager for SharedMemDisk {
    fn create_file(&mut self) -> SResult<FileId> {
        self.with(MemDisk::create_file)
    }
    fn drop_file(&mut self, file: FileId) -> SResult<()> {
        self.with(|d| d.drop_file(file))
    }
    fn allocate_page(&mut self, file: FileId) -> SResult<PageId> {
        self.with(|d| d.allocate_page(file))
    }
    fn page_count(&self, file: FileId) -> SResult<u32> {
        self.with(|d| d.page_count(file))
    }
    fn read_page(&mut self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> SResult<()> {
        self.with(|d| d.read_page(pid, buf))
    }
    fn read_pages(&mut self, first: PageId, bufs: &mut [&mut [u8; PAGE_SIZE]]) -> SResult<()> {
        self.with(|d| d.read_pages(first, bufs))
    }
    fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> SResult<()> {
        self.with(|d| d.write_page(pid, buf))
    }
    fn sync(&mut self) -> SResult<()> {
        self.with(MemDisk::sync)
    }
    fn stats(&self) -> IoStats {
        self.with(|d| d.stats())
    }
    fn reset_stats(&mut self) {
        self.with(MemDisk::reset_stats);
    }
}

impl Store {
    /// A fresh disk of this kind for a side pool: file stores get `sub`
    /// under their directory.
    pub fn side_disk(&self, sub: &str) -> Result<Box<dyn DiskManager>, DbError> {
        Ok(match self {
            Store::Mem | Store::MemWal => Box::new(MemDisk::new()),
            Store::File(d) | Store::FileWal(d) => Box::new(FileDisk::open(d.join(sub))?),
        })
    }

    /// Whether a write-ahead log is attached.
    pub fn has_wal(&self) -> bool {
        matches!(self, Store::MemWal | Store::FileWal(_))
    }
}

/// How to build a world.
#[derive(Clone, Debug)]
pub struct WorldSpec {
    /// `|S|`.
    pub s_count: usize,
    /// Buffer-pool frames.
    pub pool_pages: usize,
    /// Backing store.
    pub store: Store,
    /// Seed of the unclustered shuffles.
    pub seed: u64,
}

/// The two replication paths of the world.
#[derive(Clone, Copy, Debug)]
pub struct Paths {
    /// `R.sref.rep_ip`.
    pub inplace: PathId,
    /// `R.sref.rep_sep`.
    pub separate: PathId,
}

impl Paths {
    /// The path that replicates `rep` (`None` for `rep_none`).
    pub fn of(&self, rep: Rep) -> Option<PathId> {
        match rep {
            Rep::None => None,
            Rep::Inplace => Some(self.inplace),
            Rep::Separate => Some(self.separate),
        }
    }
}

/// The built database plus the harness's mirror of it.
pub struct World {
    /// The engine.
    pub db: Database,
    /// The mirror the engine's answers are checked against.
    pub oracle: Oracle,
    /// The replication paths.
    pub paths: Paths,
    /// Pages allocated over all files after the build.
    pub data_pages: u64,
    /// Bytes allocated per encoded byte of the `R` and `S` objects
    /// without hidden fields.
    pub space_amp: f64,
}

/// The harness's mirror: which object holds which key, which `S` each
/// `R` references, and the latest version issued for every field.
///
/// Atomics so that the two clients of `txn_mixed_t2` share one mirror;
/// a single client sees them as plain cells.
pub struct Oracle {
    /// OID of `S[i]`.
    pub s_oids: Vec<Oid>,
    /// OID of `R[i]`.
    pub r_oids: Vec<Oid>,
    /// `field_s` of `S[i]`.
    pub s_keys: Vec<i64>,
    /// `S` index holding `field_s = key`.
    pub s_by_key: Vec<u32>,
    /// `R` index holding `field_r = key`.
    pub r_by_key: Vec<u32>,
    /// `S` index that `R[i].sref` points at.
    pub assign: Vec<AtomicU32>,
    /// Latest version issued for `S[i]`, indexed by `Rep as usize`.
    pub versions: [Vec<AtomicU32>; 3],
}

impl Oracle {
    /// `|S|`.
    pub fn s_count(&self) -> usize {
        self.s_oids.len()
    }

    /// `|R|`.
    pub fn r_count(&self) -> usize {
        self.r_oids.len()
    }

    /// Issue the next version of `S[s].rep` and return it. Versions of
    /// one field are unique even when both clients write the same
    /// object.
    pub fn next_version(&self, s: u32, rep: Rep) -> u32 {
        self.versions[rep as usize][s as usize].fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Latest version issued for `S[s].rep`.
    pub fn version(&self, s: u32, rep: Rep) -> u32 {
        self.versions[rep as usize][s as usize].load(Ordering::Acquire)
    }

    /// The `S` that `R[r]` references.
    pub fn target(&self, r: u32) -> u32 {
        self.assign[r as usize].load(Ordering::Acquire)
    }

    /// Record a re-point of `R[r]` to `S[s]`.
    pub fn repoint(&self, r: u32, s: u32) {
        self.assign[r as usize].store(s, Ordering::Release);
    }
}

/// The two handles a store gives out: one to build through, one to
/// serve through.
enum Disk {
    Mem(SharedMemDisk),
    Dir(PathBuf),
}

impl Disk {
    fn fresh(store: &Store) -> Result<Disk, DbError> {
        Ok(match store {
            Store::Mem | Store::MemWal => Disk::Mem(SharedMemDisk::default()),
            Store::File(dir) | Store::FileWal(dir) => {
                remove_db_dir(dir)?;
                Disk::Dir(dir.clone())
            }
        })
    }

    fn handle(&self) -> Result<Box<dyn DiskManager>, DbError> {
        Ok(match self {
            Disk::Mem(d) => Box::new(d.clone()),
            Disk::Dir(dir) => Box::new(FileDisk::open(dir)?),
        })
    }
}

/// Build the world — populate, index, replicate, checkpoint — through a
/// pool that holds all of it and no log, then open it again the way the
/// workload serves it: the workload's pool size, its log attached, and
/// the pool loaded from page 0 of every file (so a pool at least as
/// large as the data starts with every page resident).
///
/// Loading through one `Database` and serving through another is what
/// lets a small-pool world with a log exist at all: with the log
/// attached, `replicate` is one operation whose dirty pages may not be
/// stolen, so it needs a pool as large as `R`.
///
/// `breathe` is called between the engine calls, thousands of times:
/// the caller's chance to run the host's witness beside the build.
pub fn build(spec: &WorldSpec, breathe: &mut dyn FnMut()) -> Result<World, DbError> {
    // The engine's default inlining threshold: a user's configuration,
    // and re-points that thin a link below it exercise inlining.
    let cfg = |pool_pages| DbConfig {
        pool_pages,
        ..DbConfig::default()
    };
    let disk = Disk::fresh(&spec.store)?;
    let mut db = Database::with_disk(disk.handle()?, cfg(spec.s_count + 256));

    // Pads make the encoded payloads 200 and 100 bytes before
    // replication: int 8, string 2 + 18, ref 8, one annotation-count byte.
    db.define_type(TypeDef::new(
        "STYPE",
        vec![
            ("field_s", FieldType::Int),
            ("rep_none", FieldType::Str),
            ("rep_ip", FieldType::Str),
            ("rep_sep", FieldType::Str),
            ("pad", FieldType::Pad(131)),
        ],
    ))?;
    db.define_type(TypeDef::new(
        "RTYPE",
        vec![
            ("sref", FieldType::Ref("STYPE".into())),
            ("field_r", FieldType::Int),
            ("pad", FieldType::Pad(83)),
        ],
    ))?;
    db.create_set("S", "STYPE")?;
    db.create_set("R", "RTYPE")?;

    let n_s = spec.s_count;
    let n_r = n_s * SHARING;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut s_keys: Vec<i64> = (0..n_s as i64).collect();
    let mut r_keys: Vec<i64> = (0..n_r as i64).collect();
    s_keys.shuffle(&mut rng);
    r_keys.shuffle(&mut rng);
    // Balanced sharing: every S referenced exactly f times, from random
    // positions of R ("R and S are relatively unclustered").
    let mut assign: Vec<u32> = (0..n_r).map(|i| (i % n_s) as u32).collect();
    assign.shuffle(&mut rng);

    let mut s_oids = Vec::with_capacity(n_s);
    for (i, &key) in s_keys.iter().enumerate() {
        let i = i as u32;
        s_oids.push(db.insert(
            "S",
            vec![
                Value::Int(key),
                Value::Str(rep_value(i, Rep::None, 0)),
                Value::Str(rep_value(i, Rep::Inplace, 0)),
                Value::Str(rep_value(i, Rep::Separate, 0)),
                Value::Unit,
            ],
        )?);
        breathe();
    }
    let mut r_oids = Vec::with_capacity(n_r);
    for (i, &key) in r_keys.iter().enumerate() {
        r_oids.push(db.insert(
            "R",
            vec![
                Value::Ref(s_oids[assign[i] as usize]),
                Value::Int(key),
                Value::Unit,
            ],
        )?);
        breathe();
    }
    db.create_index("R.field_r", IndexKind::Unclustered)?;
    breathe();
    db.create_index("S.field_s", IndexKind::Unclustered)?;
    breathe();
    db.replicate("R.sref.rep_ip", Strategy::InPlace)?;
    breathe();
    db.replicate("R.sref.rep_sep", Strategy::Separate)?;
    breathe();

    // Checkpoint: the files hold the world and nothing is dirty, so the
    // windows pay for their own operations only.
    db.save()?;
    drop(db);
    let cfg = cfg(spec.pool_pages);
    let db = match &spec.store {
        Store::Mem | Store::File(_) => Database::open(disk.handle()?, cfg)?,
        Store::MemWal => {
            Database::open_with_wal(disk.handle()?, Box::new(MemWalStore::new()), cfg)?
        }
        Store::FileWal(dir) => {
            Database::open_with_wal(disk.handle()?, Box::new(FileWalStore::open(dir)?), cfg)?
        }
    };
    let path_of = |expr: &str| {
        db.catalog()
            .paths()
            .find(|p| p.expr.to_string() == expr)
            .map(|p| p.id)
            .ok_or_else(|| DbError::Unsupported(format!("path {expr} lost in the checkpoint")))
    };
    let paths = Paths {
        inplace: path_of("R.sref.rep_ip")?,
        separate: path_of("R.sref.rep_sep")?,
    };
    breathe();
    let data_pages = load_pool(&db)?;
    db.reset_profile();
    breathe();

    let mut s_by_key = vec![0u32; n_s];
    for (i, &k) in s_keys.iter().enumerate() {
        s_by_key[k as usize] = i as u32;
    }
    let mut r_by_key = vec![0u32; n_r];
    for (i, &k) in r_keys.iter().enumerate() {
        r_by_key[k as usize] = i as u32;
    }
    let zeros = || (0..n_s).map(|_| AtomicU32::new(0)).collect::<Vec<_>>();
    let oracle = Oracle {
        s_oids,
        r_oids,
        s_keys,
        s_by_key,
        r_by_key,
        assign: assign.into_iter().map(AtomicU32::new).collect(),
        versions: [zeros(), zeros(), zeros()],
    };
    breathe();
    Ok(World {
        db,
        oracle,
        paths,
        data_pages,
        space_amp: (data_pages * PAGE_SIZE as u64) as f64 / (n_s * 200 + n_r * 100) as f64,
    })
}

/// Fetch every page of every file once, in file order; returns how many
/// pages there are. File ids are dense from 0, so the first id the
/// storage manager rejects ends the walk.
fn load_pool(db: &Database) -> Result<u64, DbError> {
    let pool = db.sm().pool();
    let mut pages = 0u64;
    for file in 0..u16::MAX {
        let file = FileId(file);
        let Ok(count) = db.sm().page_count(file) else {
            break;
        };
        for page in 0..count {
            drop(pool.fetch(PageId::new(file, page))?);
        }
        pages += u64::from(count);
    }
    Ok(pages)
}

/// Check the database against the mirror: every replica must equal
/// its source on both replicated paths, and — when `exact` (one client
/// wrote) — every `S` field and every `R`'s target must be what the
/// oracle says. Without `exact` (two clients wrote) the replica and its
/// source are read in one validated snapshot and compared with each
/// other. Returns how many checks failed.
pub fn verify(db: &Database, oracle: &Oracle, paths: Paths, exact: bool) -> u64 {
    let mut bad = 0u64;
    if exact {
        for s in 0..oracle.s_count() as u32 {
            for rep in [Rep::None, Rep::Inplace, Rep::Separate] {
                let want = Value::Str(rep_value(s, rep, oracle.version(s, rep)));
                let got = db.get_field(oracle.s_oids[s as usize], rep.field());
                bad += u64::from(!matches!(got, Ok(v) if v == want));
            }
        }
    }
    for r in 0..oracle.r_count() as u32 {
        let r_oid = oracle.r_oids[r as usize];
        for (rep, path) in [
            (Rep::Inplace, paths.inplace),
            (Rep::Separate, paths.separate),
        ] {
            let good = if exact {
                let s = oracle.target(r);
                let want = vec![Value::Str(rep_value(s, rep, oracle.version(s, rep)))];
                matches!(db.path_values(r_oid, path), Ok(Some(v)) if v == want)
            } else {
                matches!(
                    db.snapshot_path_check(r_oid, path),
                    Ok((Some(visible), Some(truth))) if visible == truth
                )
            };
            bad += u64::from(!good);
        }
    }
    bad
}

/// Remove a world's directory, if its store has one.
pub fn remove_store(store: &Store) {
    if let Store::File(dir) | Store::FileWal(dir) = store {
        let _ = remove_db_dir(dir);
    }
}

/// Copy the `f*.pages` files of `from` into `to` (the checkpoint image
/// the durability epilogue crashes back to).
pub fn copy_pages(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(".pages") {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
