//! Probes: after a sampled operation, its pieces are entered again
//! through each layer's public entry point and timed. Calls that only
//! read go to the live database (on the objects the operation has just
//! touched, so they are resident and the pool's state barely moves);
//! calls that would disturb it go to a side pool, a side log and a side
//! lock table of the same kind.

use crate::ledger::Layers;
use crate::ops::{read_query, update_query, Kind, Op, ROWS_PER_READ};
use crate::spec::Door;
use crate::trace::{Cat, OpRef, Tracer};
use crate::world::{Oracle, Paths, Rep, Store};
use fieldrep_btree::BTreeIndex;
use fieldrep_catalog::IndexTarget;
use fieldrep_core::{value_key, Database, DbError, TxnManager};
use fieldrep_model::{Object, TypeId, Value};
use fieldrep_obs::io as obs_io;
use fieldrep_storage::{
    BufferPool, FileId, FileWalStore, HeapFile, MemWalStore, Oid, PageId, Wal, PAGE_SIZE,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Frames of the side pool, and pages of the file under it: four times
/// as many, so that walking the file in order never finds a page
/// resident.
const SIDE_FRAMES: usize = 64;
const SIDE_PAGES: u32 = 256;
/// Fetches and appends recorded per probe round, after one unrecorded.
const WARM_FETCHES: usize = 2;
/// `fsync` probes per run (each costs up to a millisecond here), one
/// per this many probe rounds.
const MAX_SYNC_PROBES: usize = 40;
const SYNC_EVERY: u64 = 16;
/// Commits the in-memory side log holds before it is truncated.
const SIDE_LOG_COMMITS: u64 = 256;

/// The side structures of one client.
pub struct Probes {
    door: Door,
    side_pool: BufferPool,
    side_file: FileId,
    side_next: u32,
    side_wal: Option<Wal>,
    side_wal_commits: u64,
    sync_wal: Wal,
    rounds: u64,
    side_txn: TxnManager,
    image: Box<[u8; PAGE_SIZE]>,
    r_index: Option<FileId>,
    paths: Paths,
}

impl Probes {
    /// Side structures over the same kind of store as the workload's:
    /// a pool (over `FileDisk` where the world is on one), a log in
    /// memory where the world has one, and a log in a file under
    /// `scratch` for the `fsync` probe.
    pub fn new(
        door: Door,
        store: &Store,
        scratch: &Path,
        client: usize,
        db: &Database,
        paths: Paths,
    ) -> Result<Probes, DbError> {
        let side_pool = BufferPool::new(store.side_disk(&format!("side{client}"))?, SIDE_FRAMES);
        let side_file = side_pool.create_file()?;
        for _ in 0..SIDE_PAGES {
            let (_, page) = side_pool.new_page(side_file)?;
            page.data_mut()[64] = 1;
        }
        side_pool.flush_all()?;
        let side_wal = store
            .has_wal()
            .then(|| Wal::new(Box::new(MemWalStore::new()), 1));
        let sync_wal = Wal::new(
            Box::new(FileWalStore::open(
                scratch.join(format!("sidelog{client}")),
            )?),
            1,
        );
        let cat = db.catalog();
        let r_set = cat.set_id("R")?;
        let field_r = cat
            .type_def(cat.set(r_set).elem_type)
            .field_index("field_r");
        let r_index = cat
            .indexes_on(r_set)
            .find(|i| matches!(i.target, IndexTarget::Field(f) if Some(f) == field_r))
            .map(|i| i.file);
        Ok(Probes {
            door,
            side_pool,
            side_file,
            side_next: 0,
            side_wal,
            side_wal_commits: 0,
            sync_wal,
            rounds: 0,
            side_txn: TxnManager::default(),
            image: Box::new([0x5A; PAGE_SIZE]),
            r_index,
            paths,
        })
    }

    /// Probe the layers `op` has just been through.
    pub fn after(
        &mut self,
        op: &Op,
        op_id: u64,
        db: &Database,
        oracle: &Oracle,
        tr: &mut Tracer,
        layers: &mut Layers,
    ) {
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| -> u64 {
            let t0 = Instant::now();
            f();
            let t1 = Instant::now();
            let at = OpRef {
                id: op_id,
                kind: op.kind,
            };
            tr.span(name, Cat::Probe, t0, t1, "op", at);
            (t1 - t0).as_nanos() as u64
        };

        // The objects the operation was about.
        let (r_idx, s_idx) = match (op.kind, self.door) {
            (Kind::UpdateRepoint, _) => (Some(op.a), oracle.target(op.a)),
            (k, Door::Stmt) if k.is_read() => {
                let r = oracle.r_by_key[op.a as usize];
                (Some(r), oracle.target(r))
            }
            (k, Door::Txn) if k.is_read() => (Some(op.a), oracle.target(op.a)),
            _ => (None, op.a),
        };
        let s_oid = oracle.s_oids[s_idx as usize];

        // core: the inverted path from the S object back to its sources.
        let mut sources: Vec<Oid> = Vec::new();
        let ns = timed("core.inverse_of", &mut || {
            sources = db.inverse_of("R.sref", s_oid).unwrap_or_default();
        });
        layers.inverse.push(ns);
        layers.fanout.0 += sources.len() as u64;
        layers.fanout.1 += 1;
        let r_oid = match r_idx {
            Some(r) => oracle.r_oids[r as usize],
            None => sources.first().copied().unwrap_or(oracle.r_oids[0]),
        };

        if self.door == Door::Stmt {
            self.probe_query(op, db, oracle, &mut timed, layers);
        }

        // storage.heap, model, core: one object, layer by layer.
        let hf = HeapFile::open(r_oid.file);
        let mut record = (0u16, Vec::new());
        let ns = timed("storage.heap.read", &mut || {
            record = hf.read(db.sm(), r_oid).unwrap_or_default();
        });
        layers.heap_read.push(ns);
        let type_id = TypeId(record.0);
        let def = db.catalog().type_def(type_id);
        let mut object = None;
        let ns = timed("model.decode", &mut || {
            object = Object::decode(type_id, def, &record.1).ok();
        });
        layers.decode.push(ns);
        if let Some(obj) = &object {
            let ns = timed("model.encode", &mut || {
                black_box(obj.encode(def));
            });
            layers.encode.push(ns);
        }
        let ns = timed("core.get", &mut || {
            black_box(db.get(r_oid).is_ok());
        });
        layers.get.push(ns);

        // core: the three ways to the S value from one R object.
        for rep in [Rep::None, Rep::Inplace, Rep::Separate] {
            let ns = timed("core.path_values", &mut || {
                black_box(match self.paths.of(rep) {
                    None => db.deref_path(r_oid, "sref.rep_none").is_ok(),
                    Some(path) => db.path_values(r_oid, path).is_ok(),
                });
            });
            layers.path_values[rep as usize].push(ns);
        }

        // core.txn: the locks an in-place ripple takes, on a side table.
        if self.door == Door::Txn {
            let mut closure: Vec<Oid> = sources.clone();
            closure.push(s_oid);
            closure.sort_unstable();
            closure.dedup();
            let ns = timed("core.txn.lock_sorted", &mut || {
                black_box(self.side_txn.lock_sorted(&closure).is_ok());
            });
            layers.lock_sorted.push(ns);
        }

        // storage.buffer: misses and hits on the side pool. The first
        // fetch of a round finds the pool's code cold (it last ran 64
        // operations ago) and is not recorded; an operation's own
        // fetches come dozens in a row.
        let mut last = PageId::new(self.side_file, 0);
        for i in 0..1 + WARM_FETCHES {
            last = PageId::new(self.side_file, self.side_next);
            self.side_next = (self.side_next + 1) % SIDE_PAGES;
            let ns = timed("storage.buffer.fetch_miss", &mut || {
                black_box(self.side_pool.fetch(last).is_ok());
            });
            if i > 0 {
                layers.fetch_miss.push(ns);
            }
        }
        for _ in 0..WARM_FETCHES {
            let ns = timed("storage.buffer.fetch_hit", &mut || {
                black_box(self.side_pool.fetch(last).is_ok());
            });
            layers.fetch_hit.push(ns);
        }

        // storage.wal: page images appended to the side log, the first
        // one again unrecorded.
        let pages = [(last, &*self.image)];
        if let Some(wal) = &self.side_wal {
            for i in 0..1 + WARM_FETCHES {
                let ns = timed("storage.wal.append_commit", &mut || {
                    black_box(wal.append_commit(wal.begin_txn(), &pages).is_ok());
                });
                if i > 0 {
                    layers.wal_append.push(ns);
                }
            }
            self.side_wal_commits += 1;
            if self.side_wal_commits.is_multiple_of(SIDE_LOG_COMMITS) {
                let _ = wal.checkpoint_truncate();
            }
        }
        // The sandbox's fsync, a few times per run.
        self.rounds += 1;
        if layers.wal_sync.len() < MAX_SYNC_PROBES && self.rounds.is_multiple_of(SYNC_EVERY) {
            if let Ok(lsn) = self
                .sync_wal
                .append_commit(self.sync_wal.begin_txn(), &pages)
            {
                let ns = timed("storage.wal.sync_to", &mut || {
                    black_box(self.sync_wal.sync_to(lsn).is_ok());
                });
                layers.wal_sync.push(ns);
            }
        }
    }

    /// query and btree: plan the statement's query again, and scan the
    /// index range a read selects.
    fn probe_query(
        &mut self,
        op: &Op,
        db: &Database,
        oracle: &Oracle,
        timed: &mut dyn FnMut(&'static str, &mut dyn FnMut()) -> u64,
        layers: &mut Layers,
    ) {
        let ns = if op.kind.is_read() {
            let q = read_query(op);
            timed("query.plan", &mut || {
                black_box(q.plan(db).is_ok());
            })
        } else {
            let q = update_query(op, oracle, "");
            timed("query.plan", &mut || {
                black_box(q.plan(db).is_ok());
            })
        };
        layers.plan.push(ns);

        let Some(index) = self.r_index else { return };
        if !op.kind.is_read() {
            return;
        }
        let tree = BTreeIndex::open(index);
        let lo = value_key(&Value::Int(i64::from(op.a)));
        let hi = value_key(&Value::Int(i64::from(op.a) + ROWS_PER_READ - 1));
        let io0 = obs_io::snapshot();
        let ns = timed("btree.range", &mut || {
            black_box(tree.range(db.sm(), &lo, &hi).map(|e| e.len()).ok());
        });
        layers.btree_range.push(ns);
        layers.btree_pages.0 += (obs_io::snapshot() - io0).page_touches();
        layers.btree_pages.1 += 1;
        layers.btree_height = tree.height(db.sm()).map_or(0, u64::from);
    }
}
