//! The layer ledger: where the time of the sampled operations went.
//!
//! The harness stands outside the engine, so it cannot put spans inside
//! it. It attributes time in three ways, all through public entry
//! points and counters:
//!
//! * **spans** it records itself around the calls it makes
//!   (`parse_stmt`, `execute_stmt`, `update_txn`, …);
//! * **peeling**: one operation in 64 is sent through the next door
//!   down (`ReadQuery::run` instead of `execute_stmt`, `Database::update`
//!   plus `log_txn_commit` instead of `update_txn`), whose result carries
//!   the engine's own per-operator wall times, or whose pieces the
//!   harness times itself. What the upper door adds is the difference of
//!   medians between operations sent through it and operations peeled
//!   past it;
//! * **counts times unit costs** for storage, which has no door of its
//!   own on the path of an operation: the page events an operation
//!   caused (exact, from the thread's counters) times the cost of one
//!   hit and one miss, timed on a side pool over the same kind of disk.
//!
//! Every nanosecond of a sampled operation is assigned to exactly one
//! of lang / query / core / storage / wal; what the clamps at zero leave
//! over is reported as unattributed.

use crate::measure::Samples;
use fieldrep_obs::IoCounts;

/// Wall time and page events of the segments given to one layer.
#[derive(Default, Clone, Copy)]
pub struct Seg {
    /// Wall nanoseconds.
    pub wall_ns: u64,
    /// Page events inside those nanoseconds.
    pub io: IoCounts,
}

impl Seg {
    /// Add a segment.
    pub fn add(&mut self, wall_ns: u64, io: IoCounts) {
        self.wall_ns += wall_ns;
        self.io += io;
    }

    fn merge(&mut self, other: &Seg) {
        self.add(other.wall_ns, other.io);
    }
}

/// Time of the sampled operations, by layer.
#[derive(Default, Clone)]
pub struct Ledger {
    /// Sampled operations.
    pub ops: u64,
    /// Their time, as measured (without what peeling skipped).
    pub measured_ns: u64,
    /// Peeled operations by kind (each is owed the upper door's cost).
    pub peeled: [u64; 7],
    /// `lang.parse` spans.
    pub parse_ns: u64,
    /// Segments of the query layer: plan, index access, sync, spool.
    pub query: Seg,
    /// Segments of the core layer: object fetch, projection, apply,
    /// propagate; whole snapshot reads and updates on the txn door.
    pub core: Seg,
    /// Commit logging (`log_txn_commit` + `sync_to`) minus the sweep.
    pub wal_ns: u64,
    /// The commit's sweep over the pool's frames.
    pub sweep_ns: u64,
}

impl Ledger {
    /// Fold another client's ledger in.
    pub fn merge(&mut self, other: &Ledger) {
        self.ops += other.ops;
        self.measured_ns += other.measured_ns;
        for k in 0..7 {
            self.peeled[k] += other.peeled[k];
        }
        self.parse_ns += other.parse_ns;
        self.query.merge(&other.query);
        self.core.merge(&other.core);
        self.wal_ns += other.wal_ns;
        self.sweep_ns += other.sweep_ns;
    }
}

/// Unit costs the shares are computed with.
#[derive(Clone, Copy, Debug)]
pub struct UnitCosts {
    /// One buffer-pool hit, nanoseconds.
    pub hit_ns: f64,
    /// One miss (victim, read, checksum), nanoseconds. A write-back is
    /// charged the same: one page transfer and one checksum.
    pub miss_ns: f64,
    /// What the door the peeled operations skipped costs, by kind,
    /// nanoseconds: `execute_stmt` over `ReadQuery::run`, or
    /// `update_txn` over `update` + commit logging.
    pub door_ns: [f64; 7],
    /// Whether that door belongs to `lang` (else to `core`, as
    /// `core::txn` does).
    pub door_is_lang: bool,
    /// Commit logging estimated from counts, for operations that could
    /// not be peeled (two clients): nanoseconds over the sampled ops.
    pub wal_estimate_ns: f64,
}

/// The shares of the sampled operations' time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shares {
    /// `lang`.
    pub lang: f64,
    /// `query` (with the index access path).
    pub query: f64,
    /// `core` (with `model`, and `core::txn`).
    pub core: f64,
    /// `storage` (buffer, heap pages, disk; the commit sweep).
    pub storage: f64,
    /// `storage::wal`.
    pub wal: f64,
    /// What is left.
    pub unattributed: f64,
}

impl Ledger {
    /// Turn the ledger into shares of the sampled operations' time.
    pub fn shares(&self, u: &UnitCosts) -> Shares {
        let door_ns: f64 = (0..7).map(|k| self.peeled[k] as f64 * u.door_ns[k]).sum();
        let total = self.measured_ns as f64 + door_ns;
        if total <= 0.0 {
            return Shares::default();
        }
        // Storage time inside a layer's segments: its page events at
        // unit cost, never more than the segments themselves.
        let storage_in = |seg: &Seg| {
            let cost = seg.io.pool_hits as f64 * u.hit_ns
                + (seg.io.pool_misses + seg.io.disk_writes) as f64 * u.miss_ns;
            cost.min(seg.wall_ns as f64)
        };
        let q_store = storage_in(&self.query);
        let c_store = storage_in(&self.core);
        // With two clients the log cannot be peeled off; its estimated
        // time comes out of core, where the unpeeled call was charged.
        let wal_est = u
            .wal_estimate_ns
            .min(self.core.wall_ns as f64 - c_store)
            .max(0.0);
        let (door_lang, door_core) = if u.door_is_lang {
            (door_ns, 0.0)
        } else {
            (0.0, door_ns)
        };
        let lang = self.parse_ns as f64 + door_lang;
        let query = self.query.wall_ns as f64 - q_store;
        let core = self.core.wall_ns as f64 - c_store - wal_est + door_core;
        let storage = q_store + c_store + self.sweep_ns as f64;
        let wal = self.wal_ns as f64 + wal_est;
        let sum = lang + query + core + storage + wal;
        Shares {
            lang: lang / total,
            query: query / total,
            core: core / total,
            storage: storage / total,
            wal: wal / total,
            unattributed: ((total - sum) / total).max(0.0),
        }
    }
}

/// Latency samples of the layers' entry points, from spans and probes.
#[derive(Default, Clone)]
pub struct Layers {
    /// `parse_stmt`.
    pub parse: Samples,
    /// `Interpreter::execute_stmt`, all kinds.
    pub exec: Samples,
    /// The upper door by kind: `execute_stmt` or `update_txn`.
    pub door: [Samples; 7],
    /// The same operations peeled past it, by kind.
    pub peeled: [Samples; 7],
    /// `ReadQuery::plan` / `UpdateQuery::plan`.
    pub plan: Samples,
    /// `ReadQuery::run` (peeled reads).
    pub query_run: Samples,
    /// `BTreeIndex::range` over one read's keys.
    pub btree_range: Samples,
    /// Pool requests of those range scans, and how many scans.
    pub btree_pages: (u64, u64),
    /// Height of the `R.field_r` index.
    pub btree_height: u64,
    /// `Object::decode`.
    pub decode: Samples,
    /// `Object::encode`.
    pub encode: Samples,
    /// `Database::get`.
    pub get: Samples,
    /// `HeapFile::read`.
    pub heap_read: Samples,
    /// `deref_path` / `path_values`, indexed by `Rep`.
    pub path_values: [Samples; 3],
    /// `Database::inverse_of`.
    pub inverse: Samples,
    /// Sources found by those inverse calls, and how many calls.
    pub fanout: (u64, u64),
    /// `Database::update` without a transaction, by kind.
    pub update: [Samples; 7],
    /// `TxnManager::lock_sorted` over `f + 1` OIDs.
    pub lock_sorted: Samples,
    /// `BufferPool::fetch` of a resident page (side pool).
    pub fetch_hit: Samples,
    /// `BufferPool::fetch` of an absent page (side pool, same store).
    pub fetch_miss: Samples,
    /// `log_txn_commit` with nothing dirty.
    pub commit_sweep: Samples,
    /// `log_txn_commit` + `sync_to` of a peeled update.
    pub log_commit: Samples,
    /// `Wal::append_commit` of one page image (side log in memory).
    pub wal_append: Samples,
    /// `Wal::sync_to` (side log in a file: the sandbox's fsync).
    pub wal_sync: Samples,
    /// Harness time per operation outside the engine.
    pub op_self: Samples,
    /// `snapshot_path_check` calls made on sampled reads.
    pub path_checks: u64,
}

impl Layers {
    /// Fold another client's samples in.
    pub fn merge(&mut self, o: &Layers) {
        self.parse.extend(&o.parse);
        self.exec.extend(&o.exec);
        for k in 0..7 {
            self.door[k].extend(&o.door[k]);
            self.peeled[k].extend(&o.peeled[k]);
            self.update[k].extend(&o.update[k]);
        }
        self.plan.extend(&o.plan);
        self.query_run.extend(&o.query_run);
        self.btree_range.extend(&o.btree_range);
        self.btree_pages.0 += o.btree_pages.0;
        self.btree_pages.1 += o.btree_pages.1;
        self.btree_height = self.btree_height.max(o.btree_height);
        self.decode.extend(&o.decode);
        self.encode.extend(&o.encode);
        self.get.extend(&o.get);
        self.heap_read.extend(&o.heap_read);
        for r in 0..3 {
            self.path_values[r].extend(&o.path_values[r]);
        }
        self.inverse.extend(&o.inverse);
        self.fanout.0 += o.fanout.0;
        self.fanout.1 += o.fanout.1;
        self.lock_sorted.extend(&o.lock_sorted);
        self.fetch_hit.extend(&o.fetch_hit);
        self.fetch_miss.extend(&o.fetch_miss);
        self.commit_sweep.extend(&o.commit_sweep);
        self.log_commit.extend(&o.log_commit);
        self.wal_append.extend(&o.wal_append);
        self.wal_sync.extend(&o.wal_sync);
        self.op_self.extend(&o.op_self);
        self.path_checks += o.path_checks;
    }
}
