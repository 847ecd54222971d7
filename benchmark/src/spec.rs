//! What the benchmark measures: the four workloads and every metric by
//! name, unit, direction and bound. `BENCHMARK.json` is generated from
//! these tables (`--manifest`) and a test holds the committed file to
//! them, so a later change cannot move a metric without showing it.

use crate::json::quote;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Which front door the clients use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Door {
    /// `lang` statements: `parse_stmt` + `Interpreter::execute_stmt`.
    Stmt,
    /// `Database::update_txn` and the snapshot readers.
    Txn,
}

/// Backing store of a workload's world.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreKind {
    /// `MemDisk`, no log.
    Mem,
    /// `FileDisk` in the scratch directory, no log.
    File,
    /// `MemDisk` + `MemWalStore`.
    MemWal,
}

/// One workload: a closed loop of `clients` threads over one world.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Why it exists (one line; copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Client threads (each sends its next operation when the previous
    /// one has returned).
    pub clients: usize,
    /// Front door.
    pub door: Door,
    /// Backing store.
    pub store: StoreKind,
    /// Pool size as `num/den` of the world's data pages.
    pub pool: (usize, usize),
    /// Reads per hundred operations.
    pub read_pct: u32,
    /// Re-points per hundred updates (the rest split in equal thirds
    /// over plain / in-place / separate).
    pub repoint_pct: u32,
    /// Operations per hundred aimed at the 16 hot `S` objects.
    pub hot_pct: u32,
    /// Operations each client runs before the window opens, at scale 1.
    pub warmup_ops: u64,
    /// Operations per client at the head of the window over which the
    /// count-type metrics are taken, at scale 1. A fixed number, so the
    /// counts repeat exactly for one seed however fast the host is; a
    /// window that ends sooner is extended to cover it.
    pub counted_ops: u64,
    /// Whether the durability epilogue follows the window.
    pub epilogue: bool,
    /// Whether `BENCHMARK.json` lists it, so that the driver runs it and
    /// holds later changes to its end-to-end metrics.
    pub gated: bool,
}

/// The workloads: four the driver holds, and the two-client one.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "stmt_hot",
        why: "lang statements over a pool 4x the data: all time is in lang/query/btree/model/core and storage only serves hits, so buffer/disk/WAL work must show no change here",
        clients: 1,
        door: Door::Stmt,
        store: StoreKind::Mem,
        pool: (4, 1),
        read_pct: 90,
        repoint_pct: 0,
        hot_pct: 0,
        warmup_ops: 10_000,
        counted_ops: 100_000,
        epilogue: false,
        gated: true,
    },
    Workload {
        name: "stmt_cold",
        why: "the identical statement stream over FileDisk and a pool 1/16 of the data: nearly every fetch misses, so storage.buffer and storage.disk do most of the work and lang almost none",
        clients: 1,
        door: Door::Stmt,
        store: StoreKind::File,
        pool: (1, 16),
        read_pct: 90,
        repoint_pct: 0,
        hot_pct: 0,
        warmup_ops: 2_000,
        counted_ops: 12_000,
        epilogue: false,
        gated: true,
    },
    Workload {
        name: "txn_ripple",
        why: "update_txn nine times in ten (plain/in-place/separate/re-point) over MemDisk+MemWalStore and a pool that holds the data: the commit path without device noise; ends with the durability epilogue",
        clients: 1,
        door: Door::Txn,
        store: StoreKind::MemWal,
        pool: (5, 4),
        read_pct: 10,
        repoint_pct: 10,
        hot_pct: 0,
        warmup_ops: 3_000,
        counted_ops: 50_000,
        epilogue: true,
        gated: true,
    },
    Workload {
        name: "txn_mixed",
        why: "nine snapshot reads to one update_txn over MemDisk+MemWalStore and a pool 1/4 of the data: reads beside writes where commits meet misses, evictions and the steal rule, with nobody to contend with",
        clients: 1,
        door: Door::Txn,
        store: StoreKind::MemWal,
        pool: (1, 4),
        read_pct: 90,
        repoint_pct: 10,
        hot_pct: 20,
        warmup_ops: 20_000,
        counted_ops: 100_000,
        epilogue: false,
        gated: true,
    },
    Workload {
        name: "txn_mixed_t2",
        why: "txn_mixed with two clients who meet on 16 hot S objects: the same txn and pool code under contention (seqlock retries, apply section, index guard, pool mutex with misses inside it)",
        clients: 2,
        door: Door::Txn,
        store: StoreKind::MemWal,
        pool: (1, 4),
        read_pct: 90,
        repoint_pct: 10,
        hot_pct: 20,
        warmup_ops: 20_000,
        counted_ops: 100_000,
        epilogue: false,
        // Two client threads on a two-CPU sandbox: the latency medians
        // flip between two regimes (update.plain 60 or 300 us) from one
        // run to the next, whichever the hypervisor grants. It runs in
        // every full set and by name, and its counters are as good as
        // any; a bound of a quarter cannot hold it.
        gated: false,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: something a user of the engine sees, measured
/// with tracing off, reported on every workload, never zero.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics. The timing ones describe the engine **at
/// reference speed** (see [`crate::witness`]); p95 and p99 are reported
/// per layer only (`bench.*`): their spread on this sandbox exceeds any
/// bound the driver allows.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Lower, TIMING_BOUND),
    e2e("ops_per_s", "1/s", Higher, TIMING_BOUND),
    e2e("read_none_p50_us", "us", Lower, TIMING_BOUND),
    e2e("read_inplace_p50_us", "us", Lower, TIMING_BOUND),
    e2e("read_separate_p50_us", "us", Lower, TIMING_BOUND),
    e2e("update_plain_p50_us", "us", Lower, TIMING_BOUND),
    e2e("update_inplace_p50_us", "us", Lower, TIMING_BOUND),
    e2e("update_separate_p50_us", "us", Lower, TIMING_BOUND),
    e2e("page_reqs_per_read", "pages", Lower, COUNT_BOUND),
    e2e("page_reqs_per_update", "pages", Lower, COUNT_BOUND),
    e2e("space_amp", "x", Lower, COUNT_BOUND),
];

/// The bound of every timing metric: the widest the driver allows.
///
/// At reference speed (see [`crate::witness`]) two batches of ten seeds
/// of one build on this sandbox (2 shared vCPUs), on a busy afternoon,
/// put the quartiles of a timing metric 0.3 % to 11 % of its median apart
/// and single runs up to 20 % from it: the witness is slowed by most of
/// what slows the engine, not by all of it. The driver refuses a
/// benchmark whose spread exceeds its bound, so the bound is more than
/// twice the worst row seen (`read_inplace_p50_us` on `txn_ripple`, a
/// 4 µs read) and three times all but two. Claims finer than this rest
/// on the counts (which repeat exactly) and on ten alternating pairs,
/// not on one gate.
const TIMING_BOUND: f64 = 0.25;

/// The bound of the count metrics. They repeat exactly for one seed;
/// across seeds the worlds differ (which objects were forwarded, which
/// keys share a leaf) by about 1 %.
const COUNT_BOUND: f64 = 0.05;

/// A per-layer metric: taken from the traced run, at the layer's public
/// entry points and counters. No bound; `moves` says which end-to-end
/// metric it should move and where it should not.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Name; the prefix is the layer (this repo's module).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Whether the value is a count that repeats exactly for one seed
    /// on a one-client workload.
    pub exact: bool,
    /// What it should move / where it should stay flat.
    pub moves: &'static str,
}

const fn timed(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
        moves,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
        moves,
    }
}

const LANG: &str = "read_*_p50_us, ops_per_s on stmt_hot / stmt_cold (a few percent of the op), txn_* (never called: 0)";
const QUERY: &str =
    "read_*_p50_us on stmt_hot; page_reqs_per_read on stmt_* / txn_* (never called: 0)";
const BTREE: &str =
    "read_*_p50_us on stmt_hot, core.pages_per_read.* on stmt_cold / txn_* reads (OID access)";
const MODEL: &str = "read_*_p50_us on stmt_hot and stmt_cold / nothing on page counts";
const CORE_READ: &str = "read_inplace < read_separate < read_none in time and in pages on stmt_cold / read_none_* must not move with replication changes";
const CORE_UPDATE: &str = "update_*_p50_us on txn_ripple and stmt_* / update_plain_* must not move with replication changes";
const TXN: &str = "update_*_p50_us on txn_ripple; read_p95_us, update_p95_us, ops_per_s on txn_mixed_t2 / the three counters are 0 on every one-client workload";
const BUFFER: &str = "read_*_p50_us, ops_per_s on stmt_cold and txn_mixed_t2; the sweep moves update_*_p50_us on txn_* / all but fetch_hit flat on stmt_hot";
const DISK: &str = "core.pages_per_*, read_*_p50_us on stmt_cold and txn_mixed_t2 / all 0 on stmt_hot and txn_ripple";
const WAL: &str =
    "update_*_p50_us on txn_ripple, ops_per_s on txn_mixed_t2 / all 0 on stmt_* (no log)";
const DURABILITY: &str =
    "the durability epilogue of txn_ripple / 0 elsewhere; holds fsyncs, so the sandbox's figure";
const SHARE: &str =
    "names the layer a claimed saving must appear in; self time over op time on the sampled ops";
const HARNESS: &str = "flags a run too noisy or too perturbed to judge; moves nothing";

/// The per-layer metrics.
pub const PER_LAYER: [PerLayer; 87] = [
    timed("lang.parse_us_p50", "us", Lower, LANG),
    timed("lang.exec_us_p50", "us", Lower, LANG),
    timed("lang.over_query_us_p50", "us", Lower, LANG),
    timed("query.plan_us_p50", "us", Lower, QUERY),
    timed("query.run_us_p50", "us", Lower, QUERY),
    count("query.rows_per_read", "rows", Higher, QUERY),
    count("query.pages_per_row", "pages", Lower, QUERY),
    timed("btree.range_us_p50", "us", Lower, BTREE),
    count("btree.pages_per_lookup", "pages", Lower, BTREE),
    count("btree.height", "levels", Lower, BTREE),
    timed("model.decode_us_per_obj", "us", Lower, MODEL),
    timed("model.encode_us_per_obj", "us", Lower, MODEL),
    timed("core.get_us_per_obj", "us", Lower, CORE_READ),
    timed("core.path_values_us_p50.none", "us", Lower, CORE_READ),
    timed("core.path_values_us_p50.inplace", "us", Lower, CORE_READ),
    timed("core.path_values_us_p50.separate", "us", Lower, CORE_READ),
    timed("core.inverse_us_p50", "us", Lower, CORE_UPDATE),
    count(
        "core.fanout_per_update.inplace",
        "objects",
        Lower,
        CORE_UPDATE,
    ),
    timed("core.update_us_p50.plain", "us", Lower, CORE_UPDATE),
    timed("core.update_us_p50.inplace", "us", Lower, CORE_UPDATE),
    timed("core.update_us_p50.separate", "us", Lower, CORE_UPDATE),
    timed("core.update_repoint_us_p50", "us", Lower, CORE_UPDATE),
    count("core.pages_per_read.none", "pages", Lower, CORE_READ),
    count("core.pages_per_read.inplace", "pages", Lower, CORE_READ),
    count("core.pages_per_read.separate", "pages", Lower, CORE_READ),
    count("core.pages_per_update.plain", "pages", Lower, CORE_UPDATE),
    count("core.pages_per_update.inplace", "pages", Lower, CORE_UPDATE),
    count(
        "core.pages_per_update.separate",
        "pages",
        Lower,
        CORE_UPDATE,
    ),
    timed("core.txn.lock_sorted_us_p50", "us", Lower, TXN),
    timed("core.txn.over_update_us_p50", "us", Lower, TXN),
    count("core.txn.conflicts_per_kcommit", "1/1000", Lower, TXN),
    count("core.txn.lock_waits_per_kcommit", "1/1000", Lower, TXN),
    count("core.txn.snapshot_retries_per_kread", "1/1000", Lower, TXN),
    count("storage.buffer.hit_ratio", "ratio", Higher, BUFFER),
    count("storage.buffer.misses_per_op", "pages", Lower, BUFFER),
    count("storage.buffer.evictions_per_op", "pages", Lower, BUFFER),
    count("storage.buffer.batch_len", "pages", Higher, BUFFER),
    timed("storage.buffer.fetch_hit_us_p50", "us", Lower, BUFFER),
    timed("storage.buffer.fetch_miss_us_p50", "us", Lower, BUFFER),
    timed("storage.buffer.commit_sweep_us_p50", "us", Lower, BUFFER),
    timed("storage.heap.read_us_per_obj", "us", Lower, MODEL),
    count("storage.disk.reads_per_op", "pages", Lower, DISK),
    count("storage.disk.read_calls_per_op", "calls", Lower, DISK),
    count("storage.disk.writes_per_op", "pages", Lower, DISK),
    count("storage.disk.syncs", "count", Lower, DISK),
    count("storage.wal.bytes_per_commit", "B", Lower, WAL),
    count("storage.wal.bytes_per_commit.plain", "B", Lower, WAL),
    count("storage.wal.bytes_per_commit.inplace", "B", Lower, WAL),
    count("storage.wal.bytes_per_commit.separate", "B", Lower, WAL),
    count("storage.wal.bytes_per_commit.repoint", "B", Lower, WAL),
    count("storage.wal.appends_per_commit", "records", Lower, WAL),
    count("storage.wal.fsyncs_per_commit", "count", Lower, WAL),
    count("storage.wal.coalesced_frac", "ratio", Higher, WAL),
    count("storage.wal.autocommits", "count", Lower, WAL),
    timed("storage.wal.log_commit_us_p50", "us", Lower, WAL),
    timed("storage.wal.append_us_per_page", "us", Lower, WAL),
    timed("storage.wal.sync_us_p50", "us", Lower, DURABILITY),
    timed("storage.wal.recovery_s", "s", Lower, DURABILITY),
    timed("storage.wal.replay_mb_per_s", "MB/s", Higher, DURABILITY),
    count("storage.wal.replayed_pages", "pages", Lower, DURABILITY),
    count("storage.wal.lost_acked_writes", "count", Lower, DURABILITY),
    timed("storage.checkpoint.save_ms", "ms", Lower, DURABILITY),
    timed(
        "obs.recorder_overhead_frac",
        "ratio",
        Lower,
        "ops_per_s on stmt_hot / within noise elsewhere",
    ),
    timed("share.lang_frac", "ratio", Lower, SHARE),
    timed("share.query_frac", "ratio", Lower, SHARE),
    timed("share.core_frac", "ratio", Lower, SHARE),
    timed("share.storage_frac", "ratio", Lower, SHARE),
    timed("share.wal_frac", "ratio", Lower, SHARE),
    timed("share.unattributed_frac", "ratio", Lower, SHARE),
    timed("bench.trace_overhead_frac", "ratio", Lower, HARNESS),
    timed("bench.op_self_us_p50", "us", Lower, HARNESS),
    timed("bench.calib_drift_frac", "ratio", Lower, HARNESS),
    timed("bench.host_slowdown", "x", Lower, HARNESS),
    timed("bench.peak_rss_mb", "MiB", Lower, HARNESS),
    timed("bench.read_p95_us", "us", Lower, HARNESS),
    timed("bench.update_p95_us", "us", Lower, HARNESS),
    timed("bench.read_p99_us", "us", Lower, HARNESS),
    timed("bench.update_p99_us", "us", Lower, HARNESS),
    timed("bench.update_repoint_p50_us", "us", Lower, HARNESS),
    timed("bench.window_s", "s", Lower, HARNESS),
    timed("bench.traced_ops_per_s", "1/s", Higher, HARNESS),
    timed("bench.plain_ops_per_s", "1/s", Higher, HARNESS),
    timed("bench.sampled_ops", "count", Higher, HARNESS),
    timed("bench.spans_dropped", "count", Lower, HARNESS),
    count("bench.data_pages", "pages", Lower, HARNESS),
    count("bench.pool_pages", "pages", Lower, HARNESS),
    timed("bench.path_checks", "count", Higher, HARNESS),
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let gated: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.gated).collect();
    for (i, w) in gated.iter().enumerate() {
        let sep = if i + 1 < gated.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            quote(w.name),
            quote(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.word()),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.word())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Whether `name` is made of the characters a metric name may have.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}
