//! Bounded slow-query log.
//!
//! Any statement whose wall clock or page I/O crosses a configurable
//! threshold gets its full per-operator [`Profile`], plan text, and a
//! workload snapshot appended to a fixed-capacity ring. The ring is
//! process-wide (like the [recorder](crate::recorder) and the metrics
//! [registry](crate::metrics::registry)), queryable as the
//! `sys.slow_queries` virtual table, and dumpable as JSONL.
//!
//! Both thresholds start **off** (`u64::MAX`): the engine calls
//! [`observe`] at every statement boundary unconditionally, and the two
//! relaxed atomic loads make the disabled path free. `set slowlog
//! threshold 10 ms 100 pages` in `lang` (or [`set_thresholds`] directly)
//! arms it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::export::{io_json, JSONL_SCHEMA_VERSION};
use crate::json::escape;
use crate::metrics::{registry, Counter};
use crate::names;
use crate::profile::Profile;
use crate::recorder::clock_nanos;

/// Ring capacity (entries) of the global slow-query log.
pub const DEFAULT_CAPACITY: usize = 64;

/// Threshold value meaning "never trips".
const OFF: u64 = u64::MAX;

/// One over-threshold statement, with everything needed to explain it
/// after the fact.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Monotonic sequence number (order of recording, never reused).
    pub seq: u64,
    /// [`clock_nanos`] timestamp at recording.
    pub at_nanos: u64,
    /// The statement text as the user wrote it.
    pub statement: String,
    /// Plan rendering at execution time.
    pub plan: String,
    /// Wall-clock nanoseconds the statement took.
    pub wall_nanos: u64,
    /// Page touches (pool hits + misses) the statement cost.
    pub io_pages: u64,
    /// Rows the statement produced or updated.
    pub rows: u64,
    /// The statement's full per-operator profile.
    pub profile: Profile,
    /// Per-path workload snapshot at recording time (one line per path).
    pub workload: String,
}

struct SlowLog {
    wall_threshold_nanos: AtomicU64,
    io_threshold_pages: AtomicU64,
    seq: AtomicU64,
    ring: Mutex<VecDeque<SlowQuery>>,
}

struct SlowLogCounters {
    recorded: Arc<Counter>,
    evicted: Arc<Counter>,
}

fn counters() -> &'static SlowLogCounters {
    static COUNTERS: OnceLock<SlowLogCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = registry();
        SlowLogCounters {
            recorded: r.counter(names::OBS_SLOWLOG_RECORDED),
            evicted: r.counter(names::OBS_SLOWLOG_EVICTED),
        }
    })
}

fn log() -> &'static SlowLog {
    static LOG: OnceLock<SlowLog> = OnceLock::new();
    LOG.get_or_init(|| SlowLog {
        wall_threshold_nanos: AtomicU64::new(OFF),
        io_threshold_pages: AtomicU64::new(OFF),
        seq: AtomicU64::new(0),
        ring: Mutex::new(VecDeque::with_capacity(DEFAULT_CAPACITY)),
    })
}

/// Arm the log: record any statement whose wall clock exceeds `wall_ms`
/// milliseconds **or** whose page touches exceed `io_pages`. `None`
/// disables that trigger.
pub fn set_thresholds(wall_ms: Option<u64>, io_pages: Option<u64>) {
    let l = log();
    l.wall_threshold_nanos.store(
        wall_ms.map_or(OFF, |ms| ms.saturating_mul(1_000_000)),
        Ordering::Relaxed,
    );
    l.io_threshold_pages
        .store(io_pages.unwrap_or(OFF), Ordering::Relaxed);
}

/// Disable both triggers (the initial state).
pub fn set_off() {
    set_thresholds(None, None);
}

/// The armed thresholds as `(wall_ms, io_pages)`; `None` = off.
pub fn thresholds() -> (Option<u64>, Option<u64>) {
    let l = log();
    let wall = l.wall_threshold_nanos.load(Ordering::Relaxed);
    let pages = l.io_threshold_pages.load(Ordering::Relaxed);
    (
        (wall != OFF).then_some(wall / 1_000_000),
        (pages != OFF).then_some(pages),
    )
}

/// Statement-boundary hook: record the statement if it crossed either
/// armed threshold. Returns whether it was recorded. Costs two relaxed
/// loads when the log is off.
pub fn observe(statement: &str, plan: &str, profile: &Profile, rows: u64, workload: &str) -> bool {
    let l = log();
    let wall_nanos = profile.total_nanos.min(u128::from(u64::MAX)) as u64;
    let io_pages = profile.total_io.page_touches();
    let over_wall = wall_nanos >= l.wall_threshold_nanos.load(Ordering::Relaxed);
    let over_io = io_pages >= l.io_threshold_pages.load(Ordering::Relaxed);
    if !(over_wall || over_io) {
        return false;
    }
    let entry = SlowQuery {
        seq: l.seq.fetch_add(1, Ordering::Relaxed),
        at_nanos: clock_nanos(),
        statement: statement.to_string(),
        plan: plan.to_string(),
        wall_nanos,
        io_pages,
        rows,
        profile: profile.clone(),
        workload: workload.to_string(),
    };
    let mut ring = l.ring.lock();
    ring.push_back(entry);
    let c = counters();
    c.recorded.inc();
    if ring.len() > DEFAULT_CAPACITY {
        ring.pop_front();
        c.evicted.inc();
    }
    true
}

/// Snapshot the retained entries, oldest first.
pub fn entries() -> Vec<SlowQuery> {
    log().ring.lock().iter().cloned().collect()
}

/// Forget all retained entries (sequence numbers keep increasing).
pub fn clear() {
    log().ring.lock().clear();
}

/// Total entries ever recorded (including evicted ones).
pub fn recorded_total() -> u64 {
    log().seq.load(Ordering::Relaxed)
}

/// One JSONL line for a slow-query entry.
pub fn entry_jsonl(e: &SlowQuery) -> String {
    let ops = e
        .profile
        .ops
        .iter()
        .map(|op| {
            format!(
                "{{\"name\":\"{}\",\"nanos\":{},\"io\":{}}}",
                escape(&op.name),
                op.nanos,
                io_json(&op.io)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"type\":\"slow_query\",\"seq\":{},\"at_nanos\":{},\"statement\":\"{}\",\"plan\":\"{}\",\"wall_nanos\":{},\"io_pages\":{},\"rows\":{},\"workload\":\"{}\",\"ops\":[{}]}}",
        e.seq,
        e.at_nanos,
        escape(&e.statement),
        escape(&e.plan),
        e.wall_nanos,
        e.io_pages,
        e.rows,
        escape(&e.workload),
        ops
    )
}

/// The retained entries as JSONL: a `slowlog_dump` header line then one
/// `slow_query` line per entry, oldest first.
pub fn dump_jsonl() -> Vec<String> {
    let entries = entries();
    let mut lines = Vec::with_capacity(entries.len() + 1);
    lines.push(format!(
        "{{\"type\":\"slowlog_dump\",\"schema_version\":{},\"entries\":{},\"recorded_total\":{}}}",
        JSONL_SCHEMA_VERSION,
        entries.len(),
        recorded_total()
    ));
    for e in &entries {
        lines.push(entry_jsonl(e));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io;

    /// The slow log is process-global; tests that arm it must not
    /// interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<std::sync::Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn profile_with_io(pages: u64) -> Profile {
        let mut p = Profile::start();
        for _ in 0..pages {
            io::record_pool_hit();
        }
        p.mark("access:full-scan");
        p.finish()
    }

    #[test]
    fn off_log_records_nothing() {
        let _g = serial();
        set_off();
        clear();
        let p = profile_with_io(1_000);
        assert!(!observe("retrieve (x)", "plan", &p, 10, ""));
        assert!(entries().is_empty());
    }

    #[test]
    fn io_threshold_trips_and_entry_carries_the_profile() {
        let _g = serial();
        set_thresholds(None, Some(3));
        clear();
        let fast = profile_with_io(2);
        let slow = profile_with_io(5);
        assert!(!observe("fast", "p", &fast, 1, ""));
        assert!(observe("slow", "p", &slow, 7, "A.b: reads=1"));
        set_off();
        let got = entries();
        assert_eq!(got.len(), 1);
        let e = &got[0];
        assert_eq!(e.statement, "slow");
        assert_eq!(e.io_pages, 5);
        assert_eq!(e.rows, 7);
        assert_eq!(e.workload, "A.b: reads=1");
        assert_eq!(e.profile.ops[0].name, "access:full-scan");
        assert_eq!(e.profile.total_io.pool_hits, 5);
        clear();
    }

    #[test]
    fn wall_threshold_of_zero_records_everything_and_ring_is_bounded() {
        let _g = serial();
        set_thresholds(Some(0), None);
        clear();
        let base = recorded_total();
        let p = profile_with_io(0);
        for i in 0..(DEFAULT_CAPACITY + 5) {
            assert!(observe(&format!("stmt {i}"), "p", &p, 0, ""));
        }
        set_off();
        let got = entries();
        assert_eq!(got.len(), DEFAULT_CAPACITY, "ring is bounded");
        assert_eq!(recorded_total() - base, (DEFAULT_CAPACITY + 5) as u64);
        // Oldest entries were evicted; the survivors are the newest.
        assert_eq!(got.last().map(|e| e.statement.as_str()), Some("stmt 68"));
        assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
        clear();
    }

    #[test]
    fn dump_lines_are_shaped_and_escaped() {
        let _g = serial();
        set_thresholds(Some(0), None);
        clear();
        let p = profile_with_io(2);
        observe("retrieve (\"x\")", "sys scan", &p, 1, "w");
        set_off();
        let lines = dump_jsonl();
        assert!(lines[0].contains("\"type\":\"slowlog_dump\""));
        assert!(lines[0].contains(&format!("\"schema_version\":{JSONL_SCHEMA_VERSION}")));
        let entry = lines.last().expect("one entry line");
        assert!(entry.contains("\"type\":\"slow_query\""));
        assert!(entry.contains("retrieve (\\\"x\\\")"));
        assert!(entry.contains("\"io_pages\":2"));
        assert!(entry.contains("\"ops\":[{"));
        clear();
    }

    #[test]
    fn thresholds_roundtrip() {
        let _g = serial();
        set_thresholds(Some(25), Some(100));
        assert_eq!(thresholds(), (Some(25), Some(100)));
        set_thresholds(Some(10), None);
        assert_eq!(thresholds(), (Some(10), None));
        set_off();
        assert_eq!(thresholds(), (None, None));
    }
}
