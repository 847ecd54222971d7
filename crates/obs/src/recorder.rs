//! Flight recorder: a fixed-capacity ring of the most recent telemetry
//! events, kept **always on** so a crash or engine error can explain
//! itself after the fact.
//!
//! Every span enter/exit (regardless of the per-thread tracing flag) and
//! every I/O component delta lands in a process-wide ring buffer with a
//! monotonic timestamp. The ring never blocks writers on readers: a slot
//! is reserved with one atomic `fetch_add`, then filled under that slot's
//! own tiny mutex (uncontended except when the ring wraps onto an active
//! reader). When the engine hits an error it calls [`record_error`],
//! which appends an error event and hands the last-N-events JSONL dump to
//! the installed sink.
//!
//! Overhead when enabled is a clock read, one atomic increment, and an
//! uncontended lock per event; [`set_enabled`]`(false)` reduces every
//! hook to a single relaxed load (the configuration the bench suite's
//! overhead section compares against).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::export::{io_json, JSONL_SCHEMA_VERSION};
use crate::io::IoCounts;
use crate::json::escape;
use crate::metrics::{registry, Counter};
use crate::names::{self, Name};
use std::collections::BTreeSet;

/// Default ring capacity (events) for the global recorder.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Nanoseconds since the process-wide telemetry clock started (first
/// use). Monotonic; shared by the recorder, spans and the slow-query
/// log so their timestamps are directly comparable.
pub fn clock_nanos() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Intern a name so events store a `&'static str` instead of allocating
/// per event. The table only ever grows and names come from the fixed
/// `obs::names` registry, so the leak is bounded.
pub(crate) fn intern(name: &str) -> &'static str {
    static INTERNED: OnceLock<RwLock<BTreeSet<&'static str>>> = OnceLock::new();
    let set = INTERNED.get_or_init(|| RwLock::new(BTreeSet::new()));
    if let Some(s) = set.read().get(name) {
        return s;
    }
    let mut w = set.write();
    if let Some(s) = w.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    w.insert(leaked);
    leaked
}

/// What happened, per event.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A span was opened.
    SpanEnter,
    /// A span closed after `nanos`, having attributed `io`.
    SpanExit {
        /// Span wall time in nanoseconds.
        nanos: u64,
        /// Page-I/O delta over the span's lifetime.
        io: IoCounts,
    },
    /// A named I/O component delta was published (metric delta).
    IoDelta {
        /// The component's page-I/O delta.
        io: IoCounts,
    },
    /// An engine error surfaced.
    Error {
        /// The error's display text.
        message: String,
    },
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic sequence number (global order of recording).
    pub seq: u64,
    /// [`clock_nanos`] timestamp at recording.
    pub at_nanos: u64,
    /// The span/component name the event is about.
    pub name: &'static str,
    /// What happened.
    pub kind: EventKind,
}

/// The ring buffer itself. The process-wide instance is [`global`];
/// tests can build private instances with [`Recorder::with_capacity`].
pub struct Recorder {
    enabled: AtomicBool,
    seq: AtomicU64,
    slots: Vec<Mutex<Option<Event>>>,
}

impl Recorder {
    /// A recorder holding at most `capacity` events (≥ 1).
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Append one event. Returns `Some(evicted)` when recorded (with
    /// whether an older event was overwritten), `None` when disabled.
    pub fn record(&self, name: &str, kind: EventKind) -> Option<bool> {
        self.record_interned(intern(name), kind)
    }

    /// [`Recorder::record`] for a caller that holds the [`intern`]ed name
    /// already — a span interns once for its enter and its exit.
    pub(crate) fn record_interned(&self, name: &'static str, kind: EventKind) -> Option<bool> {
        if !self.enabled() {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.slots.len() as u64) as usize;
        let event = Event {
            seq,
            at_nanos: clock_nanos(),
            name,
            kind,
        };
        let mut slot = self.slots[idx].lock();
        let evicted = slot.is_some();
        *slot = Some(event);
        Some(evicted)
    }

    /// Number of events ever recorded (including evicted ones).
    pub fn recorded_total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Snapshot the retained events in sequence order.
    pub fn events(&self) -> Vec<Event> {
        let mut out: Vec<Event> = self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Forget all retained events (sequence numbers keep increasing).
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.lock() = None;
        }
    }

    /// The retained events as JSONL: a `recorder_dump` header line then
    /// one `recorder_event` line per event, oldest first.
    pub fn dump_jsonl(&self) -> Vec<String> {
        let events = self.events();
        let total = self.recorded_total();
        let mut lines = Vec::with_capacity(events.len() + 1);
        lines.push(format!(
            "{{\"type\":\"recorder_dump\",\"schema_version\":{},\"events\":{},\"recorded_total\":{}}}",
            JSONL_SCHEMA_VERSION,
            events.len(),
            total
        ));
        for e in &events {
            lines.push(event_jsonl(e));
        }
        lines
    }
}

/// One JSONL line for a recorded event.
pub fn event_jsonl(e: &Event) -> String {
    let head = format!(
        "{{\"type\":\"recorder_event\",\"seq\":{},\"at_nanos\":{},\"name\":\"{}\"",
        e.seq,
        e.at_nanos,
        escape(e.name)
    );
    match &e.kind {
        EventKind::SpanEnter => format!("{head},\"event\":\"span_enter\"}}"),
        EventKind::SpanExit { nanos, io } => format!(
            "{head},\"event\":\"span_exit\",\"nanos\":{nanos},\"io\":{}}}",
            io_json(io)
        ),
        EventKind::IoDelta { io } => {
            format!("{head},\"event\":\"io_delta\",\"io\":{}}}", io_json(io))
        }
        EventKind::Error { message } => format!(
            "{head},\"event\":\"error\",\"message\":\"{}\"}}",
            escape(message)
        ),
    }
}

struct RecorderCounters {
    events: Arc<Counter>,
    dropped: Arc<Counter>,
    dumps: Arc<Counter>,
    dumps_suppressed: Arc<Counter>,
    errors: Arc<Counter>,
}

fn counters() -> &'static RecorderCounters {
    static COUNTERS: OnceLock<RecorderCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = registry();
        RecorderCounters {
            events: r.counter(names::OBS_RECORDER_EVENTS),
            dropped: r.counter(names::OBS_RECORDER_DROPPED),
            dumps: r.counter(names::OBS_RECORDER_DUMPS),
            dumps_suppressed: r.counter(names::OBS_RECORDER_DUMPS_SUPPRESSED),
            errors: r.counter(names::OBS_RECORDER_ERRORS),
        }
    })
}

/// The process-wide recorder the span/I-O hooks feed.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(|| Recorder::with_capacity(DEFAULT_CAPACITY))
}

/// Enable or disable the global recorder (it starts enabled).
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the global recorder is currently recording.
pub fn enabled() -> bool {
    global().enabled()
}

/// Record one event in the global ring and maintain the
/// `obs.recorder.*` counters. No-op (one relaxed load) when disabled.
pub fn record(name: &str, kind: EventKind) {
    if enabled() {
        record_interned(intern(name), kind);
    }
}

/// [`record`] with the name already [`intern`]ed.
pub(crate) fn record_interned(name: &'static str, kind: EventKind) {
    if let Some(evicted) = global().record_interned(name, kind) {
        let c = counters();
        c.events.inc();
        if evicted {
            c.dropped.inc();
        }
    }
}

/// Dump the global ring as JSONL (header line + one line per event).
pub fn dump_jsonl() -> Vec<String> {
    counters().dumps.inc();
    global().dump_jsonl()
}

type DumpSink = Box<dyn Fn(&[String]) + Send + Sync>;

/// Most dumps one installed sink receives before further dumps are
/// suppressed (counted by `obs.recorder.dumps_suppressed`). A repeating
/// error storm still records every error *event*; the rate limit only
/// guards against re-dumping the whole ring per occurrence.
pub const MAX_DUMPS_PER_SINK: u64 = 8;

struct SinkState {
    sink: DumpSink,
    /// `(origin, message)` of the last error this sink dumped for, so a
    /// repeat of the same error dedupes instead of dumping again.
    last_error: Option<(String, String)>,
    /// Dumps delivered since this sink was installed.
    delivered: u64,
}

fn error_sink() -> &'static Mutex<Option<SinkState>> {
    static SINK: OnceLock<Mutex<Option<SinkState>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Install (or replace) the sink that receives the JSONL dump whenever
/// [`record_error`] fires. Binaries typically write the lines to a file;
/// the recorder itself never touches the filesystem. Installing a sink
/// resets the per-sink dump budget and dedupe state.
pub fn set_error_sink(sink: impl Fn(&[String]) + Send + Sync + 'static) {
    *error_sink().lock() = Some(SinkState {
        sink: Box::new(sink),
        last_error: None,
        delivered: 0,
    });
}

/// Remove the error sink installed by [`set_error_sink`].
pub fn clear_error_sink() {
    *error_sink().lock() = None;
}

/// Record an engine error against `origin` (a registered span/component
/// name) and, when a sink is installed, hand it the ring dump.
///
/// Dumps are rate-limited per sink: a consecutive repeat of the same
/// `(origin, message)` pair and anything past [`MAX_DUMPS_PER_SINK`]
/// increments `obs.recorder.dumps_suppressed` instead of dumping. The
/// first occurrence of a new error always dumps (budget permitting).
pub fn record_error(origin: Name, message: &str) {
    record(
        &origin,
        EventKind::Error {
            message: message.to_string(),
        },
    );
    counters().errors.inc();
    let mut sink = error_sink().lock();
    if let Some(state) = sink.as_mut() {
        let key = (origin.to_string(), message.to_string());
        let repeat = state.last_error.as_ref() == Some(&key);
        if repeat || state.delivered >= MAX_DUMPS_PER_SINK {
            counters().dumps_suppressed.inc();
            return;
        }
        state.last_error = Some(key);
        state.delivered += 1;
        (state.sink)(&dump_jsonl());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_events() {
        let r = Recorder::with_capacity(4);
        for i in 0..10u64 {
            let evicted = r
                .record("t.ring", EventKind::SpanEnter)
                .expect("enabled recorder records");
            assert_eq!(evicted, i >= 4, "eviction starts once the ring is full");
        }
        let events = r.events();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest events were overwritten");
        assert_eq!(r.recorded_total(), 10);
        assert!(
            events.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos),
            "timestamps are monotonic in sequence order"
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::with_capacity(4);
        r.set_enabled(false);
        assert!(r.record("t.off", EventKind::SpanEnter).is_none());
        assert!(r.events().is_empty());
        r.set_enabled(true);
        assert!(r.record("t.off", EventKind::SpanEnter).is_some());
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn dump_header_carries_schema_version_and_counts() {
        let r = Recorder::with_capacity(8);
        r.record("t.dump", EventKind::SpanEnter);
        r.record(
            "t.dump",
            EventKind::SpanExit {
                nanos: 42,
                io: IoCounts {
                    disk_reads: 3,
                    ..Default::default()
                },
            },
        );
        r.record(
            "t.dump",
            EventKind::Error {
                message: "boom \"quoted\"".into(),
            },
        );
        let lines = r.dump_jsonl();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"type\":\"recorder_dump\""));
        assert!(lines[0].contains(&format!("\"schema_version\":{JSONL_SCHEMA_VERSION}")));
        assert!(lines[0].contains("\"events\":3"));
        assert!(lines[1].contains("\"event\":\"span_enter\""));
        assert!(lines[2].contains("\"event\":\"span_exit\""));
        assert!(lines[2].contains("\"disk_reads\":3"));
        assert!(lines[3].contains("\"event\":\"error\""));
        assert!(lines[3].contains("boom \\\"quoted\\\""));
    }

    #[test]
    fn clear_forgets_events_but_not_sequence() {
        let r = Recorder::with_capacity(4);
        r.record("t.clear", EventKind::SpanEnter);
        r.record("t.clear", EventKind::SpanEnter);
        r.clear();
        assert!(r.events().is_empty());
        assert_eq!(r.recorded_total(), 2);
        r.record("t.clear", EventKind::SpanEnter);
        assert_eq!(r.events()[0].seq, 2);
    }

    #[test]
    fn error_dumps_dedupe_and_cap_per_sink() {
        use std::sync::atomic::AtomicUsize;
        let suppressed = registry().counter(names::OBS_RECORDER_DUMPS_SUPPRESSED);
        let suppressed_before = suppressed.get();
        let delivered = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&delivered);
        set_error_sink(move |_| {
            d.fetch_add(1, Ordering::SeqCst);
        });
        record_error(names::CORE_PROPAGATE, "same boom");
        record_error(names::CORE_PROPAGATE, "same boom");
        record_error(names::CORE_PROPAGATE, "same boom");
        assert_eq!(
            delivered.load(Ordering::SeqCst),
            1,
            "consecutive repeats dedupe after the first dump"
        );
        record_error(names::CORE_PROPAGATE, "other boom");
        assert_eq!(delivered.load(Ordering::SeqCst), 2, "a new error dumps");
        record_error(names::CORE_PROPAGATE, "same boom");
        assert_eq!(
            delivered.load(Ordering::SeqCst),
            3,
            "a non-consecutive repeat dumps again"
        );
        for i in 0..20 {
            record_error(names::CORE_PROPAGATE, &format!("boom {i}"));
        }
        assert_eq!(
            delivered.load(Ordering::SeqCst) as u64,
            MAX_DUMPS_PER_SINK,
            "the per-sink budget caps deliveries"
        );
        assert!(
            suppressed.get() > suppressed_before,
            "suppressed dumps are counted"
        );

        // Re-installing the sink resets both the budget and the dedupe.
        let delivered2 = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&delivered2);
        set_error_sink(move |_| {
            d2.fetch_add(1, Ordering::SeqCst);
        });
        record_error(names::CORE_PROPAGATE, "same boom");
        assert_eq!(delivered2.load(Ordering::SeqCst), 1);
        clear_error_sink();
    }

    #[test]
    fn interning_returns_stable_pointers() {
        let a = intern("t.intern.name");
        let b = intern("t.intern.name");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "t.intern.name");
    }
}
