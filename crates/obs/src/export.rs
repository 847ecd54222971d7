//! Exporters: human-readable text and JSON lines.
//!
//! The JSON-lines format emits one self-contained object per line:
//! `{"type":"span",...}` (children nested inline), `{"type":"profile",...}`,
//! and one line per registry instrument
//! (`{"type":"counter"|"gauge"|"histogram",...}`). Lines are valid JSON
//! produced by a tiny built-in writer — no external serializer; strings
//! go through [`crate::json::escape`].

use std::fmt::Write as _;

use crate::io::IoCounts;
use crate::json::escape;
use crate::metrics::Snapshot;
use crate::profile::Profile;
use crate::span::SpanNode;

/// Version of the JSON-lines format emitted by this module. Bump when a
/// line type changes shape; consumers should check the `run` header line.
///
/// v2 added the flight-recorder (`recorder_dump`/`recorder_event`) line
/// types. v3 added the slow-query log (`slowlog_dump`/`slow_query`) line
/// types and the `start_nanos` field on `span` lines.
pub const JSONL_SCHEMA_VERSION: u32 = 3;

/// Header line stamping a JSONL stream with the format version and a
/// caller-supplied run identifier, so streams from different runs stay
/// distinguishable after concatenation.
pub fn run_meta_jsonl(run_id: &str) -> String {
    format!(
        "{{\"type\":\"run\",\"schema_version\":{},\"run_id\":\"{}\"}}",
        JSONL_SCHEMA_VERSION,
        escape(run_id)
    )
}

pub(crate) fn io_json(io: &IoCounts) -> String {
    format!(
        "{{\"disk_reads\":{},\"disk_writes\":{},\"disk_allocs\":{},\"pool_hits\":{},\"pool_misses\":{},\"evictions\":{}}}",
        io.disk_reads, io.disk_writes, io.disk_allocs, io.pool_hits, io.pool_misses, io.evictions
    )
}

/// Compact one-line rendering of a set of I/O counters.
pub fn io_text(io: &IoCounts) -> String {
    format!(
        "rd={} wr={} alloc={} hit={} miss={} evict={}",
        io.disk_reads, io.disk_writes, io.disk_allocs, io.pool_hits, io.pool_misses, io.evictions
    )
}

fn span_json(node: &SpanNode) -> String {
    let notes = node
        .notes
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect::<Vec<_>>()
        .join(",");
    let children = node
        .children
        .iter()
        .map(span_json)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"name\":\"{}\",\"start_nanos\":{},\"nanos\":{},\"io\":{},\"notes\":{{{}}},\"children\":[{}]}}",
        escape(&node.name),
        node.start_nanos,
        node.nanos,
        io_json(&node.io),
        notes,
        children
    )
}

/// One JSON line for a root span (children nested inline).
pub fn span_jsonl(node: &SpanNode) -> String {
    format!("{{\"type\":\"span\",\"span\":{}}}", span_json(node))
}

/// One JSON line for a finished [`Profile`].
pub fn profile_jsonl(label: &str, profile: &Profile) -> String {
    let ops = profile
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
        "{{\"type\":\"profile\",\"label\":\"{}\",\"total_nanos\":{},\"total_io\":{},\"ops\":[{}]}}",
        escape(label),
        profile.total_nanos,
        io_json(&profile.total_io),
        ops
    )
}

/// JSON lines for a registry [`Snapshot`]: one line per instrument.
pub fn snapshot_jsonl(snap: &Snapshot) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, value) in &snap.counters {
        lines.push(format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            escape(name),
            value
        ));
    }
    for (name, value) in &snap.gauges {
        lines.push(format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            escape(name),
            value
        ));
    }
    for (name, value) in &snap.derived {
        lines.push(format!(
            "{{\"type\":\"derived\",\"name\":\"{}\",\"value\":{value:.6}}}",
            escape(name),
        ));
    }
    for h in &snap.histograms {
        let q = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let bounds = h
            .bounds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let buckets = h
            .buckets
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        lines.push(format!(
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"mean\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"bounds\":[{}],\"buckets\":[{}]}}",
            escape(&h.name),
            h.count,
            h.sum,
            h.mean,
            h.max,
            q(h.p50),
            q(h.p95),
            q(h.p99),
            bounds,
            buckets
        ));
    }
    lines
}

// ---- Chrome-trace ("Trace Event Format") export ---------------------------

/// Microsecond timestamp with nanosecond fractional precision, as the
/// Trace Event Format's `ts` field expects.
fn chrome_ts(nanos: u128) -> String {
    format!("{}.{:03}", nanos / 1000, nanos % 1000)
}

/// Emit one span subtree as `B`/`E` duration events, depth-first.
///
/// `cursor` is the last emitted timestamp: every event is clamped to be
/// at or after it, so the produced stream is monotone per thread even
/// when sibling clock reads land nanoseconds out of order. All events
/// share `pid:1`/`tid:1` — the engine executes a profiled run on one
/// thread, and the span tree is per-thread to begin with.
fn chrome_events(node: &SpanNode, cursor: &mut u128, out: &mut Vec<String>) {
    let start = u128::from(node.start_nanos).max(*cursor);
    let end = start + node.nanos;
    let notes = node
        .notes
        .iter()
        .map(|(k, v)| format!(",\"{}\":\"{}\"", escape(k), escape(v)))
        .collect::<String>();
    out.push(format!(
        "{{\"name\":\"{}\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":1,\"args\":{{\"io\":{}{notes}}}}}",
        escape(&node.name),
        chrome_ts(start),
        io_json(&node.io)
    ));
    *cursor = start;
    for child in &node.children {
        chrome_events(child, cursor, out);
    }
    let end = end.max(*cursor);
    out.push(format!(
        "{{\"name\":\"{}\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":1}}",
        escape(&node.name),
        chrome_ts(end)
    ));
    *cursor = end;
}

/// Render root spans as one Chrome-trace/Perfetto JSON document
/// (`{"traceEvents":[...]}`), loadable by `chrome://tracing` and
/// [ui.perfetto.dev](https://ui.perfetto.dev). Each span becomes a
/// balanced `B`/`E` duration-event pair on the shared telemetry clock,
/// with its attributed page I/O and notes in `args`.
pub fn chrome_trace_json(spans: &[SpanNode]) -> String {
    let mut events = Vec::new();
    let mut cursor = 0u128;
    for root in spans {
        chrome_events(root, &mut cursor, &mut events);
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

fn span_text_into(node: &SpanNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let notes = if node.notes.is_empty() {
        String::new()
    } else {
        let body = node
            .notes
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        format!("  [{body}]")
    };
    let _ = writeln!(
        out,
        "{indent}{:<width$} {:>9.3}ms  {}{notes}",
        node.name,
        node.nanos as f64 / 1e6,
        io_text(&node.io),
        width = 28usize.saturating_sub(indent.len()).max(12),
    );
    for child in &node.children {
        span_text_into(child, depth + 1, out);
    }
}

/// Render a span tree as indented text, one line per span.
pub fn span_text(node: &SpanNode) -> String {
    let mut out = String::new();
    span_text_into(node, 0, &mut out);
    out
}

/// Render a finished [`Profile`] as an `EXPLAIN ANALYZE`-style table.
pub fn profile_text(label: &str, profile: &Profile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {label}  ({:.3}ms, {})",
        profile.total_nanos as f64 / 1e6,
        io_text(&profile.total_io)
    );
    let _ = writeln!(
        out,
        "  {:<38} {:>10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "operator", "ms", "rd", "wr", "alloc", "hit", "miss", "evict"
    );
    for op in &profile.ops {
        let _ = writeln!(
            out,
            "  {:<38} {:>10.3} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            op.name,
            op.nanos as f64 / 1e6,
            op.io.disk_reads,
            op.io.disk_writes,
            op.io.disk_allocs,
            op.io.pool_hits,
            op.io.pool_misses,
            op.io.evictions
        );
    }
    out
}

/// Render a registry [`Snapshot`] as text.
pub fn snapshot_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "  {name:<42} {value}");
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, value) in &snap.gauges {
            let _ = writeln!(out, "  {name:<42} {value}");
        }
    }
    if !snap.derived.is_empty() {
        let _ = writeln!(out, "derived:");
        for (name, value) in &snap.derived {
            let _ = writeln!(out, "  {name:<42} {value:.4}");
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "histograms:");
        for h in &snap.histograms {
            let q = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
            let _ = writeln!(
                out,
                "  {:<42} n={} mean={:.2} p50={} p95={} p99={} max={}",
                h.name,
                h.count,
                h.mean,
                q(h.p50),
                q(h.p95),
                q(h.p99),
                h.max
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoCounts;
    use crate::json::Json;
    use crate::metrics::Registry;
    use crate::names;
    use crate::profile::Profile;
    use crate::span::{set_tracing, take_finished, Span};
    use std::collections::HashMap;

    /// Parse `s` as one complete JSON document or fail the test.
    fn parsed(s: &str) -> Json {
        Json::parse(s).unwrap_or_else(|e| panic!("invalid JSON ({e}): {s}"))
    }

    /// Check a Chrome-trace document the way a trace viewer reads it:
    /// per `(pid, tid)`, `B`/`E` phases nest like parentheses (an `E`
    /// closes the innermost open `B` with the same name), timestamps
    /// never go backwards, and every stack is empty at the end. Returns
    /// the event count.
    fn check_chrome_trace(doc: &str) -> usize {
        let trace = parsed(doc);
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let mut threads: HashMap<String, (f64, Vec<&str>)> = HashMap::new();
        for (i, ev) in events.iter().enumerate() {
            let field = |k: &str| ev.get(k).unwrap_or_else(|| panic!("event {i}: no {k}"));
            let name = field("name").as_str().expect("name is a string");
            let ts = field("ts").as_f64().expect("ts is a number");
            let tid = format!("{}/{}", field("pid").render(), field("tid").render());
            let (cursor, stack) = threads.entry(tid.clone()).or_insert((ts, Vec::new()));
            assert!(
                ts >= *cursor,
                "event {i} ({name}): ts goes backwards on {tid}"
            );
            *cursor = ts;
            match field("ph").as_str() {
                Some("B") => stack.push(name),
                Some("E") => assert_eq!(
                    stack.pop(),
                    Some(name),
                    "event {i}: E({name}) does not close the innermost B on {tid}"
                ),
                other => panic!("event {i} ({name}): unexpected phase {other:?}"),
            }
        }
        for (tid, (_, stack)) in &threads {
            assert!(stack.is_empty(), "{tid}: spans never closed: {stack:?}");
        }
        events.len()
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let raw = "x\"\\\n\t\r\u{2}y";
        assert_eq!(
            parsed(&format!("\"{}\"", escape(raw))),
            Json::Str(raw.into())
        );
    }

    #[test]
    fn span_jsonl_is_valid_json() {
        set_tracing(true);
        take_finished();
        {
            let root = Span::enter(names::QUERY_READ);
            root.note("k", "v with \"quotes\"");
            let _child = root.child("access:\"odd\" label");
        }
        let spans = take_finished();
        set_tracing(false);
        let line = span_jsonl(&spans[0]);
        parsed(&line);
        assert!(line.contains("\"type\":\"span\""));
        assert!(line.contains("\"children\":[{"));
    }

    #[test]
    fn profile_and_snapshot_jsonl_are_valid_json() {
        let mut p = Profile::start();
        crate::io::record_pool_hit();
        p.mark("access");
        let p = p.finish();
        parsed(&profile_jsonl("read q", &p));

        let r = Registry::default();
        r.counter(names::TXN_COMMIT).add(3);
        r.gauge(names::TXN_ACTIVE).set(-7);
        r.histogram(names::TXN_LOCKSET, &[1, 4, 16]).record(5);
        for line in snapshot_jsonl(&r.snapshot()) {
            parsed(&line);
        }
        assert_eq!(snapshot_jsonl(&r.snapshot()).len(), 3);
    }

    #[test]
    fn run_meta_line_carries_schema_version_and_run_id() {
        let line = parsed(&run_meta_jsonl("bench \"42\""));
        assert_eq!(line.get("type").and_then(Json::as_str), Some("run"));
        assert_eq!(
            line.get("schema_version").and_then(Json::as_f64),
            Some(f64::from(JSONL_SCHEMA_VERSION))
        );
        assert_eq!(
            line.get("run_id").and_then(Json::as_str),
            Some("bench \"42\"")
        );
    }

    #[test]
    fn derived_ratios_appear_in_both_exporters() {
        let r = Registry::default();
        r.counter(names::STORAGE_POOL_HITS).add(9);
        r.counter(names::STORAGE_POOL_MISSES).add(1);
        let snap = r.snapshot();
        let lines = snapshot_jsonl(&snap);
        let derived: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"type\":\"derived\""))
            .collect();
        assert_eq!(derived.len(), 1);
        assert!(derived[0].contains("storage.pool.hit_rate"));
        assert!(derived[0].contains("0.900000"));
        parsed(derived[0]);

        let text = snapshot_text(&snap);
        assert!(text.contains("derived:"));
        assert!(text.contains("storage.pool.hit_rate"));
        assert!(text.contains("0.9000"));
    }

    #[test]
    fn chrome_trace_is_valid_balanced_and_monotone() {
        set_tracing(true);
        take_finished();
        {
            let root = Span::enter(names::QUERY_READ);
            {
                let a = root.child("trace.a");
                a.note("rows", 3);
            }
            let _b = root.child("trace.b");
        }
        let spans = take_finished();
        set_tracing(false);
        let doc = chrome_trace_json(&spans);
        assert_eq!(check_chrome_trace(&doc), 6, "one B and one E per span");
        assert!(doc.contains("\"rows\":\"3\""), "notes land in args");
    }

    #[test]
    fn chrome_trace_clamps_out_of_order_clock_reads() {
        // A child whose recorded start precedes its parent's (possible
        // only through clock-read skew) must still produce a monotone,
        // properly nested stream.
        let child = crate::span::SpanNode {
            name: "c".into(),
            start_nanos: 5,
            nanos: 10_000_000,
            io: IoCounts::default(),
            notes: vec![],
            children: vec![],
        };
        let root = crate::span::SpanNode {
            name: "r".into(),
            start_nanos: 1_000,
            nanos: 2_000,
            io: IoCounts::default(),
            notes: vec![],
            children: vec![child],
        };
        assert_eq!(check_chrome_trace(&chrome_trace_json(&[root])), 4);
        assert_eq!(check_chrome_trace(&chrome_trace_json(&[])), 0);
    }

    #[test]
    fn text_renderers_contain_the_key_facts() {
        let mut p = Profile::start();
        crate::io::record_disk_read();
        p.mark("access:index-range");
        let p = p.finish();
        let text = profile_text("q1", &p);
        assert!(text.contains("access:index-range"));
        assert!(text.contains("operator"));

        let node = crate::span::SpanNode {
            name: "root".into(),
            start_nanos: 0,
            nanos: 1_500_000,
            io: IoCounts {
                disk_reads: 2,
                ..Default::default()
            },
            notes: vec![("rows".into(), "9".into())],
            children: vec![],
        };
        let text = span_text(&node);
        assert!(text.contains("root"));
        assert!(text.contains("rd=2"));
        assert!(text.contains("rows=9"));
    }
}
