//! Spans, recorded by the harness around its calls into each layer,
//! kept in memory and written at the end as a Chrome-trace document
//! that Perfetto loads.

use crate::json::quote;
use crate::ops::Kind;
use std::time::Instant;

/// Budget of one trace file; spans beyond it are counted, not written.
const MAX_TRACE_BYTES: usize = 8 * 1000 * 1000;
/// A generous size of one written event.
const EVENT_BYTES: usize = 200;

/// What a span is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cat {
    /// One operation, end to end.
    Op,
    /// A layer entered on behalf of the operation.
    Layer,
    /// A layer entered again after the operation, to time a piece of it.
    Probe,
}

/// One span: name, start, end, the operation it belongs to, and the
/// span that caused it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer entry point (or `op`).
    pub name: &'static str,
    /// What kind of span.
    pub cat: Cat,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Operation id (its index in the client's traced stream).
    pub op: u64,
    /// Name of the parent span (`""` for an operation).
    pub parent: &'static str,
    /// The operation's kind.
    pub kind: Kind,
}

/// The operation a span belongs to.
#[derive(Clone, Copy, Debug)]
pub struct OpRef {
    /// Its index in the client's stream.
    pub id: u64,
    /// Its kind.
    pub kind: Kind,
}

/// One client's span buffer.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    /// Spans not kept because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A buffer sharing `epoch` with the other clients' (so their
    /// timelines line up), sized so that `clients` of them fit in one
    /// file.
    pub fn new(epoch: Instant, clients: usize) -> Tracer {
        let cap = MAX_TRACE_BYTES / EVENT_BYTES / clients;
        Tracer {
            epoch,
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Record a span from two clock readings.
    pub fn span(
        &mut self,
        name: &'static str,
        cat: Cat,
        start: Instant,
        end: Instant,
        parent: &'static str,
        op: OpRef,
    ) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        self.span_ns(name, cat, start_ns, dur_ns, parent, op);
    }

    /// Record a span from an offset and a length (for segments an
    /// engine profile reports as durations).
    pub fn span_ns(
        &mut self,
        name: &'static str,
        cat: Cat,
        start_ns: u64,
        dur_ns: u64,
        parent: &'static str,
        op: OpRef,
    ) {
        if self.spans.len() == self.cap {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            cat,
            start_ns,
            dur_ns,
            op: op.id,
            parent,
            kind: op.kind,
        });
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// The spans kept.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Render the clients' spans as a Chrome-trace JSON document: complete
/// (`X`) events, one thread per client, ordered by start with parents
/// before their children, so every thread's timeline is monotone and
/// nests by containment.
pub fn chrome_trace(workload: &str, clients: &[&[Span]]) -> String {
    let mut out =
        String::with_capacity(EVENT_BYTES * clients.iter().map(|c| c.len()).sum::<usize>() + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (tid, spans) in clients.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{workload} client {tid}\"}}}}"
        ));
        let mut order: Vec<&Span> = spans.iter().collect();
        order.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        for s in order {
            let cat = match s.cat {
                Cat::Op => "op",
                Cat::Layer => "layer",
                Cat::Probe => "probe",
            };
            out.push_str(&format!(
                ",{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{tid},\"args\":{{\"op\":{},\"parent\":{},\"kind\":\"{}\"}}}}",
                quote(s.name),
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns / 1000,
                s.dur_ns % 1000,
                s.op,
                quote(s.parent),
                s.kind.name(),
            ));
        }
    }
    out.push_str("]}\n");
    out
}
