//! Hierarchical spans with page-I/O attribution.
//!
//! A [`Span`] is an RAII guard: [`Span::enter`] snapshots the current
//! thread's [`IoCounts`](crate::io::IoCounts) and wall clock; dropping
//! the span computes the deltas and attaches the finished node to its
//! parent (the span that was open when it entered) or, for roots, to a
//! thread-local finished list drained by [`take_finished`].
//!
//! Tracing is **off by default**. When disabled, `Span::enter` reads one
//! thread-local flag and returns an inert guard — cheap enough to leave
//! span calls in hot paths unconditionally.
//!
//! Independently of the tracing flag, every span enter/exit is fed to
//! the always-on [flight recorder](crate::recorder) (exit events carry
//! the span's wall time and I/O delta), so a post-mortem dump shows the
//! recent span activity even when nobody asked for a trace up front.

use std::cell::RefCell;
use std::time::Instant;

use crate::io::{self, IoCounts};
use crate::names::Name;
use crate::recorder;

/// A finished span: name, wall time, attributed I/O delta, notes, and
/// child spans, in completion order.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Dotted span name, e.g. `"query.read"` or `"btree.lookup"`.
    pub name: String,
    /// [`recorder::clock_nanos`] timestamp at span entry, so trace
    /// exporters can place the span on the shared telemetry clock.
    pub start_nanos: u64,
    /// Wall-clock duration in nanoseconds.
    pub nanos: u128,
    /// Page-I/O delta attributed to this span (children included).
    pub io: IoCounts,
    /// Free-form `key=value` annotations added via [`Span::note`].
    pub notes: Vec<(String, String)>,
    /// Child spans, outermost-first in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total number of nodes in this subtree (including `self`).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::node_count)
            .sum::<usize>()
    }

    /// Depth-first search for the first node named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

struct OpenSpan {
    name: String,
    start: Instant,
    start_nanos: u64,
    io_at_enter: IoCounts,
    notes: Vec<(String, String)>,
    children: Vec<SpanNode>,
}

struct TraceState {
    enabled: bool,
    stack: Vec<OpenSpan>,
    finished: Vec<SpanNode>,
}

thread_local! {
    static TRACE: RefCell<TraceState> = const {
        RefCell::new(TraceState {
            enabled: false,
            stack: Vec::new(),
            finished: Vec::new(),
        })
    };
}

/// Enable or disable tracing on the current thread.
///
/// Disabling mid-trace abandons any open spans.
pub fn set_tracing(enabled: bool) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = enabled;
        if !enabled {
            t.stack.clear();
        }
    });
}

/// Whether tracing is enabled on the current thread.
pub fn tracing_enabled() -> bool {
    TRACE.with(|t| t.borrow().enabled)
}

/// Drain the finished root spans recorded on this thread.
pub fn take_finished() -> Vec<SpanNode> {
    TRACE.with(|t| std::mem::take(&mut t.borrow_mut().finished))
}

/// Flight-recorder bookkeeping carried by a live span: enough to emit
/// the exit event (with wall time and I/O delta) on drop.
struct RecSpan {
    name: &'static str,
    start: Instant,
    io_at_enter: IoCounts,
}

/// RAII span guard; see the [module docs](self).
#[must_use = "a span attributes I/O for as long as the guard lives"]
pub struct Span {
    active: bool,
    rec: Option<RecSpan>,
}

impl Span {
    /// Open a span named `name`. Nested calls become children.
    pub fn enter(name: Name) -> Span {
        Span::open(&name)
    }

    /// Open a child span under a runtime label (an access path, a
    /// projection). Equivalent to [`Span::enter`] while `self` is the
    /// innermost open span; provided for call-site readability.
    pub fn child(&self, label: &str) -> Span {
        Span::open(label)
    }

    fn open(name: &str) -> Span {
        // Flight-recorder hook: fires regardless of the tracing flag so
        // post-mortem dumps always have recent span context.
        let rec = if recorder::enabled() {
            let name = recorder::intern(name);
            recorder::record_interned(name, recorder::EventKind::SpanEnter);
            Some(RecSpan {
                name,
                start: Instant::now(),
                io_at_enter: io::snapshot(),
            })
        } else {
            None
        };
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            if !t.enabled {
                return Span { active: false, rec };
            }
            let open = OpenSpan {
                name: name.to_string(),
                start: Instant::now(),
                start_nanos: recorder::clock_nanos(),
                io_at_enter: io::snapshot(),
                notes: Vec::new(),
                children: Vec::new(),
            };
            t.stack.push(open);
            Span { active: true, rec }
        })
    }

    /// Attach a `key=value` note to this span (innermost open span).
    pub fn note(&self, key: &str, value: impl std::fmt::Display) {
        if !self.active {
            return;
        }
        TRACE.with(|t| {
            if let Some(top) = t.borrow_mut().stack.last_mut() {
                top.notes.push((key.to_string(), value.to_string()));
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            recorder::record_interned(
                rec.name,
                recorder::EventKind::SpanExit {
                    nanos: rec.start.elapsed().as_nanos() as u64,
                    io: io::snapshot() - rec.io_at_enter,
                },
            );
        }
        if !self.active {
            return;
        }
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            // `set_tracing(false)` mid-span clears the stack; nothing to do.
            let Some(open) = t.stack.pop() else { return };
            let node = SpanNode {
                name: open.name,
                start_nanos: open.start_nanos,
                nanos: open.start.elapsed().as_nanos(),
                io: io::snapshot() - open.io_at_enter,
                notes: open.notes,
                children: open.children,
            };
            match t.stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => t.finished.push(node),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{io, names};

    fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanNode>) {
        set_tracing(true);
        take_finished();
        let out = f();
        let spans = take_finished();
        set_tracing(false);
        (out, spans)
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        set_tracing(false);
        {
            let s = Span::enter(names::QUERY_READ);
            s.note("k", "v");
        }
        assert!(take_finished().is_empty());
    }

    #[test]
    fn spans_feed_the_flight_recorder_even_with_tracing_off() {
        use crate::recorder::{self, EventKind};
        set_tracing(false);
        let before = recorder::global().recorded_total();
        {
            let _s = Span::enter(names::BTREE_BULK_LOAD);
            io::record_pool_hit();
        }
        let events = recorder::global().events();
        assert!(recorder::global().recorded_total() >= before + 2);
        let enter = events
            .iter()
            .find(|e| e.name == "btree.bulk_load" && e.kind == EventKind::SpanEnter);
        assert!(enter.is_some(), "enter event recorded");
        let exit = events
            .iter()
            .find(|e| e.name == "btree.bulk_load" && matches!(e.kind, EventKind::SpanExit { .. }));
        let Some(exit) = exit else {
            panic!("exit event recorded");
        };
        if let EventKind::SpanExit { io, .. } = &exit.kind {
            assert_eq!(io.pool_hits, 1, "exit event carries the span's I/O delta");
        }
    }

    #[test]
    fn nesting_builds_a_tree() {
        let (_, spans) = traced(|| {
            let root = Span::enter(names::QUERY_READ);
            {
                let _a = root.child("access");
                let _b = Span::enter(names::BTREE_LOOKUP);
            }
            let _c = root.child("project");
        });
        assert_eq!(spans.len(), 1);
        let root = &spans[0];
        assert_eq!(root.name, "query.read");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "access");
        assert_eq!(root.children[0].children[0].name, "btree.lookup");
        assert_eq!(root.children[1].name, "project");
        assert_eq!(root.node_count(), 4);
        assert!(root.find("btree.lookup").is_some());
    }

    #[test]
    fn io_deltas_attribute_to_the_open_span() {
        let (_, spans) = traced(|| {
            let root = Span::enter(names::QUERY_UPDATE);
            io::record_pool_hit();
            {
                let _child = root.child("inner");
                io::record_disk_read();
                io::record_disk_read();
                io::record_pool_miss();
            }
            io::record_disk_write();
        });
        let root = &spans[0];
        let inner = &root.children[0];
        assert_eq!(inner.io.disk_reads, 2);
        assert_eq!(inner.io.pool_misses, 1);
        assert_eq!(inner.io.disk_writes, 0);
        // The root sees its own I/O plus the child's.
        assert_eq!(root.io.disk_reads, 2);
        assert_eq!(root.io.disk_writes, 1);
        assert_eq!(root.io.pool_hits, 1);
        // Root-exclusive I/O = root delta minus children deltas.
        let exclusive = root.io - inner.io;
        assert_eq!(exclusive.disk_reads, 0);
        assert_eq!(exclusive.disk_writes, 1);
        assert_eq!(exclusive.pool_hits, 1);
    }

    #[test]
    fn notes_and_sequential_roots() {
        let (_, spans) = traced(|| {
            {
                let s = Span::enter(names::QUERY_READ);
                s.note("rows", 42);
            }
            let _ = Span::enter(names::QUERY_UPDATE);
        });
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].notes, vec![("rows".to_string(), "42".to_string())]);
        assert_eq!(spans[1].name, "query.update");
    }
}
