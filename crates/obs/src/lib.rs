//! Observability for the field-replication engine.
//!
//! Three cooperating pieces, all dependency-free (std + `parking_lot`):
//!
//! * [`io`] — page-I/O accounting. The storage layer calls the `record_*`
//!   hooks on every buffer-pool and disk event; the counts land in a
//!   **thread-local** accumulator (so concurrent test threads never
//!   pollute each other's attribution) and are mirrored into the global
//!   [`metrics`] registry for process-wide totals.
//! * [`span`] — hierarchical spans. [`span::Span::enter`] snapshots the
//!   thread-local I/O counts; when the span drops, the delta (pages
//!   read/written, pool hits/misses, evictions) and wall time are
//!   attached to the finished span tree. Tracing is off by default and
//!   costs one thread-local read per `enter` when disabled.
//! * [`metrics`] — named counters, gauges, and fixed-bucket histograms
//!   with `p50`/`p95`/`p99` accessors, behind cheap atomics.
//!
//! [`profile::Profile`] builds on [`io`] to give queries an
//! `EXPLAIN ANALYZE`-style per-operator breakdown whose segments
//! telescope: the per-operator I/O deltas sum **exactly** to the
//! profile's total, by construction.
//!
//! [`export`] renders span trees and registry snapshots as
//! human-readable text or JSON lines; [`json`] is the one JSON value
//! type, parser and string escaper every exporter and harness shares.
//!
//! [`recorder`] is always on: a fixed-capacity flight-recorder ring of
//! recent span and I/O-delta events for post-mortem dumps.
//!
//! The introspection layer makes all of it *data*: [`sys`] exposes the
//! obs structures as virtual-table rows (queryable from `lang` as
//! `sys.metrics`, `sys.recorder`, …), [`slowlog`] keeps a bounded ring
//! of over-threshold statements with their full per-operator profiles,
//! and [`export::chrome_trace_json`] renders any span tree as a
//! Chrome-trace/Perfetto document.

pub mod export;
pub mod io;
pub mod json;
pub mod metrics;
pub mod names;
pub mod profile;
pub mod recorder;
pub mod slowlog;
pub mod span;
pub mod sys;

pub use io::IoCounts;
pub use metrics::{registry, Registry};
pub use profile::{OpProfile, Profile};
pub use span::{set_tracing, take_finished, tracing_enabled, Span, SpanNode};
