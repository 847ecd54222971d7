//! `EXPLAIN ANALYZE`-style per-operator profiles.
//!
//! A [`Profile`] carves a query's execution into contiguous **segments**:
//! [`Profile::start`] snapshots the thread-local I/O counts, each
//! [`Profile::mark`] closes the segment since the previous mark (or the
//! start) under an operator name, and [`Profile::finish`] closes any
//! residual as `"other"` and records the totals. Because segments
//! telescope over one uninterrupted counter stream, the per-operator
//! I/O deltas sum **exactly** to the profile's total — the invariant the
//! bench harness asserts against the raw storage `IoProfile`.
//!
//! [`Profile::split_last`] lets a caller carve a lower layer's
//! contribution (accumulated via
//! [`io::component_add`](crate::io::component_add)) out of the segment it
//! happened inside, preserving the sum.

use std::time::Instant;

use crate::io::{self, IoCounts};

/// I/O and wall time attributed to one plan operator.
#[derive(Clone, Debug)]
pub struct OpProfile {
    /// Operator label, e.g. `"access:index-range(R.field_r)"`.
    pub name: String,
    /// Page-I/O delta for this operator's segment.
    pub io: IoCounts,
    /// Wall-clock nanoseconds for this operator's segment.
    pub nanos: u128,
}

/// A per-operator breakdown of one query execution. See the
/// [module docs](self) for the telescoping-segment construction.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Per-operator segments, in execution order.
    pub ops: Vec<OpProfile>,
    /// Total I/O delta from [`Profile::start`] to [`Profile::finish`].
    pub total_io: IoCounts,
    /// Total wall-clock nanoseconds.
    pub total_nanos: u128,
    start_io: IoCounts,
    start_t: Instant,
    last_io: IoCounts,
    last_t: Instant,
}

impl Profile {
    /// Begin profiling: snapshot this thread's I/O counts and the clock.
    pub fn start() -> Profile {
        let now = Instant::now();
        let snap = io::snapshot();
        Profile {
            // A read closes plan, access, sync, fetch, spool and one
            // segment per projection.
            ops: Vec::with_capacity(8),
            total_io: IoCounts::default(),
            total_nanos: 0,
            start_io: snap,
            start_t: now,
            last_io: snap,
            last_t: now,
        }
    }

    /// Close the segment since the previous mark under `name`.
    ///
    /// Zero-I/O segments are still recorded: a plan operator that did no
    /// page I/O is information, not noise.
    pub fn mark(&mut self, name: impl Into<String>) {
        let now = Instant::now();
        let snap = io::snapshot();
        self.ops.push(OpProfile {
            name: name.into(),
            io: snap - self.last_io,
            nanos: now.duration_since(self.last_t).as_nanos(),
        });
        self.last_io = snap;
        self.last_t = now;
    }

    /// Split `carve` out of the most recent segment into its own
    /// operator named `name`, keeping the per-operator sum intact.
    ///
    /// Used to attribute work a lower layer did *inside* the last
    /// segment (e.g. replica propagation inside `"apply"`). The carved
    /// I/O is clamped to the segment's own delta; wall time is
    /// apportioned by the carved share of the segment's page touches.
    pub fn split_last(&mut self, name: impl Into<String>, carve: IoCounts) {
        let Some(last) = self.ops.last_mut() else {
            return;
        };
        let carve = IoCounts {
            disk_reads: carve.disk_reads.min(last.io.disk_reads),
            disk_writes: carve.disk_writes.min(last.io.disk_writes),
            disk_allocs: carve.disk_allocs.min(last.io.disk_allocs),
            pool_hits: carve.pool_hits.min(last.io.pool_hits),
            pool_misses: carve.pool_misses.min(last.io.pool_misses),
            evictions: carve.evictions.min(last.io.evictions),
        };
        if carve.is_zero() {
            return;
        }
        let touches = last.io.page_touches().max(1);
        let carved_nanos = (last.nanos * carve.page_touches() as u128) / touches as u128;
        last.io = last.io - carve;
        last.nanos -= carved_nanos;
        self.ops.push(OpProfile {
            name: name.into(),
            io: carve,
            nanos: carved_nanos,
        });
    }

    /// Finish profiling: close any residual segment as `"other"` and set
    /// the totals. Returns `self` for call-chaining convenience.
    pub fn finish(mut self) -> Profile {
        let now = Instant::now();
        let snap = io::snapshot();
        let residual = snap - self.last_io;
        if !residual.is_zero() {
            self.ops.push(OpProfile {
                name: crate::names::OP_OTHER.to_string(),
                io: residual,
                nanos: now.duration_since(self.last_t).as_nanos(),
            });
        }
        self.total_io = snap - self.start_io;
        self.total_nanos = now.duration_since(self.start_t).as_nanos();
        self
    }

    /// Sum of the per-operator I/O deltas.
    ///
    /// Equals [`Profile::total_io`] after [`Profile::finish`] — the
    /// invariant the tests assert.
    pub fn ops_io_sum(&self) -> IoCounts {
        self.ops
            .iter()
            .fold(IoCounts::default(), |acc, op| acc + op.io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io;

    #[test]
    fn segments_telescope_to_the_total() {
        let mut p = Profile::start();
        io::record_disk_read();
        io::record_pool_miss();
        p.mark("access");
        io::record_pool_hit();
        io::record_pool_hit();
        p.mark("project");
        io::record_disk_write();
        let p = p.finish(); // residual write lands in "other"
        assert_eq!(p.ops.len(), 3);
        assert_eq!(p.ops[0].name, "access");
        assert_eq!(p.ops[0].io.disk_reads, 1);
        assert_eq!(p.ops[1].io.pool_hits, 2);
        assert_eq!(p.ops[2].name, "other");
        assert_eq!(p.ops[2].io.disk_writes, 1);
        assert_eq!(p.ops_io_sum(), p.total_io);
    }

    #[test]
    fn zero_io_segments_are_kept() {
        let mut p = Profile::start();
        p.mark("plan");
        io::record_pool_hit();
        p.mark("access");
        let p = p.finish();
        assert_eq!(p.ops.len(), 2);
        assert!(p.ops[0].io.is_zero());
        assert_eq!(p.ops_io_sum(), p.total_io);
    }

    #[test]
    fn split_last_preserves_the_sum() {
        let mut p = Profile::start();
        io::record_pool_hit();
        io::record_pool_hit();
        io::record_pool_hit();
        io::record_disk_write();
        p.mark("apply");
        p.split_last(
            "core.propagate",
            IoCounts {
                pool_hits: 2,
                ..Default::default()
            },
        );
        let p = p.finish();
        assert_eq!(p.ops.len(), 2);
        assert_eq!(p.ops[0].name, "apply");
        assert_eq!(p.ops[0].io.pool_hits, 1);
        assert_eq!(p.ops[0].io.disk_writes, 1);
        assert_eq!(p.ops[1].name, "core.propagate");
        assert_eq!(p.ops[1].io.pool_hits, 2);
        assert_eq!(p.ops_io_sum(), p.total_io);
    }

    #[test]
    fn split_with_nothing_to_carve_is_a_noop() {
        let mut p = Profile::start();
        io::record_pool_hit();
        p.mark("apply");
        p.split_last("core.propagate", IoCounts::default());
        let p = p.finish();
        assert_eq!(p.ops.len(), 1);
        assert_eq!(p.ops_io_sum(), p.total_io);
    }
}
