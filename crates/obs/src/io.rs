//! Page-I/O accounting hooks.
//!
//! The storage layer calls one `record_*` function per buffer-pool or
//! disk event. Each call bumps a thread-local [`IoCounts`] — the basis
//! for span and profile attribution, exact per thread because the engine
//! executes a query on one thread — and a mirrored global counter in the
//! [`metrics`](crate::metrics) registry for process-wide totals.

use std::cell::Cell;
use std::ops::{Add, AddAssign, Sub};
use std::sync::OnceLock;

use crate::metrics::{registry, Counter};
use crate::names::{self, Name};
use std::sync::Arc;

/// A bundle of page-I/O event counts (or a delta between two snapshots).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Pages read from disk.
    pub disk_reads: u64,
    /// Pages written to disk.
    pub disk_writes: u64,
    /// Pages allocated on disk.
    pub disk_allocs: u64,
    /// Buffer-pool hits.
    pub pool_hits: u64,
    /// Buffer-pool misses.
    pub pool_misses: u64,
    /// Buffer-pool frame evictions.
    pub evictions: u64,
}

impl IoCounts {
    /// Total disk transfers (reads + writes).
    pub fn disk_total(&self) -> u64 {
        self.disk_reads + self.disk_writes
    }

    /// Total page touches through the pool (hits + misses).
    pub fn page_touches(&self) -> u64 {
        self.pool_hits + self.pool_misses
    }

    /// True if every count is zero.
    pub fn is_zero(&self) -> bool {
        *self == IoCounts::default()
    }

    /// Saturating per-field difference (`self` later, `earlier` first).
    pub fn delta_since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            disk_reads: self.disk_reads.saturating_sub(earlier.disk_reads),
            disk_writes: self.disk_writes.saturating_sub(earlier.disk_writes),
            disk_allocs: self.disk_allocs.saturating_sub(earlier.disk_allocs),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

impl Add for IoCounts {
    type Output = IoCounts;
    fn add(self, rhs: IoCounts) -> IoCounts {
        IoCounts {
            disk_reads: self.disk_reads + rhs.disk_reads,
            disk_writes: self.disk_writes + rhs.disk_writes,
            disk_allocs: self.disk_allocs + rhs.disk_allocs,
            pool_hits: self.pool_hits + rhs.pool_hits,
            pool_misses: self.pool_misses + rhs.pool_misses,
            evictions: self.evictions + rhs.evictions,
        }
    }
}

impl AddAssign for IoCounts {
    fn add_assign(&mut self, rhs: IoCounts) {
        *self = *self + rhs;
    }
}

impl Sub for IoCounts {
    type Output = IoCounts;
    fn sub(self, rhs: IoCounts) -> IoCounts {
        self.delta_since(&rhs)
    }
}

thread_local! {
    static DISK_READS: Cell<u64> = const { Cell::new(0) };
    static DISK_WRITES: Cell<u64> = const { Cell::new(0) };
    static DISK_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static POOL_HITS: Cell<u64> = const { Cell::new(0) };
    static POOL_MISSES: Cell<u64> = const { Cell::new(0) };
    static EVICTIONS: Cell<u64> = const { Cell::new(0) };
}

struct Mirror {
    disk_reads: Arc<Counter>,
    disk_writes: Arc<Counter>,
    disk_allocs: Arc<Counter>,
    pool_hits: Arc<Counter>,
    pool_misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

fn mirror() -> &'static Mirror {
    static MIRROR: OnceLock<Mirror> = OnceLock::new();
    MIRROR.get_or_init(|| {
        let r = registry();
        Mirror {
            disk_reads: r.counter(names::STORAGE_DISK_READS),
            disk_writes: r.counter(names::STORAGE_DISK_WRITES),
            disk_allocs: r.counter(names::STORAGE_DISK_ALLOCS),
            pool_hits: r.counter(names::STORAGE_POOL_HITS),
            pool_misses: r.counter(names::STORAGE_POOL_MISSES),
            evictions: r.counter(names::STORAGE_POOL_EVICTIONS),
        }
    })
}

macro_rules! record_fn {
    ($(#[$meta:meta])* $name:ident, $cell:ident, $counter:ident) => {
        $(#[$meta])*
        pub fn $name() {
            $cell.with(|c| c.set(c.get() + 1));
            mirror().$counter.inc();
        }
    };
}

record_fn!(
    /// Record one page read from disk.
    record_disk_read, DISK_READS, disk_reads
);
record_fn!(
    /// Record one page written to disk.
    record_disk_write, DISK_WRITES, disk_writes
);
record_fn!(
    /// Record one page allocated on disk.
    record_disk_alloc, DISK_ALLOCS, disk_allocs
);
record_fn!(
    /// Record one buffer-pool hit.
    record_pool_hit, POOL_HITS, pool_hits
);
record_fn!(
    /// Record one buffer-pool miss.
    record_pool_miss, POOL_MISSES, pool_misses
);
record_fn!(
    /// Record one buffer-pool frame eviction.
    record_eviction, EVICTIONS, evictions
);

/// Snapshot this thread's cumulative I/O counts.
///
/// Subtract two snapshots (or use [`IoCounts::delta_since`]) to attribute
/// the I/O that happened between them.
pub fn snapshot() -> IoCounts {
    IoCounts {
        disk_reads: DISK_READS.with(Cell::get),
        disk_writes: DISK_WRITES.with(Cell::get),
        disk_allocs: DISK_ALLOCS.with(Cell::get),
        pool_hits: POOL_HITS.with(Cell::get),
        pool_misses: POOL_MISSES.with(Cell::get),
        evictions: EVICTIONS.with(Cell::get),
    }
}

// ---------------------------------------------------------------------------
// Named component accumulators.
//
// Lower layers sometimes do work *inside* a segment that an upper layer
// wants to attribute separately (e.g. replica propagation inside a query's
// "apply" operator). The lower layer adds its delta under a name; the
// upper layer takes it and splits its own segment.

use std::cell::RefCell;
use std::collections::HashMap;

thread_local! {
    static COMPONENTS: RefCell<HashMap<Name, IoCounts>> = RefCell::new(HashMap::new());
}

/// Accumulate `delta` under `name` for the current thread.
///
/// Non-zero deltas are also fed to the always-on
/// [flight recorder](crate::recorder) as metric-delta events, so a
/// post-mortem dump shows which component moved pages right before a
/// failure.
pub fn component_add(name: Name, delta: IoCounts) {
    if !delta.is_zero() {
        crate::recorder::record(&name, crate::recorder::EventKind::IoDelta { io: delta });
    }
    COMPONENTS.with(|m| {
        *m.borrow_mut().entry(name).or_default() += delta;
    });
}

/// Take (and reset) the accumulated delta for `name` on this thread.
pub fn component_take(name: Name) -> IoCounts {
    COMPONENTS.with(|m| m.borrow_mut().remove(&name).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn snapshots_delta_cleanly() {
        let before = snapshot();
        record_disk_read();
        record_disk_read();
        record_pool_hit();
        record_eviction();
        let delta = snapshot() - before;
        assert_eq!(delta.disk_reads, 2);
        assert_eq!(delta.pool_hits, 1);
        assert_eq!(delta.evictions, 1);
        assert_eq!(delta.disk_writes, 0);
        assert_eq!(delta.disk_total(), 2);
    }

    #[test]
    fn thread_locals_do_not_leak_across_threads() {
        let before = snapshot();
        std::thread::spawn(|| {
            for _ in 0..100 {
                record_disk_write();
            }
        })
        .join()
        .unwrap();
        let delta = snapshot() - before;
        assert_eq!(
            delta.disk_writes, 0,
            "other thread's I/O must not appear here"
        );
    }

    #[test]
    fn components_accumulate_and_reset() {
        assert!(component_take(names::CORE_PROPAGATE).is_zero());
        component_add(
            names::CORE_PROPAGATE,
            IoCounts {
                pool_hits: 3,
                ..Default::default()
            },
        );
        component_add(
            names::CORE_PROPAGATE,
            IoCounts {
                pool_hits: 2,
                disk_reads: 1,
                ..Default::default()
            },
        );
        let taken = component_take(names::CORE_PROPAGATE);
        assert_eq!(taken.pool_hits, 5);
        assert_eq!(taken.disk_reads, 1);
        assert!(
            component_take(names::CORE_PROPAGATE).is_zero(),
            "take resets"
        );
    }
}
