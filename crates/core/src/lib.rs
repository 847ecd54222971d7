//! # fieldrep-core
//!
//! The paper's primary contribution: **field replication** for an
//! object-oriented DBMS, with both storage strategies —
//!
//! * **in-place replication** (§4): replicated values stored as hidden
//!   fields inside the referencing objects, kept consistent through
//!   *inverted paths* built from link objects and `(link-OID, link-ID)`
//!   pairs, with link sharing across paths with common prefixes (§4.1.4)
//!   and the small-link inlining optimization (§4.3.1);
//! * **separate replication** (§5): replicated values stored in shared
//!   replica objects in a tightly clustered side file `S'`, with
//!   refcounted anchors and `(n−1)`-level inverted paths.
//!
//! The crate exposes a [`Database`] facade implementing the data-model
//! operations of §2–§3 (`define type`, set creation, `replicate`,
//! `build btree on <path>`) and object DML with full, automatic update
//! propagation.

pub mod attach;
pub mod chain;
pub mod collapsed;
pub mod database;
pub mod error;
pub mod links;
pub mod objects;
pub mod propagate;
pub mod replicas;
pub mod ripple;
pub mod stats;
pub mod txn;
pub mod workload;

pub use database::Database;
pub use error::{DbError, Result};
pub use objects::{read_object, value_key, write_object, LINK_TAG, REPLICA_TAG};
pub use stats::PathStats;
pub use txn::{LockSet, TxnManager, TxnStats};
pub use workload::{PathWorkload, WorkloadStats};

use fieldrep_catalog::{Catalog, PathId};
use fieldrep_storage::{ApplySection, Oid, PageHandle, PagePins, StorageManager};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Buffer-pool size, in 4 KiB pages.
    pub pool_pages: usize,
    /// §4.3.1: level-0 link objects holding at most this many OIDs are
    /// eliminated and stored inline in the referenced object. `0`
    /// disables inlining (every membership gets a link object) — the
    /// setting used when validating the paper's cost model, which always
    /// charges for the link file.
    pub inline_link_threshold: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            pool_pages: 4096, // 16 MiB
            inline_link_threshold: 2,
        }
    }
}

/// Borrowed engine context threaded through the maintenance routines.
///
/// Every field is a shared reference: the storage manager and the
/// pending set have their own interior synchronization, so one context
/// can be built from `&Database` and used concurrently from many
/// threads.
pub struct EngineCtx<'a> {
    /// Storage manager.
    pub sm: &'a StorageManager,
    /// Catalog (immutable during DML).
    pub cat: &'a Catalog,
    /// Configuration.
    pub cfg: &'a DbConfig,
    /// Deferred-propagation work queue (§8 / `Propagation::Deferred`).
    pub pending: &'a PendingSet,
    /// Observed per-path workload statistics (reads, ripples, EWMAs).
    pub workload: &'a WorkloadStats,
}

/// An [`EngineCtx`] inside the apply section: what the write path runs
/// with. `w` is the proof every storage mutator demands (see
/// [`ApplySection`]); reads go through the context it dereferences to.
/// Only [`Database::apply_and_commit`] hands out the section.
pub struct WriteCtx<'a> {
    ctx: EngineCtx<'a>,
    /// The apply section this context writes under.
    pub w: &'a ApplySection<'a>,
    /// The pins every page request of the write is asked of: an update's,
    /// insert's, delete's or sync's plan hands over the set it read through
    /// (see [`ripple`]); [`Database::write_ctx`] gives one that keeps
    /// none. It drops with the context, when the apply returns.
    pub(crate) pins: PagePins,
}

impl WriteCtx<'_> {
    /// The handle of `oid`'s page, asked of the write's page pins.
    pub fn page_of(&self, oid: Oid) -> fieldrep_storage::Result<PageHandle> {
        self.pins.fetch(self.sm.pool(), oid.page_id())
    }
}

impl<'a> std::ops::Deref for WriteCtx<'a> {
    type Target = EngineCtx<'a>;

    fn deref(&self) -> &EngineCtx<'a> {
        &self.ctx
    }
}

impl<'a> std::ops::DerefMut for WriteCtx<'a> {
    fn deref_mut(&mut self) -> &mut EngineCtx<'a> {
        &mut self.ctx
    }
}

/// One deferred-propagation work item.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PendingEntry {
    /// The in-place sources reachable from `obj` through the path's link
    /// at `link_level` must re-materialise their replicated values.
    StaleSources {
        /// The object whose update made them stale (terminal or
        /// intermediate).
        obj: Oid,
        /// Which link level of the path to collect sources through.
        link_level: usize,
    },
    /// The shared replica object anchored at this terminal must be
    /// re-materialised (separate replication).
    StaleReplica {
        /// The terminal object.
        obj: Oid,
    },
}

/// The set of deferred propagations, per replication path. Entries are
/// deduplicated, which is the point: repeated updates to the same object
/// collapse into one eventual propagation.
///
/// Internally synchronized (`&self` everywhere): deferred-mode writers
/// on different threads enqueue concurrently, each under the lock of the
/// object its entry names. A sync plans from the entries it reads,
/// leaving them in place, and removes exactly those it applied while it
/// still holds their objects' locks: an entry parked after the plan
/// waits for the next sync.
#[derive(Default)]
pub struct PendingSet {
    map: Mutex<HashMap<u16, BTreeSet<PendingEntry>>>,
}

impl PendingSet {
    /// Record a deferred propagation for `path`.
    pub fn add(&self, path: PathId, entry: PendingEntry) {
        self.map.lock().entry(path.0).or_default().insert(entry);
    }

    /// The pending entries of `path`, left in place.
    pub(crate) fn entries(&self, path: PathId) -> Vec<PendingEntry> {
        let map = self.map.lock();
        map.get(&path.0).into_iter().flatten().copied().collect()
    }

    /// Remove `entry` of `path`: a sync applied it.
    pub(crate) fn remove(&self, path: PathId, entry: PendingEntry) {
        let mut map = self.map.lock();
        if map
            .get_mut(&path.0)
            .is_some_and(|s| s.remove(&entry) && s.is_empty())
        {
            map.remove(&path.0);
        }
    }

    /// Pending-entry count for `path`.
    pub fn count(&self, path: PathId) -> usize {
        self.map.lock().get(&path.0).map_or(0, BTreeSet::len)
    }

    /// Paths that currently have pending work.
    pub fn dirty_paths(&self) -> Vec<PathId> {
        self.map.lock().keys().map(|k| PathId(*k)).collect()
    }

    /// Drop every entry referring to `oid` (called when the object is
    /// deleted).
    pub fn purge_object(&self, oid: Oid) {
        let mut map = self.map.lock();
        for set in map.values_mut() {
            set.retain(|e| match e {
                PendingEntry::StaleSources { obj, .. } | PendingEntry::StaleReplica { obj } => {
                    *obj != oid
                }
            });
        }
        map.retain(|_, s| !s.is_empty());
    }

    /// Drop every entry of `path` (called when the path is dropped).
    pub fn purge_path(&self, path: PathId) {
        self.map.lock().remove(&path.0);
    }
}
