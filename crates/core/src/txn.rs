//! Concurrent transactions: snapshot reads + OID-ordered write locking.
//!
//! The paper's replication maintenance makes concurrency hard in one
//! specific way: an update to a shared field fans out through the
//! inverted path's link objects to `f` replicas, so the atomic unit of a
//! write is not one object but the whole *fan-out closure* — the updated
//! object, the chain nodes whose links are rewired, every source object
//! whose hidden values are re-materialised (in-place, §4.1.3), and the
//! shared replica object (separate, §5.2). This module makes that unit
//! atomic without ever blocking readers:
//!
//! * **Writers** ([`Database::update_txn`]) build the update's
//!   [`RipplePlan`] — the one description of its fan-out, which the apply
//!   executes too — then acquire a per-OID write lock on every member of
//!   [`RipplePlan::oids`] **in globally sorted OID order** through the
//!   single blessed helper [`TxnManager::lock_sorted`]. Sorted
//!   acquisition over a total order makes deadlock impossible (every
//!   wait edge points from a smaller held OID to a larger wanted one, so
//!   the wait-for graph is acyclic); lint rule L4 statically enforces
//!   that no other call site acquires a raw OID lock. The plan is built
//!   without locks, by traversing the very structures concurrent writers
//!   mutate, so it records each OID's version as the OID joins; if any
//!   moved by the time the locks are held it is rebuilt *under* them and
//!   the acquisition retried (counted as `txn.conflict`) until the locked
//!   set covers it. Sorted-OID order is also the engine's batched-I/O
//!   order ([`fieldrep_storage::oid_page_chunks`]), so locks are taken
//!   in the same order pages are fetched.
//! * **Readers** ([`Database::snapshot_path_values`],
//!   [`Database::snapshot_path_check`], [`Database::snapshot_get`])
//!   never take locks. Each locked OID carries a seqlock-style version
//!   that is odd while a writer holds it and bumped again on release;
//!   readers capture the versions of the objects whose bytes they
//!   consume (source, shared replica, terminal), read optimistically,
//!   and retry (`txn.snapshot_retry`) if any version moved. Versions are
//!   monotonic — lock-table entries are never removed — so a validated
//!   read is a true point-in-time snapshot: it observed no mid-flight
//!   ripple, which is exactly the "no torn replicas" invariant the
//!   stress harness asserts.
//!
//! Two scope notes. Deferred-propagation paths are *not* synced by
//! snapshot reads (syncing writes, and a reader must not write); they
//! serve whatever is materialised, which is the documented semantics of
//! §8 deferral. And B-tree maintenance has page-, not OID-granular
//! state, so while any index exists, transactional updates additionally
//! serialize on one coarse guard — the paper's experiments (and the
//! concurrent bench) run without secondary indexes.

use crate::attach::{replica_path_values, terminal_values, walk_chain_via};
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::objects::{ref_target, view_object};
use crate::propagate::apply_plan;
use crate::ripple::RipplePlan;
use fieldrep_catalog::{PathId, RepPathDef, Strategy};
use fieldrep_model::{Object, Value};
use fieldrep_obs::{metrics, names as obs_names};
use fieldrep_storage::{lockorder, Oid};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Upper bound on one lock wait (and on one snapshot-read retry loop).
/// Sorted acquisition makes deadlock impossible, so this firing means an
/// ordering bug or a transaction wedged inside its critical section; the
/// stress harness relies on it to fail fast instead of hanging.
const DEADLOCK_WATCHDOG: Duration = Duration::from_secs(10);

/// Lock-table stripes (power of two; each stripe is a mutex-guarded map).
const LOCK_STRIPES: usize = 64;

/// Lock acquisitions before a writer gives up on a closure that keeps
/// changing under it.
const MAX_LOCK_ATTEMPTS: usize = 32;

/// Process-wide transaction instruments (names in [`obs_names`]).
struct TxnMetrics {
    begin: Arc<metrics::Counter>,
    commit: Arc<metrics::Counter>,
    abort: Arc<metrics::Counter>,
    conflict: Arc<metrics::Counter>,
    lock_wait: Arc<metrics::Counter>,
    snapshot_retry: Arc<metrics::Counter>,
    active: Arc<metrics::Gauge>,
    lockset: Arc<metrics::Histogram>,
}

fn txn_metrics() -> &'static TxnMetrics {
    static METRICS: OnceLock<TxnMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metrics::registry();
        TxnMetrics {
            begin: r.counter(obs_names::TXN_BEGIN),
            commit: r.counter(obs_names::TXN_COMMIT),
            abort: r.counter(obs_names::TXN_ABORT),
            conflict: r.counter(obs_names::TXN_CONFLICT),
            lock_wait: r.counter(obs_names::TXN_LOCK_WAIT),
            snapshot_retry: r.counter(obs_names::TXN_SNAPSHOT_RETRY),
            active: r.gauge(obs_names::TXN_ACTIVE),
            lockset: r.histogram(obs_names::TXN_LOCKSET, &[1, 2, 4, 8, 16, 32, 64, 128, 256]),
        }
    })
}

/// One OID's write lock + seqlock version.
#[derive(Default)]
struct OidLock {
    /// Version: odd while a writer holds the lock, bumped on acquire and
    /// release. Monotonic — entries are never removed from the table —
    /// so a reader can never validate against a recycled version (no
    /// ABA).
    seq: AtomicU64,
    /// Writer mutual exclusion. A spin-then-yield loop rather than a
    /// mutex: guards are stored in a `Vec` across the whole commit, and
    /// critical sections include page I/O, so waiters back off to
    /// `yield_now` quickly.
    held: AtomicBool,
}

impl OidLock {
    /// The one raw lock acquisition in the workspace; only
    /// [`TxnManager::lock_sorted`] may call it (lint rule L4 enforces
    /// this), which is what makes the global acquisition order total.
    fn raw_acquire(&self, oid: Oid) -> Result<bool> {
        if self
            .held
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return Ok(false);
        }
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            if self
                .held
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(true);
            }
            spins = spins.wrapping_add(1);
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            if spins.is_multiple_of(4096) && start.elapsed() > DEADLOCK_WATCHDOG {
                return Err(DbError::LockTimeout(oid));
            }
        }
    }

    fn raw_release(&self) {
        self.held.store(false, Ordering::Release);
    }
}

/// An OID's key in the lock table: its own 64 bits through one
/// multiplicative mix (Fibonacci hashing, the high half folded down) — a
/// bijection, so the key stands for the OID, spread well enough to pick
/// the stripe and the bucket both. Nothing hashes it again.
fn table_key(oid: Oid) -> u64 {
    let h = u64::from_le_bytes(oid.to_bytes()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// Hasher of the stripes' maps: a [`table_key`] is its own hash.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not taken for the `u64` keys hashed here.
        self.0 = bytes.iter().fold(self.0, |h, &b| (h << 8) | u64::from(b));
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

type Stripe = HashMap<u64, Arc<OidLock>, BuildHasherDefault<KeyHasher>>;

/// Striped `Oid → OidLock` table, keyed by [`table_key`]. Entries are
/// created on first write lock and never removed (see [`OidLock::seq`]).
struct LockTable {
    stripes: Vec<Mutex<Stripe>>,
}

impl LockTable {
    fn new() -> Self {
        LockTable {
            stripes: (0..LOCK_STRIPES)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
        }
    }

    /// The stripe of `key`: bits the maps use neither for the bucket (low)
    /// nor for the control byte (top seven).
    fn stripe(&self, key: u64) -> &Mutex<Stripe> {
        &self.stripes[(key >> 40) as usize % LOCK_STRIPES]
    }

    /// The lock of `oid`, created if absent.
    fn entry(&self, oid: Oid) -> Arc<OidLock> {
        let key = table_key(oid);
        Arc::clone(self.stripe(key).lock().entry(key).or_default())
    }

    /// Current version of `oid` without creating an entry: an OID that
    /// was never write-locked is at version 0.
    fn seq_of(&self, oid: Oid) -> u64 {
        let key = table_key(oid);
        self.stripe(key)
            .lock()
            .get(&key)
            .map_or(0, |l| l.seq.load(Ordering::Acquire))
    }

    fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }
}

/// Guard for the coarse index-maintenance mutex; carries the runtime
/// lock-order token (rank [`lockorder::TXN_INDEX_GUARD`]).
pub(crate) struct IndexGuard<'a> {
    _guard: parking_lot::MutexGuard<'a, ()>,
    _order: lockorder::Held,
}

/// Guard over the sorted set of per-OID write locks one transactional
/// write holds. Dropping it bumps every member's version to even (ripple
/// complete) and releases the locks.
pub struct LockSet {
    oids: Vec<Oid>,
    locks: Vec<Arc<OidLock>>,
    /// Runtime lock-order token for the whole (internally ordered)
    /// seqlock family this set holds.
    _order: lockorder::Held,
}

impl LockSet {
    /// Is every OID of `oids` (sorted or not) covered by this lock set?
    pub fn covers(&self, oids: &[Oid]) -> bool {
        oids.iter().all(|o| self.oids.binary_search(o).is_ok())
    }

    /// Was every member at version `seqs[i]` — even, so no writer was in
    /// flight — immediately before this set locked it? `seqs` must align
    /// with the OIDs the set was acquired over.
    pub(crate) fn acquired_at(&self, seqs: &[u64]) -> bool {
        self.locks.len() == seqs.len()
            && self
                .locks
                .iter()
                .zip(seqs)
                .all(|(l, s)| s & 1 == 0 && l.seq.load(Ordering::Acquire) == s + 1)
    }

    /// Number of locked OIDs.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True when nothing is locked.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }
}

impl Drop for LockSet {
    fn drop(&mut self) {
        for l in &self.locks {
            l.seq.fetch_add(1, Ordering::Release); // even: ripple done
            l.raw_release();
        }
    }
}

/// Snapshot of the transaction manager's counters (the `sys.txn` rows).
#[derive(Clone, Copy, Debug, Default)]
pub struct TxnStats {
    /// Transactions currently between begin and commit/abort.
    pub active: u64,
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Write commits that re-acquired a changed lock closure.
    pub conflicts: u64,
    /// Contended OID-lock acquisitions.
    pub lock_waits: u64,
    /// Snapshot reads re-run because a writer raced them.
    pub snapshot_retries: u64,
    /// Committed transactional writes (the global commit epoch).
    pub commit_epoch: u64,
    /// OIDs with a lock-table entry (ever write-locked).
    pub locks_tracked: u64,
}

/// Per-database transaction manager: the OID lock table, the commit
/// epoch, and counters. All methods take `&self`; one manager serves
/// every concurrent thread of its [`Database`].
pub struct TxnManager {
    table: LockTable,
    /// Committed transactional writes. Bumped after every successful
    /// [`Database::update_txn`]; snapshot readers do not need it (they
    /// validate per-OID versions) but `sys.txn` exposes it as the
    /// database's logical write clock.
    epoch: AtomicU64,
    next_id: AtomicU64,
    active: AtomicU64,
    begun: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    conflicts: AtomicU64,
    lock_waits: AtomicU64,
    snapshot_retries: AtomicU64,
    /// Coarse serialization for B-tree maintenance: index pages have no
    /// per-OID identity, so while any index exists, transactional
    /// updates take this in addition to their OID locks.
    index_guard: Mutex<()>,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager {
            table: LockTable::new(),
            epoch: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            active: AtomicU64::new(0),
            begun: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            lock_waits: AtomicU64::new(0),
            snapshot_retries: AtomicU64::new(0),
            index_guard: Mutex::new(()),
        }
    }
}

impl TxnManager {
    /// Begin a transaction; returns its id. Transactions are
    /// chained-auto-commit: DML applies as it runs (there is no undo
    /// log, matching the paper's no-recovery scope); what begin/commit
    /// delimit is the statistics window and, for read-only work, the
    /// right to abort.
    pub fn begin(&self) -> u64 {
        self.begun.fetch_add(1, Ordering::Relaxed);
        let now_active = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        let m = txn_metrics();
        m.begin.inc();
        m.active.set(now_active as i64);
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Commit transaction `_txn`.
    pub fn commit(&self, _txn: u64) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        let m = txn_metrics();
        m.commit.inc();
        m.active.set(self.dec_active() as i64);
    }

    /// Abort transaction `_txn`. Writes already applied stay applied
    /// (no undo log); [`crate::lang`-level] callers refuse abort after
    /// writes.
    pub fn abort(&self, _txn: u64) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
        let m = txn_metrics();
        m.abort.inc();
        m.active.set(self.dec_active() as i64);
    }

    fn dec_active(&self) -> u64 {
        let prev = match self
            .active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            }) {
            Ok(v) | Err(v) => v,
        };
        prev.saturating_sub(1)
    }

    /// Acquire write locks on every OID of `oids` — which **must** be
    /// sorted and deduplicated — in that global order, and bump each
    /// version to odd. This is the only place in the workspace that may
    /// acquire OID locks (lint rule L4): funnelling every acquisition
    /// through one sorted loop is the whole deadlock-freedom argument,
    /// and the order equals the batched-I/O page order because both
    /// derive from the same physical OID sort.
    pub fn lock_sorted(&self, oids: &[Oid]) -> Result<LockSet> {
        if oids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DbError::Unsupported(
                "lock_sorted requires a sorted, deduplicated OID set".into(),
            ));
        }
        // One order token covers the whole family: members are acquired
        // in sorted OID order below, which is the family's internal
        // order (rank ties are legal within it).
        let order = lockorder::acquired(lockorder::OID_SEQLOCK, true, "OidSeqlock");
        let mut locks: Vec<Arc<OidLock>> = Vec::with_capacity(oids.len());
        for &oid in oids {
            let l = self.table.entry(oid);
            match l.raw_acquire(oid) {
                Ok(waited) => {
                    if waited {
                        self.lock_waits.fetch_add(1, Ordering::Relaxed);
                        txn_metrics().lock_wait.inc();
                    }
                    l.seq.fetch_add(1, Ordering::Release); // odd: writer present
                    locks.push(l);
                }
                Err(e) => {
                    // Watchdog fired mid-acquisition: release the prefix.
                    drop(LockSet {
                        oids: oids[..locks.len()].to_vec(),
                        locks,
                        _order: order,
                    });
                    return Err(e);
                }
            }
        }
        txn_metrics().lockset.record(oids.len() as u64);
        Ok(LockSet {
            oids: oids.to_vec(),
            locks,
            _order: order,
        })
    }

    /// Current seqlock version of `oid` (0 if never write-locked; odd
    /// while a writer holds it).
    pub fn seq_of(&self, oid: Oid) -> u64 {
        self.table.seq_of(oid)
    }

    /// The number of committed transactional writes.
    pub fn commit_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    pub(crate) fn note_commit_applied(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_conflict(&self) {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
        txn_metrics().conflict.inc();
    }

    pub(crate) fn note_snapshot_retry(&self) {
        self.snapshot_retries.fetch_add(1, Ordering::Relaxed);
        txn_metrics().snapshot_retry.inc();
    }

    /// Counter snapshot (the `sys.txn` virtual table's rows).
    pub fn stats(&self) -> TxnStats {
        TxnStats {
            active: self.active.load(Ordering::Relaxed),
            begun: self.begun.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            snapshot_retries: self.snapshot_retries.load(Ordering::Relaxed),
            commit_epoch: self.commit_epoch(),
            locks_tracked: self.table.len() as u64,
        }
    }
}

/// Backoff for optimistic-read retries: spin briefly, then yield.
fn snapshot_backoff(attempt: u32) {
    if attempt < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Database {
    /// Concurrent-safe [`Database::update`]: plan the update's fan-out
    /// once, lock [`RipplePlan::oids`] in sorted OID order, apply the
    /// plan, and version-bump every member so snapshot readers observe
    /// the ripple atomically. Safe to call from many threads; writers
    /// with disjoint closures run in parallel.
    ///
    /// The plan is built without locks and records every OID's version as
    /// it joins (see [`crate::ripple`] for why that is sound). If the
    /// versions held still when the locks were taken, the plan is applied
    /// as built. Otherwise the world is frozen now: it is rebuilt under
    /// the locks, and if a concurrent commit grew the closure past the
    /// locked set, the sets are unioned and the acquisition retried.
    ///
    /// # Durability errors
    ///
    /// When a WAL is attached and the in-memory apply succeeds but
    /// logging or fsyncing the commit record fails, this returns
    /// [`DbError::CommitNotDurable`]. The update **is** applied (and
    /// will still reach disk through the write-back path); only the
    /// crash-durability guarantee is lost. Any other error means the
    /// update was rejected.
    pub fn update_txn(&self, oid: Oid, changes: &[(&str, Value)]) -> Result<()> {
        let txn = self.txn();
        // B-tree pages have no OID identity: serialize index maintenance
        // coarsely while any index exists.
        let _index_guard = if self.catalog().indexes().next().is_some() {
            Some(txn.index_lock())
        } else {
            None
        };
        // An unlocked build can fail on a structure it caught mid-rewire;
        // it is then rebuilt with `oid` locked, where a real error repeats.
        let mut plan = RipplePlan::build(self, Some(txn), oid, changes).ok();
        let mut want = plan.as_ref().map_or(vec![oid], |p| p.oids().to_vec());
        for _ in 0..MAX_LOCK_ATTEMPTS {
            let guard = txn.lock_sorted(&want)?;
            let current = match plan.take() {
                Some(p) if guard.acquired_at(&p.seqs) => p,
                _ => {
                    let p = RipplePlan::build(self, Some(txn), oid, changes)?;
                    if !guard.covers(p.oids()) {
                        txn.note_conflict();
                        drop(guard);
                        want.extend_from_slice(p.oids());
                        want.sort_unstable();
                        want.dedup();
                        continue;
                    }
                    p
                }
            };
            // Durability: hold the WAL apply section across apply+log so
            // the log never interleaves two transactions' page images,
            // then release it *before* the fsync so concurrent commits
            // coalesce into one barrier (group commit).
            let wal = self.sm().wal();
            let logged = self.with_apply_section(|db| {
                apply_plan(&mut db.ctx(), current)?;
                txn.note_commit_applied();
                Ok(wal.map(|_| db.sm().pool().log_txn_commit()))
            })?;
            // Past this point the update is applied and versions will
            // publish on guard drop; a logging or fsync failure is a
            // *durability* failure, not a rejected update.
            return match (wal, logged) {
                (Some(w), Some(Ok(Some(lsn)))) => w.sync_to(lsn).map_err(DbError::CommitNotDurable),
                (_, Some(Err(e))) => Err(DbError::CommitNotDurable(e)),
                _ => Ok(()),
            };
        }
        Err(DbError::Unsupported(
            "update_txn: write-lock closure kept changing under contention".into(),
        ))
    }

    /// The one seqlock read loop. `body` is one optimistic attempt: it
    /// [`Watch::enter`]s every OID whose bytes it is about to consume and
    /// returns `Ok(None)` when told a writer holds one. The attempt's
    /// outcome — value or error — stands only if every entered OID is
    /// still at the version it was entered under; otherwise it is retried
    /// (counted, with backoff), and after [`DEADLOCK_WATCHDOG`] given up
    /// as [`DbError::LockTimeout`] on `anchor`. Never blocks.
    fn snapshot_read<T>(
        &self,
        anchor: Oid,
        mut body: impl FnMut(&mut Watch<'_>) -> Result<Option<T>>,
    ) -> Result<T> {
        let txn = self.txn();
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            if attempt > 0 {
                txn.note_snapshot_retry();
                snapshot_backoff(attempt);
                if attempt.is_multiple_of(1024) && start.elapsed() > DEADLOCK_WATCHDOG {
                    return Err(DbError::LockTimeout(anchor));
                }
            }
            attempt = attempt.wrapping_add(1);
            let mut watch = Watch {
                txn,
                seen: [(Oid::NULL, 0); 3],
                len: 0,
            };
            match body(&mut watch) {
                Ok(Some(v)) if watch.still_valid() => return Ok(v),
                Err(e) if watch.still_valid() => return Err(e),
                _ => {} // a writer was, or got, in the way
            }
        }
    }

    /// Seqlock-validated snapshot read of one object. Never blocks:
    /// retries (with backoff) while a writer's ripple is in flight.
    pub fn snapshot_get(&self, oid: Oid) -> Result<Object> {
        self.snapshot_read(oid, |watch| {
            if !watch.enter(oid) {
                return Ok(None);
            }
            self.get(oid).map(Some)
        })
    }

    /// Snapshot read of one base field by name.
    pub fn snapshot_field(&self, oid: Oid, field: &str) -> Result<Value> {
        let obj = self.snapshot_get(oid)?;
        let def = self.catalog().type_def(obj.type_id);
        Ok(obj.get(def, field)?.clone())
    }

    /// One attempt's read of `source` for `pdef`: enters the source and,
    /// on a separate path, the shared replica object its values live in.
    /// The source is read where it is stored — its first hop and the one
    /// hidden annotation the path names, not the whole object. Returns
    /// the first hop's target and the values visible through the path;
    /// `None` asks for a retry.
    #[allow(clippy::type_complexity)]
    fn snapshot_source(
        &self,
        watch: &mut Watch<'_>,
        source: Oid,
        pdef: &RepPathDef,
    ) -> Result<Option<(Option<Oid>, Option<Vec<Value>>)>> {
        if !watch.enter(source) {
            return Ok(None);
        }
        let mut ctx = self.ctx();
        let (hop, hidden, roid) = view_object(ctx.sm, ctx.cat, None, source, |v| {
            let hop = v.field(pdef.hops[0])?;
            Ok(match (pdef.strategy, pdef.group) {
                (Strategy::Separate, Some(g)) => (hop, None, v.replica_ref(g.0)?),
                _ => (hop, v.replica_values(pdef.id.0)?, None),
            })
        })?;
        let visible = match roid {
            Some(roid) => {
                if !watch.enter(roid) {
                    return Ok(None);
                }
                Some(replica_path_values(&mut ctx, pdef, roid)?)
            }
            None => hidden,
        };
        Ok(Some((ref_target(&hop), visible)))
    }

    /// Snapshot read of `path`'s replicated values as seen from `source`
    /// — the query executor's read primitive under concurrency. Consumes
    /// the source object's bytes (in-place / collapsed) or the shared
    /// replica object's (separate), and validates the version of
    /// exactly those OIDs. Deferred paths are *not* synced (a snapshot
    /// reader must not write) and may serve pre-ripple values, which is
    /// the §8 deferral contract.
    pub fn snapshot_path_values(&self, source: Oid, path: PathId) -> Result<Option<Vec<Value>>> {
        let pdef = self.catalog().path(path);
        let (vals, pages) = self.snapshot_read(source, |watch| {
            let io_before = fieldrep_obs::io::snapshot();
            let Some((_, vals)) = self.snapshot_source(watch, source, pdef)? else {
                return Ok(None);
            };
            let pages = (fieldrep_obs::io::snapshot() - io_before).page_touches();
            Ok(Some((vals, pages)))
        })?;
        self.workload().record_read(&pdef.expr_text, 1, pages);
        Ok(vals)
    }

    /// One consistent snapshot of both sides of a replication path: the
    /// replicated values visible at `source` and the terminal's true
    /// field values (via the forward chain). The two are read under one
    /// validation window, so `visible == truth` — both `None` on a
    /// broken chain, or equal value lists — is exactly the paper's
    /// replica-consistency invariant; the concurrent stress harness
    /// asserts it under hostile interleavings. (Deferred paths may
    /// legitimately disagree until synced.)
    #[allow(clippy::type_complexity)]
    pub fn snapshot_path_check(
        &self,
        source: Oid,
        path: PathId,
    ) -> Result<(Option<Vec<Value>>, Option<Vec<Value>>)> {
        let pdef = self.catalog().path(path);
        self.snapshot_read(source, |watch| {
            let Some((next, visible)) = self.snapshot_source(watch, source, pdef)? else {
                return Ok(None);
            };
            let chain = walk_chain_via(&mut self.ctx(), pdef, source, next)?;
            let truth = match chain.last().copied().flatten() {
                Some(t) => {
                    if !watch.enter(t) {
                        return Ok(None);
                    }
                    Some(terminal_values(pdef, &self.get(t)?))
                }
                None => None,
            };
            Ok(Some((visible, truth)))
        })
    }
}

/// The OIDs one optimistic read attempt consumed bytes of, each with the
/// (even) version it was entered under. Three is the most any snapshot
/// read touches: source, shared replica object, terminal.
struct Watch<'a> {
    txn: &'a TxnManager,
    seen: [(Oid, u64); 3],
    len: usize,
}

impl Watch<'_> {
    /// Start watching `oid`; `false` means a writer holds it right now
    /// and the attempt should be abandoned.
    fn enter(&mut self, oid: Oid) -> bool {
        let seq = self.txn.seq_of(oid);
        if seq & 1 == 1 {
            return false;
        }
        self.seen[self.len] = (oid, seq);
        self.len += 1;
        true
    }

    /// Whether no entered OID has been written since it was entered.
    fn still_valid(&self) -> bool {
        self.seen[..self.len]
            .iter()
            .all(|&(oid, seq)| self.txn.seq_of(oid) == seq)
    }
}

impl TxnManager {
    /// Take the coarse index-maintenance guard (see
    /// [`TxnManager::index_guard`]).
    pub(crate) fn index_lock(&self) -> IndexGuard<'_> {
        let order = lockorder::acquired(lockorder::TXN_INDEX_GUARD, false, "TxnIndexGuard");
        IndexGuard {
            _guard: self.index_guard.lock(),
            _order: order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicas::find_replica_ref;
    use crate::{Database, DbConfig};
    use fieldrep_model::{FieldType, TypeDef};

    fn db_with_path(strategy: Strategy) -> (Database, Oid, Vec<Oid>, PathId) {
        let mut db = Database::in_memory(DbConfig {
            pool_pages: 64,
            inline_link_threshold: 0,
        });
        db.define_type(TypeDef::new(
            "DEPT",
            vec![("name", FieldType::Str), ("budget", FieldType::Int)],
        ))
        .unwrap();
        db.define_type(TypeDef::new(
            "EMP",
            vec![
                ("name", FieldType::Str),
                ("salary", FieldType::Int),
                ("dept", FieldType::Ref("DEPT".into())),
            ],
        ))
        .unwrap();
        db.create_set("Dept", "DEPT").unwrap();
        db.create_set("Emp", "EMP").unwrap();
        let d = db
            .insert("Dept", vec![Value::Str("Shoe".into()), Value::Int(100)])
            .unwrap();
        let emps: Vec<Oid> = (0..8)
            .map(|i| {
                db.insert(
                    "Emp",
                    vec![
                        Value::Str(format!("e{i}")),
                        Value::Int(1000 + i),
                        Value::Ref(d),
                    ],
                )
                .unwrap()
            })
            .collect();
        let p = db.replicate("Emp.dept.name", strategy).unwrap();
        (db, d, emps, p)
    }

    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<TxnManager>();
    }

    #[test]
    fn lock_sorted_rejects_unsorted_and_duplicate_input() {
        let mgr = TxnManager::default();
        let f = fieldrep_storage::FileId(1);
        let a = Oid::new(f, 0, 0);
        let b = Oid::new(f, 0, 1);
        assert!(mgr.lock_sorted(&[b, a]).is_err());
        assert!(mgr.lock_sorted(&[a, a]).is_err());
        // A failed acquisition must not leave anything locked.
        let g = mgr.lock_sorted(&[a, b]).unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn lock_versions_are_odd_while_held_and_bump_by_two() {
        let mgr = TxnManager::default();
        let oid = Oid::new(fieldrep_storage::FileId(1), 3, 4);
        assert_eq!(mgr.seq_of(oid), 0);
        let g = mgr.lock_sorted(&[oid]).unwrap();
        assert_eq!(mgr.seq_of(oid) & 1, 1, "odd while held");
        drop(g);
        assert_eq!(mgr.seq_of(oid), 2, "even after release");
    }

    #[test]
    fn plan_of_terminal_update_locks_the_fanout_closure() {
        let (db, d, emps, _p) = db_with_path(Strategy::InPlace);
        let plan = RipplePlan::build(
            &db,
            Some(db.txn()),
            d,
            &[("name", Value::Str("Boots".into()))],
        )
        .unwrap();
        let fp = plan.oids();
        assert!(fp.contains(&d), "updated object");
        for e in &emps {
            assert!(fp.contains(e), "every fan-out source");
        }
        assert!(fp.windows(2).all(|w| w[0] < w[1]), "sorted + deduplicated");
    }

    #[test]
    fn plan_of_separate_update_locks_the_shared_replica() {
        let (db, d, emps, p) = db_with_path(Strategy::Separate);
        let plan = RipplePlan::build(
            &db,
            Some(db.txn()),
            d,
            &[("name", Value::Str("Boots".into()))],
        )
        .unwrap();
        let fp = plan.oids();
        assert!(fp.contains(&d));
        // The shared replica object is versioned; the sources are not
        // rewritten by a separate refresh, but readers discover the
        // replica OID from the source and validate the replica itself.
        let obj = db.get(emps[0]).unwrap();
        let pdef = db.catalog().path(p).clone();
        let g = db.catalog().group(pdef.group.unwrap()).clone();
        let (_, roid) = find_replica_ref(&obj, g.id.0).unwrap();
        assert!(fp.contains(&roid), "shared replica object in closure");
    }

    #[test]
    fn stale_plan_is_rejected_and_the_replan_covers_the_new_chain() {
        // ORG ← DEPT ← EMP with `Emp.dept.org.name` in place.
        let mut db = Database::in_memory(DbConfig::default());
        db.define_type(TypeDef::new("ORG", vec![("name", FieldType::Str)]))
            .unwrap();
        db.define_type(TypeDef::new(
            "DEPT",
            vec![("org", FieldType::Ref("ORG".into()))],
        ))
        .unwrap();
        db.define_type(TypeDef::new(
            "EMP",
            vec![("dept", FieldType::Ref("DEPT".into()))],
        ))
        .unwrap();
        for (set, ty) in [("Org", "ORG"), ("Dept", "DEPT"), ("Emp", "EMP")] {
            db.create_set(set, ty).unwrap();
        }
        let org = |db: &Database, n: &str| db.insert("Org", vec![Value::Str(n.into())]).unwrap();
        let (o1, o2) = (org(&db, "Acme"), org(&db, "Globex"));
        let d1 = db.insert("Dept", vec![Value::Ref(o1)]).unwrap();
        let d2 = db.insert("Dept", vec![Value::Ref(o1)]).unwrap();
        let e = db.insert("Emp", vec![Value::Ref(d1)]).unwrap();
        db.replicate("Emp.dept.org.name", Strategy::InPlace)
            .unwrap();

        // Plan `e.dept := d2`: the new chain is [e, d2, o1].
        let changes = [("dept", Value::Ref(d2))];
        let plan = RipplePlan::build(&db, Some(db.txn()), e, &changes).unwrap();
        assert!(plan.oids().contains(&o1) && !plan.oids().contains(&o2));

        // A commit re-points d2 to o2, rewiring the planned chain.
        db.update_txn(d2, &[("org", Value::Ref(o2))]).unwrap();
        let guard = db.txn().lock_sorted(plan.oids()).unwrap();
        assert!(
            !guard.acquired_at(&plan.seqs),
            "d2 moved after it joined the plan"
        );
        let replan = RipplePlan::build(&db, Some(db.txn()), e, &changes).unwrap();
        assert!(replan.oids().contains(&o2), "re-plan follows the new chain");
        assert!(!guard.covers(replan.oids()), "so the locked set must grow");
        drop(guard);

        // A plan nobody disturbs validates (`replan` itself was built while
        // its members were held, i.e. at odd versions).
        let fresh = RipplePlan::build(&db, Some(db.txn()), e, &changes).unwrap();
        let guard = db.txn().lock_sorted(fresh.oids()).unwrap();
        assert!(guard.acquired_at(&fresh.seqs));
    }

    #[test]
    fn update_txn_propagates_like_plain_update() {
        let (db, d, emps, p) = db_with_path(Strategy::InPlace);
        db.update_txn(d, &[("name", Value::Str("Boots".into()))])
            .unwrap();
        for e in &emps {
            assert_eq!(
                db.path_values(*e, p).unwrap(),
                Some(vec![Value::Str("Boots".into())])
            );
        }
        assert_eq!(db.txn().commit_epoch(), 1);
        let stats = db.txn().stats();
        assert_eq!(stats.conflicts, 0, "single-threaded: no conflicts");
    }

    #[test]
    fn snapshot_reads_match_committed_state() {
        let (db, d, emps, p) = db_with_path(Strategy::Separate);
        assert_eq!(
            db.snapshot_path_values(emps[0], p).unwrap(),
            Some(vec![Value::Str("Shoe".into())])
        );
        db.update_txn(d, &[("name", Value::Str("Boots".into()))])
            .unwrap();
        let (visible, truth) = db.snapshot_path_check(emps[0], p).unwrap();
        assert_eq!(visible, Some(vec![Value::Str("Boots".into())]));
        assert_eq!(visible, truth);
        assert_eq!(
            db.snapshot_field(d, "name").unwrap(),
            Value::Str("Boots".into())
        );
    }

    #[test]
    fn begin_commit_abort_bookkeeping() {
        let db = Database::in_memory(DbConfig::default());
        let t1 = db.txn().begin();
        let t2 = db.txn().begin();
        assert_ne!(t1, t2);
        assert_eq!(db.txn().stats().active, 2);
        db.txn().commit(t1);
        db.txn().abort(t2);
        let s = db.txn().stats();
        assert_eq!((s.active, s.begun, s.committed, s.aborted), (0, 2, 1, 1));
    }

    #[test]
    fn concurrent_writers_and_snapshot_readers_agree() {
        let (db, d, emps, p) = db_with_path(Strategy::InPlace);
        let db = &db;
        let emps = &emps;
        std::thread::scope(|s| {
            // One writer flips the shared terminal field; a second
            // writer bounces a disjoint field; readers continuously
            // assert the invariant.
            s.spawn(move || {
                for i in 0..50 {
                    db.update_txn(d, &[("name", Value::Str(format!("n{i}")))])
                        .unwrap();
                }
            });
            s.spawn(move || {
                for i in 0..50 {
                    db.update_txn(emps[0], &[("salary", Value::Int(i))])
                        .unwrap();
                }
            });
            for _ in 0..2 {
                s.spawn(move || {
                    for _ in 0..200 {
                        for e in emps {
                            let (visible, truth) = db.snapshot_path_check(*e, p).unwrap();
                            assert_eq!(visible, truth, "torn replica observed");
                        }
                    }
                });
            }
        });
        // Final state is consistent too.
        for e in emps {
            let (visible, truth) = db.snapshot_path_check(*e, p).unwrap();
            assert_eq!(visible, truth);
        }
    }
}
