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
//! * **Writers** ([`Database::update`]) build the update's
//!   [`RipplePlan`](crate::ripple::RipplePlan) — the one description of
//!   its fan-out, which the apply executes too — then write-lock every
//!   OID it noted (an `insert` or `delete`: every node of its chains; a
//!   sync: the objects, sources and replicas its pending entries name)
//!   through the single blessed helper [`TxnManager::lock_sorted`], which
//!   maps the OIDs to their lock words and takes the distinct words **in
//!   ascending word order**. Sorted acquisition over a total order makes
//!   deadlock impossible (every wait edge points from a smaller held word
//!   to a larger wanted one, so the wait-for graph is acyclic); the raw
//!   acquisition of a word is private to the `words` submodule, which
//!   holds only the lock table and the sorted loop, so nothing else can
//!   take one. The plan is built without locks, by traversing the very
//!   structures concurrent writers mutate, so it records each OID's
//!   version as the OID joins; if any moved by the time the locks are
//!   held it is rebuilt *under* them and the acquisition retried (counted
//!   as `txn.conflict`) until the locked set covers it. A build that
//!   fails is believed only if nothing it recorded moved; otherwise it
//!   caught a structure mid-rewire and is stale like a moved plan.
//! * **Readers** — every `&self` read of object bytes: [`Database::get`],
//!   [`Database::get_field`], [`Database::deref_path`] (one
//!   [`Database::walk_path`]), [`Database::inverse`],
//!   [`Database::snapshot_path_values`] / [`Database::path_values`],
//!   [`Database::snapshot_path_check`] — run in the one seqlock loop and
//!   never take or wait on a lock: a version is one atomic load. They
//!   capture the versions of the objects whose bytes they consume, read
//!   optimistically, and retry (`txn.snapshot_retry`) if any moved.
//!   Versions are monotonic, so a validated read is a point-in-time
//!   snapshot: no mid-flight ripple (the stress harness's "no torn
//!   replicas"), no stub whose body a re-forward moved.
//!
//! # The lock table
//!
//! One flat array of [`LOCK_WORDS`] `AtomicU64`s; an OID's word is the
//! top bits of its 64 bits times the golden-ratio constant
//! ([`LockTable::word_of`]). A word *is* the seqlock version: odd while a
//! writer holds it, taken by a compare-and-swap even → odd, released by
//! adding one, never reset — so versions are monotone and ABA-free, and
//! the table's memory is constant however many OIDs are ever locked.
//! Several OIDs share a word. The lock's granule is an implementation
//! choice as long as declared conflicts ⊇ true conflicts (Malta &
//! Martinez, PAPERS.md), and they are: two OIDs of one lock set on one
//! word are locked once; a word shared with another transaction's OID is
//! a *false* conflict — a wait, or a retry — never a missed one.
//!
//! Memory ordering is the textbook seqlock's, written out. Writer: the
//! acquiring CAS is `Acquire` (it sees everything the previous holder
//! released) and is followed by `fence(Release)`, so the odd version is
//! visible before any byte the holder then writes; the releasing
//! `fetch_add` is `Release`. Reader: the entering load is `Acquire`, and
//! `fence(Acquire)` precedes the validating re-load, so every byte the
//! attempt read was read before the version was looked at again. Object
//! bytes themselves travel under the buffer pool's frame latches, whose
//! own release/acquire pairs order them; the fences make the version
//! protocol correct without leaning on that (both compile to nothing on
//! x86-64).
//!
//! Two scope notes. Snapshot reads do not sync a deferred path (syncing
//! writes, and a reader must not write): they serve what the last sync
//! materialised, the §8 deferral contract. The sync itself is a writer
//! like the others, its `SyncPlan` locked and applied by the same
//! protocol. And B-tree maintenance has page-, not OID-granular state,
//! so while any index exists, writers additionally serialize on one
//! coarse guard — the paper's experiments (and the concurrent bench) run
//! without secondary indexes.

mod words;

pub use words::LockSet;

use crate::attach::replica_path_values;
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::objects::{read_object, ref_target, view_object};
use crate::{collapsed, links, WriteCtx};
use fieldrep_catalog::{LinkId, PathId, RepPathDef, Strategy};
use fieldrep_model::{Object, Value};
use fieldrep_obs::{metrics, names as obs_names};
use fieldrep_storage::{lockorder, Oid, PagePins};
use parking_lot::Mutex;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use words::LockTable;

/// Upper bound on one lock wait (and on one snapshot-read retry loop).
/// Sorted acquisition makes deadlock impossible, so this firing means an
/// ordering bug or a transaction wedged inside its critical section; the
/// stress harness relies on it to fail fast instead of hanging.
const DEADLOCK_WATCHDOG: Duration = Duration::from_secs(10);

/// Words in the lock table: a power of two, and a constant, not an option.
/// 2¹⁶ × 8 B = 512 KiB stays L2-resident, and a lock set of the paper's
/// f + 1 = 11 OIDs meets a given foreign OID on a shared word once in
/// ~6 000 tries — a false conflict costs one wait or one retry.
const LOCK_WORDS: usize = 1 << 16;

/// Lock acquisitions before a writer gives up on a closure that keeps
/// changing under it.
const MAX_LOCK_ATTEMPTS: usize = 32;

/// What a plan built without locks (see [`crate::ripple`]) hands the
/// lock protocol.
#[derive(Debug)]
pub(crate) struct Noted {
    /// Every OID it noted, sorted and deduplicated.
    pub(crate) oids: Vec<Oid>,
    /// `seqs[i]` is the version `oids[i]` had as it *first* joined.
    pub(crate) seqs: Vec<u64>,
    /// The pins of the pages it read, for the apply to take its pages from.
    pub(crate) pins: PagePins,
}

impl Noted {
    /// From the `(OID, version)` pairs in the order they joined: the sort
    /// is stable, so the dedup keeps the version recorded first.
    pub(crate) fn new(mut seen: Vec<(Oid, u64)>, pins: PagePins) -> Noted {
        seen.sort_by_key(|&(oid, _)| oid);
        seen.dedup_by_key(|&mut (oid, _)| oid);
        let (oids, seqs) = seen.into_iter().unzip();
        Noted { oids, seqs, pins }
    }
}

/// A build that failed: its error, and the `(OID, version)` pairs it had
/// recorded when it did.
pub(crate) struct Unplanned<E> {
    pub(crate) err: E,
    pub(crate) seen: Vec<(Oid, u64)>,
}

/// A plan: what it noted is all the lock protocol needs of it.
pub(crate) trait Planned {
    fn noted(&mut self) -> &mut Noted;
}

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

/// Guard for the coarse index-maintenance mutex; carries the runtime
/// lock-order token (rank [`lockorder::TXN_INDEX_GUARD`]).
pub(crate) struct IndexGuard<'a> {
    _guard: parking_lot::MutexGuard<'a, ()>,
    _order: lockorder::Held,
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
}

/// Per-database transaction manager: the lock table, the commit
/// epoch, and counters. All methods take `&self`; one manager serves
/// every concurrent thread of its [`Database`].
pub struct TxnManager {
    table: LockTable,
    /// Committed updates. Bumped by every applied
    /// [`Database::update`]; snapshot readers do not need it (they
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
            table: LockTable::new(LOCK_WORDS),
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
    /// chained-auto-commit: each DML operation applies and commits as it
    /// runs (there is no undo log); what begin/commit delimit is the
    /// statistics window and, for read-only work, the right to abort.
    pub fn begin(&self) -> u64 {
        self.begun.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
        let m = txn_metrics();
        m.begin.inc();
        m.active.add(1);
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Commit transaction `_txn`.
    pub fn commit(&self, _txn: u64) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        txn_metrics().commit.inc();
        self.dec_active();
    }

    /// Abort transaction `_txn`. Writes already applied stay applied
    /// (no undo log); [`crate::lang`-level] callers refuse abort after
    /// writes.
    pub fn abort(&self, _txn: u64) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
        txn_metrics().abort.inc();
        self.dec_active();
    }

    /// One transaction fewer, here and in the process-wide `txn.active`
    /// gauge, which every manager moves by deltas so that it sums the
    /// databases; an end without a begin moves neither.
    fn dec_active(&self) {
        let dec = |v: u64| v.checked_sub(1);
        let was = self
            .active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, dec);
        if was.is_ok() {
            txn_metrics().active.add(-1);
        }
    }

    /// Acquire write locks on every OID of `oids` — which **must** be
    /// sorted and deduplicated — and bump each one's version to odd. The
    /// OIDs are mapped to their lock words and the distinct words taken in
    /// ascending word order, so two OIDs of the set that share a word lock
    /// it once. This is the only lock acquisition the workspace can
    /// reach: funnelling every acquisition through one sorted loop is the
    /// whole deadlock-freedom argument.
    ///
    /// ```
    /// # use fieldrep_core::TxnManager;
    /// # use fieldrep_storage::{FileId, Oid};
    /// let mgr = TxnManager::default();
    /// let oids = [Oid::new(FileId(1), 0, 0), Oid::new(FileId(1), 0, 1)];
    /// let held = mgr.lock_sorted(&oids).unwrap();
    /// assert!(held.covers(&oids));
    /// ```
    ///
    /// Neither the raw acquisition nor the table it works on is reachable:
    ///
    /// ```compile_fail,E0599
    /// # use fieldrep_core::TxnManager;
    /// # use fieldrep_storage::{FileId, Oid};
    /// let mgr = TxnManager::default();
    /// mgr.raw_acquire(0, Oid::new(FileId(1), 0, 0)); // no such method
    /// ```
    ///
    /// ```compile_fail,E0603
    /// use fieldrep_core::txn::words::LockTable; // private module
    /// ```
    pub fn lock_sorted(&self, oids: &[Oid]) -> Result<LockSet<'_>> {
        let set = words::lock_sorted(&self.table, oids, || {
            self.lock_waits.fetch_add(1, Ordering::Relaxed);
            txn_metrics().lock_wait.inc();
        })?;
        txn_metrics().lockset.record(oids.len() as u64);
        Ok(set)
    }

    /// Can the error of a build that recorded `seen` be believed? Only
    /// if what it read held still: every OID it recorded is on a word
    /// `held` holds, or still at the even version it was recorded at.
    /// Anything else may have been caught mid-rewire.
    fn settled(&self, held: Option<&LockSet<'_>>, seen: &[(Oid, u64)]) -> bool {
        seen.iter().all(|&(oid, seq)| {
            held.is_some_and(|g| g.holds_word_of(oid)) || (seq % 2 == 0 && self.seq_of(oid) == seq)
        })
    }

    /// Current seqlock version of `oid` (0 if its word was never
    /// write-locked; odd while a writer holds it). One atomic load.
    pub fn seq_of(&self, oid: Oid) -> u64 {
        self.table.load(self.table.word_of(oid))
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
    /// The one write path's locking: take the index guard while any
    /// index exists, build the operation's plan without locks (recording
    /// versions), lock what it noted, and apply it through
    /// [`Database::apply_and_commit`] with the plan's page pins moved into
    /// the apply's [`WriteCtx`]: a page the plan read is not requested
    /// again. The pins drop when `apply` returns, before the commit's
    /// fsync; a stale plan drops with its pins.
    ///
    /// If the versions held still until the locks were taken, the plan is
    /// applied as built. Otherwise the world is frozen now: it is rebuilt
    /// under the locks, and if a concurrent commit grew the closure past
    /// the locked set, the sets are unioned and the acquisition retried.
    /// A build's error is returned only if what it read held still
    /// ([`TxnManager::settled`]); a build that failed on a structure it
    /// caught mid-rewire is stale, and what it noted joins the lock set
    /// for the next build, like the closure of a plan.
    pub(crate) fn write_locked<P: Planned, T, E: From<DbError>>(
        &self,
        plan: impl Fn() -> std::result::Result<P, Unplanned<E>>,
        apply: impl FnOnce(&mut WriteCtx<'_>, P) -> Result<T>,
    ) -> std::result::Result<T, E> {
        let txn = self.txn();
        // B-tree pages have no OID identity: serialize index maintenance
        // coarsely while any index exists.
        let _index_guard = if self.catalog().indexes().next().is_some() {
            Some(txn.index_lock())
        } else {
            None
        };
        let mut want: Vec<Oid> = Vec::new();
        let mut guard: Option<LockSet<'_>> = None;
        for _ in 0..MAX_LOCK_ATTEMPTS {
            // Built under `guard`: with nothing locked, the first time.
            let mut built = plan();
            let stands = match &mut built {
                Ok(p) => guard.as_ref().is_some_and(|g| g.covers(&p.noted().oids)),
                Err(u) => txn.settled(guard.as_ref(), &u.seen),
            };
            if !stands {
                if guard.take().is_some() {
                    txn.note_conflict();
                }
                match &mut built {
                    Ok(p) => want.extend_from_slice(&p.noted().oids),
                    Err(u) => want.extend(u.seen.iter().map(|&(oid, _)| oid)),
                }
                want.sort_unstable();
                want.dedup();
                let held = guard.insert(txn.lock_sorted(&want)?);
                // A stale plan drops here, and its pins with it, before the
                // rebuild takes its own.
                let fresh = match &mut built {
                    Ok(p) => held.acquired_at(&p.noted().seqs),
                    Err(_) => false,
                };
                if !fresh {
                    continue;
                }
            }
            let mut current = built.map_err(|u| u.err)?;
            let applied = self.apply_and_commit(|db, w| {
                let pins = std::mem::replace(&mut current.noted().pins, PagePins::none());
                apply(&mut db.write_ctx_with(w, pins), current)
            });
            return Ok(applied?);
        }
        Err(DbError::Unsupported("write-lock closure kept changing under contention".into()).into())
    }

    /// The one seqlock read loop: every `&self` read of object bytes runs
    /// in it. `body` is one optimistic attempt: it reads every OID whose
    /// bytes it consumes through [`Watch::read`], and returns `Ok(None)`
    /// when told a writer holds one. The attempt's outcome — value or error —
    /// stands only if every entered OID is still at the version it was
    /// entered under; otherwise it is retried (counted, with backoff), and
    /// after [`DEADLOCK_WATCHDOG`] given up as [`DbError::LockTimeout`] on
    /// `anchor`. Never blocks.
    ///
    /// A reader waits on the words as a locker would: under a held
    /// [`LockSet`] it would wait on its own word, so writers read with
    /// `read_object`, and debug builds assert it on the lock-rank stack.
    fn snapshot_read<T>(
        &self,
        anchor: Oid,
        mut body: impl FnMut(&mut Watch<'_>) -> Result<Option<T>>,
    ) -> Result<T> {
        let _order = lockorder::acquired(lockorder::OID_SEQLOCK, false, "OidSeqlock read");
        let txn = self.txn();
        // The watchdog's clock starts at the first retry.
        let mut retrying_since: Option<Instant> = None;
        let mut attempt = 0u32;
        loop {
            if attempt > 0 {
                txn.note_snapshot_retry();
                snapshot_backoff(attempt);
                let since = *retrying_since.get_or_insert_with(Instant::now);
                if attempt.is_multiple_of(1024) && since.elapsed() > DEADLOCK_WATCHDOG {
                    return Err(DbError::LockTimeout(anchor));
                }
            }
            attempt = attempt.wrapping_add(1);
            let mut watch = Watch {
                table: &txn.table,
                seen: [(0, 0); 3],
                len: 0,
                more: Vec::new(),
            };
            match body(&mut watch) {
                Ok(Some(v)) if watch.still_valid() => return Ok(v),
                Err(e) if watch.still_valid() => return Err(e),
                _ => {} // a writer was, or got, in the way
            }
        }
    }

    /// Read the object at `oid` (base values + annotations): one snapshot.
    pub fn get(&self, oid: Oid) -> Result<Object> {
        self.snapshot_read(oid, |watch| {
            watch.read(oid, || {
                read_object(self.sm(), &PagePins::none(), self.catalog(), oid)
            })
        })
    }

    /// Read one base field by name, where it is stored: the object is not
    /// decoded.
    pub fn get_field(&self, oid: Oid, field: &str) -> Result<Value> {
        self.snapshot_read(oid, |watch| {
            watch.read(oid, || {
                view_object(self.sm(), &PagePins::none(), self.catalog(), oid, |v| {
                    v.field_named(field)
                })
            })
        })
    }

    /// [`Database::get`], under its former name.
    #[doc(hidden)]
    pub fn snapshot_get(&self, oid: Oid) -> Result<Object> {
        self.get(oid)
    }

    /// [`Database::get_field`], under its former name.
    #[doc(hidden)]
    pub fn snapshot_field(&self, oid: Oid, field: &str) -> Result<Value> {
        self.get_field(oid, field)
    }

    /// Dereference a path with plain functional joins (the no-replication
    /// baseline): one [`Database::walk_path`] from `oid`, reading one
    /// object per hop.
    pub fn deref_path(&self, oid: Oid, dotted: &str) -> Result<Option<Vec<Value>>> {
        let cat = self.catalog();
        let set = cat.set(self.set_of(oid)?);
        let path = cat.resolve_path_str(&format!("{}.{dotted}", set.name))?;
        Ok(self
            .walk_path(oid, &path.hops, &path.terminal_fields)?
            .values)
    }

    /// The one walk of a resolved dotted path: from `start`, each object's
    /// reference field `hops[i]` is read where it lies, up to the object
    /// the last hop reaches, whose `fields` are read. Every object it reads
    /// is entered in one validation window, so the walk is one snapshot.
    pub fn walk_path(&self, start: Oid, hops: &[usize], fields: &[usize]) -> Result<PathWalk> {
        self.snapshot_read(start, |watch| self.walk(watch, start, hops, fields))
    }

    /// One attempt's [`Database::walk_path`]; `None` asks for a retry.
    fn walk(
        &self,
        watch: &mut Watch<'_>,
        start: Oid,
        hops: &[usize],
        fields: &[usize],
    ) -> Result<Option<PathWalk>> {
        let (sm, cat, pins) = (self.sm(), self.catalog(), PagePins::none());
        let (mut chain, mut at) = (vec![start], start);
        for &hop in hops {
            let read = watch.read(at, || view_object(sm, &pins, cat, at, |v| v.field(hop)))?;
            let Some(next) = read else {
                return Ok(None);
            };
            let Some(next) = ref_target(&next) else {
                return Ok(Some(PathWalk {
                    chain,
                    values: None,
                }));
            };
            chain.push(next);
            at = next;
        }
        let values = watch.read(at, || {
            view_object(sm, &pins, cat, at, |v| {
                fields.iter().map(|&f| v.field(f)).collect()
            })
        })?;
        Ok(values.map(|values| PathWalk {
            chain,
            values: Some(values),
        }))
    }

    /// Inverse function over an inverted path (§8: "ways in which
    /// inverted paths can be used … in implementing inverse functions"):
    /// the objects of `link`'s source side that reference `target` along
    /// the link — read straight from the link store, without scanning.
    /// The store below `target` is guarded by `target` (see
    /// [`crate::ripple`]), so the read enters `target` alone.
    pub fn inverse(&self, link: LinkId, target: Oid) -> Result<Vec<Oid>> {
        let ldef = self.catalog().link(link);
        self.snapshot_read(target, |watch| {
            watch.read(target, || {
                let (sm, pins) = (self.sm(), PagePins::none());
                let obj = read_object(sm, &pins, self.catalog(), target)?;
                if !ldef.collapsed {
                    return links::link_members(sm, &pins, &obj, ldef);
                }
                let members = collapsed::members(sm, &pins, &obj, ldef)?;
                Ok(members.into_iter().map(|(src, _)| src).collect())
            })
        })
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
        let mut ctx = self.ctx();
        let read = watch.read(source, || {
            view_object(ctx.sm, &PagePins::none(), ctx.cat, source, |v| {
                let hop = v.field(pdef.hops[0])?;
                Ok(match (pdef.strategy, pdef.group) {
                    (Strategy::Separate, Some(g)) => (hop, None, v.replica_ref(g.0)?),
                    _ => (hop, v.replica_values(pdef.id.0)?, None),
                })
            })
        })?;
        let Some((hop, hidden, roid)) = read else {
            return Ok(None);
        };
        let visible = match roid {
            Some(roid) => match watch.read(roid, || replica_path_values(&mut ctx, pdef, roid))? {
                Some(values) => Some(values),
                None => return Ok(None),
            },
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
    /// field values (the walk of the forward chain). The two are read
    /// under one validation window, so `visible == truth` — both `None` on
    /// a broken chain, or equal value lists — is exactly the paper's
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
            let truth = match next {
                Some(next) => {
                    match self.walk(watch, next, &pdef.hops[1..], &pdef.terminal_fields)? {
                        Some(walk) => walk.values,
                        None => return Ok(None),
                    }
                }
                None => None,
            };
            Ok(Some((visible, truth)))
        })
    }
}

/// Where a dotted path leads from one object: what
/// [`Database::walk_path`] read.
#[derive(Clone, Debug, PartialEq)]
pub struct PathWalk {
    /// The objects the walk reached, the start first: one more than there
    /// are hops when every hop reached one.
    pub chain: Vec<Oid>,
    /// The last object's values of the walk's fields, when every hop
    /// reached an object; `None` from the first NULL reference on.
    pub values: Option<Vec<Value>>,
}

impl PathWalk {
    /// The object the last hop reached, if every hop reached one.
    pub fn terminal(&self) -> Option<Oid> {
        self.values.as_ref().and(self.chain.last().copied())
    }
}

/// The lock words of the OIDs one optimistic read attempt consumed bytes
/// of, each with the (even) version it was entered under. Three is the
/// most a read of one path's source touches (source, shared replica
/// object, terminal) and is kept inline; a longer walk spills.
struct Watch<'a> {
    table: &'a LockTable,
    seen: [(u32, u64); 3],
    len: usize,
    /// The entries past the third; never allocated by a read of three
    /// OIDs or fewer.
    more: Vec<(u32, u64)>,
}

impl Watch<'_> {
    /// Start watching `oid`, then run `read`, which consumes its bytes.
    /// `None`, without running `read`, means a writer holds the word right
    /// now and the attempt should be abandoned.
    fn read<R>(&mut self, oid: Oid, read: impl FnOnce() -> Result<R>) -> Result<Option<R>> {
        let w = self.table.word_of(oid);
        let seq = self.table.load(w);
        if seq & 1 == 1 {
            return Ok(None);
        }
        match self.seen.get_mut(self.len) {
            Some(slot) => {
                *slot = (w, seq);
                self.len += 1;
            }
            None => self.more.push((w, seq)),
        }
        read().map(Some)
    }

    /// Whether no entered word has been write-locked since it was entered.
    fn still_valid(&self) -> bool {
        fence(Ordering::Acquire); // the attempt's reads, then the re-loads
        let unmoved = |&(w, seq): &(u32, u64)| self.table.reload(w) == seq;
        self.seen[..self.len].iter().all(unmoved) && self.more.iter().all(unmoved)
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
    use crate::ripple::RipplePlan;
    use crate::{Database, DbConfig};
    use fieldrep_model::{FieldType, TypeDef};
    use std::sync::atomic::AtomicBool;

    impl TxnManager {
        /// A manager over `words` lock words, so that OIDs share them.
        pub(crate) fn with_lock_words(words: usize) -> Self {
            TxnManager {
                table: LockTable::new(words),
                ..TxnManager::default()
            }
        }
    }

    /// The `n`-th OID of an ascending sequence.
    fn nth_oid(n: u32) -> Oid {
        Oid::new(fieldrep_storage::FileId(1), n / 64, (n % 64) as u16)
    }

    /// The first OID after `nth_oid(from)` that shares `word`.
    fn next_on_word(mgr: &TxnManager, word: u32, from: u32) -> u32 {
        (from + 1..)
            .find(|&n| mgr.table.word_of(nth_oid(n)) == word)
            .unwrap()
    }

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
        let plan = RipplePlan::build(&db, d, &[("name", Value::Str("Boots".into()))]).unwrap();
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
        let plan = RipplePlan::build(&db, d, &[("name", Value::Str("Boots".into()))]).unwrap();
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
        let plan = RipplePlan::build(&db, e, &changes).unwrap();
        assert!(plan.oids().contains(&o1) && !plan.oids().contains(&o2));

        // A commit re-points d2 to o2, rewiring the planned chain.
        db.update_txn(d2, &[("org", Value::Ref(o2))]).unwrap();
        let guard = db.txn().lock_sorted(plan.oids()).unwrap();
        assert!(
            !guard.acquired_at(&plan.noted.seqs),
            "d2 moved after it joined the plan"
        );
        let replan = RipplePlan::build(&db, e, &changes).unwrap();
        assert!(replan.oids().contains(&o2), "re-plan follows the new chain");
        assert!(!guard.covers(replan.oids()), "so the locked set must grow");
        drop(guard);

        // A plan nobody disturbs validates (`replan` itself was built while
        // its members were held, i.e. at odd versions).
        let fresh = RipplePlan::build(&db, e, &changes).unwrap();
        let guard = db.txn().lock_sorted(fresh.oids()).unwrap();
        assert!(guard.acquired_at(&fresh.noted.seqs));
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
        assert_eq!(db.get_field(d, "name").unwrap(), Value::Str("Boots".into()));
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
        writers_and_readers_agree(&db, d, &emps, p);
    }

    /// The same mix over a table of four words: every lock set meets every
    /// other on a shared word, and so does every reader. Both strategies,
    /// because a separate read validates two OIDs (source and `S'`).
    #[test]
    fn shared_words_cost_waits_and_retries_never_a_torn_read() {
        for strategy in [Strategy::InPlace, Strategy::Separate] {
            let (db, d, emps, p) = db_with_path(strategy);
            let db = db.with_lock_words(4);
            writers_and_readers_agree(&db, d, &emps, p);
            assert_eq!(db.txn().commit_epoch(), 100, "no update timed out");
        }
    }

    fn writers_and_readers_agree(db: &Database, d: Oid, emps: &[Oid], p: PathId) {
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

    #[test]
    fn two_oids_on_one_word_are_locked_once() {
        let mgr = TxnManager::default();
        let a = nth_oid(0);
        let b = nth_oid(next_on_word(&mgr, mgr.table.word_of(a), 0));
        let g = mgr.lock_sorted(&[a, b]).unwrap(); // no self-deadlock
        assert_eq!((g.len(), g.words().len()), (2, 1));
        assert!(g.covers(&[a, b]) && g.acquired_at(&[0, 0]));
        assert_eq!((mgr.seq_of(a), mgr.seq_of(b)), (1, 1), "odd while held");
        drop(g);
        assert_eq!((mgr.seq_of(a), mgr.seq_of(b)), (2, 2), "+2 after");

        // Another transaction's `b` waits for `a`: a false conflict, and
        // counted as a wait whenever the waiter arrived before the release.
        for _ in 0..1000 {
            let waits = mgr.stats().lock_waits;
            let (arrived, released) = (AtomicBool::new(false), AtomicBool::new(false));
            let g = mgr.lock_sorted(&[a]).unwrap();
            std::thread::scope(|s| {
                s.spawn(|| {
                    arrived.store(true, Ordering::SeqCst);
                    let g = mgr.lock_sorted(&[b]).unwrap();
                    assert!(released.load(Ordering::SeqCst), "b locked while a was held");
                    assert!(g.covers(&[b]) && !g.covers(&[a]));
                });
                while !arrived.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                std::thread::yield_now();
                released.store(true, Ordering::SeqCst);
                drop(g);
            });
            match mgr.stats().lock_waits - waits {
                0 => continue, // the waiter was descheduled until the release
                n => return assert_eq!(n, 1, "one wait per contended word"),
            }
        }
        panic!("the waiter never arrived while the word was held");
    }

    #[test]
    fn a_snapshot_read_retries_while_its_word_is_held_for_another_oid() {
        let (db, _d, emps, _p) = db_with_path(Strategy::InPlace);
        let db = db.with_lock_words(4);
        let word = |o: Oid| db.txn().table.word_of(o);
        // Eight sources over four words: two of them share one.
        let (a, b) = emps
            .iter()
            .flat_map(|&a| emps.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| a < b && word(a) == word(b))
            .unwrap();
        let g = db.txn().lock_sorted(&[a]).unwrap();
        std::thread::scope(|s| {
            let reader = s.spawn(|| db.get(b).unwrap());
            while db.txn().stats().snapshot_retries == 0 {
                std::thread::yield_now();
            }
            assert!(!reader.is_finished(), "validated under a held word");
            drop(g);
            assert_eq!(reader.join().unwrap(), db.get(b).unwrap());
        });
    }

    /// Runs `read` on a thread while this one holds `held`'s word: it must
    /// not return until the release, and must retry meanwhile. Returns
    /// what it read after the release.
    fn held_back<T: Send>(db: &Database, held: Oid, read: impl Fn() -> Result<T> + Sync) -> T {
        let retries = db.txn().stats().snapshot_retries;
        let g = db.txn().lock_sorted(&[held]).unwrap();
        std::thread::scope(|s| {
            let reader = s.spawn(&read);
            while !reader.is_finished() && db.txn().stats().snapshot_retries == retries {
                std::thread::yield_now();
            }
            assert!(!reader.is_finished(), "returned while the word was held");
            drop(g);
            let got = reader.join().unwrap().unwrap();
            assert!(db.txn().stats().snapshot_retries > retries);
            got
        })
    }

    /// Every read door validates: `get`, `get_field`, `deref_path`
    /// through an object and `inverse` on it wait while a writer holds the
    /// object's word, then return the committed value.
    #[test]
    fn every_read_door_waits_while_a_word_it_reads_is_held() {
        let (db, d, emps, _p) = db_with_path(Strategy::InPlace);
        let shoe = Value::Str("Shoe".into());
        assert_eq!(held_back(&db, d, || db.get(d)), db.get(d).unwrap());
        assert_eq!(held_back(&db, d, || db.get_field(d, "name")), shoe);
        assert_eq!(
            held_back(&db, d, || db.deref_path(emps[0], "dept.name")),
            Some(vec![shoe])
        );
        let mut sources = held_back(&db, d, || db.inverse_of("Emp.dept", d));
        sources.sort_unstable();
        assert_eq!(sources, emps);
    }

    /// A walk enters every node it reads, past the three words a watch
    /// keeps inline: the fifth node of a four-hop walk holds it back.
    #[test]
    fn a_walk_longer_than_three_hops_waits_on_its_last_node() {
        let mut db = Database::in_memory(DbConfig::default());
        let node = vec![
            ("v", FieldType::Int),
            ("next", FieldType::Ref("NODE".into())),
        ];
        db.define_type(TypeDef::new("NODE", node)).unwrap();
        db.create_set("Nodes", "NODE").unwrap();
        let mut chain = vec![Oid::NULL];
        for v in (0..5).rev() {
            let next = Value::Ref(chain[0]);
            chain.insert(0, db.insert("Nodes", vec![Value::Int(v), next]).unwrap());
        }
        let four_hops = || db.deref_path(chain[0], "next.next.next.next.v");
        assert_eq!(
            held_back(&db, chain[4], four_hops),
            Some(vec![Value::Int(4)])
        );
        let walk = db.walk_path(chain[0], &[1, 1, 1, 1], &[0]).unwrap();
        assert_eq!(
            (walk.terminal(), &walk.chain[..]),
            (Some(chain[4]), &chain[..5])
        );
    }

    /// A reader that holds a lock set would wait on its own word until
    /// the watchdog: debug builds refuse it on the lock-rank stack.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn a_read_under_a_held_lock_set_trips_the_rank_check() {
        let (db, d, _emps, _p) = db_with_path(Strategy::InPlace);
        let _held = db.txn().lock_sorted(&[d]).unwrap();
        let _ = db.get(d);
    }

    #[test]
    fn lock_sets_whose_oid_order_and_word_order_disagree_do_not_deadlock() {
        let mgr = TxnManager::default();
        let word = |n: u32| mgr.table.word_of(nth_oid(n));
        // a < b on words (hi, lo); c < d on words (lo, hi): taken in OID
        // order the two sets would wait for each other.
        let a = (0..).find(|&n| word(n) > word(n + 1)).unwrap();
        let (b, (hi, lo)) = (a + 1, (word(a), word(a + 1)));
        let c = next_on_word(&mgr, lo, b);
        let d = next_on_word(&mgr, hi, c);
        let sets = [[nth_oid(a), nth_oid(b)], [nth_oid(c), nth_oid(d)]];
        std::thread::scope(|s| {
            for set in &sets {
                let mgr = &mgr;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        let g = mgr.lock_sorted(set).expect("no LockTimeout");
                        assert_eq!(g.words(), [lo, hi], "ascending word order");
                    }
                });
            }
        });
        assert_eq!(mgr.seq_of(nth_oid(a)), 40_000, "2 per lock, both sets");
    }

    #[test]
    fn the_table_does_not_grow_with_the_oids_ever_locked() {
        let mgr = TxnManager::default();
        let table = (mgr.table.words().as_ptr(), mgr.table.words().len());
        let mut taken = 0;
        for chunk in 0..2_000u32 {
            let oids: Vec<Oid> = (chunk * 100..(chunk + 1) * 100).map(nth_oid).collect();
            let g = mgr.lock_sorted(&oids).unwrap();
            assert_eq!(g.len(), 100);
            taken += g.words().len() as u64;
        }
        assert_eq!((mgr.table.words().as_ptr(), mgr.table.words().len()), table);
        assert_eq!(table.1 * 8, 512 << 10, "512 KiB, whatever was locked");
        let versions = mgr.table.words().iter().map(|w| w.load(Ordering::Relaxed));
        assert_eq!(versions.sum::<u64>(), 2 * taken, "no word was ever reset");
    }
}
