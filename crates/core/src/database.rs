//! The public database facade.
//!
//! `Database` ties together the storage manager, the catalog and the
//! replication engine, and exposes the operations the paper's data model
//! implies: `define type`, `create <set>`, `replicate <path>`,
//! `build btree on <path>`, plus object-level DML with full replication
//! maintenance.

use crate::attach::{
    attach_path, detach_path, set_source_replica_ref, set_terminal_values, walk_from,
};
use crate::error::{DbError, Result};
use crate::objects::{read_object, ref_target, value_key, view_object, write_object};
use crate::propagate::{apply_plan, apply_sync, is_referenced};
use crate::replicas::{anchor_acquire, find_anchor, group_values, write_replica};
use crate::ripple::{Chain, ChainPlan, RipplePlan, SyncPlan};
use crate::{chain, DbConfig, EngineCtx, WriteCtx};
use fieldrep_btree::BTreeIndex;
use fieldrep_catalog::{
    Catalog, IndexId, IndexKind, IndexTarget, PathId, Propagation, RepPathDef, SetId, Strategy,
};
use fieldrep_model::{Annotation, Object, PathExpr, TypeDef, TypeId, Value};
use fieldrep_storage::{
    ApplySection, DiskManager, FileId, HeapFile, IoProfile, Oid, PagePins, StorageManager,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// An object-oriented database with field replication (Shekita & Carey,
/// SIGMOD 1989).
///
/// ```
/// use fieldrep_core::{Database, DbConfig};
/// use fieldrep_catalog::Strategy;
/// use fieldrep_model::{FieldType, TypeDef, Value};
///
/// let mut db = Database::in_memory(DbConfig::default());
/// db.define_type(TypeDef::new("DEPT", vec![
///     ("name", FieldType::Str),
///     ("budget", FieldType::Int),
/// ])).unwrap();
/// db.define_type(TypeDef::new("EMP", vec![
///     ("name", FieldType::Str),
///     ("salary", FieldType::Int),
///     ("dept", FieldType::Ref("DEPT".into())),
/// ])).unwrap();
/// db.create_set("Dept", "DEPT").unwrap();
/// db.create_set("Emp1", "EMP").unwrap();
///
/// let d = db.insert("Dept", vec![Value::Str("Shoe".into()), Value::Int(100)]).unwrap();
/// let e = db.insert("Emp1", vec![
///     Value::Str("Alice".into()), Value::Int(120_000), Value::Ref(d),
/// ]).unwrap();
///
/// // replicate Emp1.dept.name — reads of that path no longer join.
/// let p = db.replicate("Emp1.dept.name", Strategy::InPlace).unwrap();
/// assert_eq!(db.path_values(e, p).unwrap(), Some(vec![Value::Str("Shoe".into())]));
///
/// // Updates propagate automatically.
/// db.update(d, &[("name", Value::Str("Shoes & Boots".into()))]).unwrap();
/// assert_eq!(db.path_values(e, p).unwrap(),
///            Some(vec![Value::Str("Shoes & Boots".into())]));
/// ```
pub struct Database {
    sm: StorageManager,
    catalog: Catalog,
    cfg: DbConfig,
    file_sets: HashMap<FileId, SetId>,
    pending: crate::PendingSet,
    workload: crate::WorkloadStats,
    /// The dedicated file holding the serialized catalog (always the
    /// disk's first file).
    catalog_file: FileId,
    /// Concurrency: OID write-lock table, commit epoch, txn counters.
    txn: crate::txn::TxnManager,
}

impl Database {
    /// Create a database over an in-memory disk.
    pub fn in_memory(cfg: DbConfig) -> Database {
        Self::with_disk(Box::new(fieldrep_storage::MemDisk::new()), cfg)
    }

    /// Create a new database over an arbitrary disk backend. The first
    /// file on the disk is reserved for the serialized catalog (see
    /// [`Database::save`] / [`Database::open`]).
    pub fn with_disk(disk: Box<dyn DiskManager>, cfg: DbConfig) -> Database {
        let sm = StorageManager::new(disk, cfg.pool_pages);
        let catalog_file = sm.create_file().expect("allocate catalog file");
        Self::assemble(sm, Catalog::new(), cfg, catalog_file)
    }

    /// The one place a `Database` is put together: `catalog`, whose image
    /// lives in `catalog_file`, over `sm`.
    fn assemble(
        sm: StorageManager,
        catalog: Catalog,
        cfg: DbConfig,
        catalog_file: FileId,
    ) -> Database {
        Database {
            file_sets: catalog.sets().iter().map(|s| (s.file, s.id)).collect(),
            sm,
            catalog,
            cfg,
            pending: crate::PendingSet::default(),
            workload: crate::WorkloadStats::new(),
            catalog_file,
            txn: crate::txn::TxnManager::default(),
        }
    }

    /// As [`Database::with_disk`] for a **fresh** database, with a
    /// write-ahead log attached: crash recovery runs against the pair
    /// first (a no-op on an empty log), then the pool is built with the
    /// WAL so every operation's commit is durable and every page
    /// write-back obeys the steal rule (see [`fieldrep_storage::wal`]).
    /// The empty catalog's image is the first commit, so the database
    /// reopens after a crash at any point from here on.
    pub fn with_disk_and_wal(
        disk: Box<dyn DiskManager>,
        store: Box<dyn fieldrep_storage::WalStore>,
        cfg: DbConfig,
    ) -> Result<Database> {
        let sm = StorageManager::new_with_wal(disk, store, cfg.pool_pages)?;
        let catalog_file = sm.create_file()?;
        let db = Self::assemble(sm, Catalog::new(), cfg, catalog_file);
        db.apply_and_commit(Database::write_catalog)?;
        Ok(db)
    }

    /// Persist the catalog (schema, sets, indexes, replication paths,
    /// links, groups) into the database's catalog file and flush every
    /// dirty page, so the disk image is self-contained and can be
    /// reopened with [`Database::open`]. Deferred propagation is synced
    /// first (the pending queue lives only in memory). With a WAL
    /// attached the image is one commit and this is a full checkpoint:
    /// data files are fsynced and the log is truncated.
    pub fn save(&mut self) -> Result<()> {
        self.sync_all_pending()?;
        self.apply_and_commit(Database::write_catalog)?;
        Ok(self.sm.checkpoint()?)
    }

    /// Replace the image in the catalog file with the current catalog,
    /// as sequence-numbered chunks.
    fn write_catalog(&self, w: &ApplySection<'_>) -> Result<()> {
        let image = fieldrep_catalog::persist::encode(&self.catalog);
        let (hf, pins) = (HeapFile::open(self.catalog_file), PagePins::none());
        for oid in self.file_oids(hf.file)? {
            hf.rec_delete(w, &pins, oid)?;
        }
        let max = fieldrep_storage::MAX_RECORD_PAYLOAD - 8;
        let count = image.chunks(max).count() as u32;
        for (seq, chunk) in image.chunks(max).enumerate() {
            let mut payload = Vec::with_capacity(8 + chunk.len());
            payload.extend_from_slice(&(seq as u32).to_le_bytes());
            payload.extend_from_slice(&count.to_le_bytes());
            payload.extend_from_slice(chunk);
            hf.rec_insert(w, &pins, 0xFFFC, &payload)?;
        }
        Ok(())
    }

    /// The end of every catalog change, in the section `w` it ran in.
    /// Under a WAL it is one commit: the pages the change wrote and the
    /// new catalog image. Without one it logs nothing, and
    /// [`Database::save`] writes the image.
    fn commit_ddl(&self, w: ApplySection<'_>) -> Result<()> {
        if self.sm.wal_enabled() {
            self.write_catalog(&w)?;
        }
        self.commit(w)
    }

    /// Reopen a database previously built with [`Database::with_disk`]
    /// and persisted with [`Database::save`].
    pub fn open(disk: Box<dyn DiskManager>, cfg: DbConfig) -> Result<Database> {
        let sm = StorageManager::new(disk, cfg.pool_pages);
        Self::open_with_sm(sm, cfg)
    }

    /// Reopen a database with a write-ahead log: crash recovery runs
    /// first (replaying any committed transactions the log still
    /// holds), then the catalog is read from the recovered disk image.
    /// This is the constructor a kill-and-restart cycle uses; see
    /// [`StorageManager::recovery_report`] for what recovery found.
    pub fn open_with_wal(
        disk: Box<dyn DiskManager>,
        store: Box<dyn fieldrep_storage::WalStore>,
        cfg: DbConfig,
    ) -> Result<Database> {
        let sm = StorageManager::new_with_wal(disk, store, cfg.pool_pages)?;
        Self::open_with_sm(sm, cfg)
    }

    fn open_with_sm(sm: StorageManager, cfg: DbConfig) -> Result<Database> {
        let hf = HeapFile::open(FileId(0));
        let bad = || DbError::Unsupported("corrupt catalog image (bad chunk)".into());
        let mut chunks: Vec<(u32, Vec<u8>)> = Vec::new();
        for oid in hf.oids(&sm)? {
            let chunk = hf.view(&sm, &PagePins::none(), oid, |tag, payload| {
                let (seq, rest) = payload.split_first_chunk::<4>()?;
                let chunk = rest.get(4..).filter(|_| tag == 0xFFFC)?;
                Some((u32::from_le_bytes(*seq), chunk.to_vec()))
            })?;
            chunks.push(chunk.ok_or_else(bad)?);
        }
        if chunks.is_empty() {
            return Err(DbError::Unsupported(
                "no catalog image on this disk (was the database saved?)".into(),
            ));
        }
        chunks.sort_by_key(|(seq, _)| *seq);
        let image: Vec<u8> = chunks.into_iter().flat_map(|(_, c)| c).collect();
        let catalog = fieldrep_catalog::persist::decode(&image)?;
        let db = Self::assemble(sm, catalog, cfg, FileId(0));
        // An index file from before the B⁺-tree root was fixed at page 0
        // is rewritten to today's layout, all of them in one commit.
        db.apply_and_commit(|db, w| {
            for idx in db.catalog.indexes() {
                BTreeIndex::open(idx.file).upgrade(w)?;
            }
            Ok(())
        })?;
        Ok(db)
    }

    /// Tests only: this database over a lock table of `words` words, so
    /// that many of its OIDs share one.
    #[cfg(test)]
    pub(crate) fn with_lock_words(mut self, words: usize) -> Database {
        self.txn = crate::txn::TxnManager::with_lock_words(words);
        self
    }

    /// The transaction manager (OID write locks, snapshot versions,
    /// txn counters — see [`crate::txn`]).
    pub fn txn(&self) -> &crate::txn::TxnManager {
        &self.txn
    }

    /// The catalog (schema, sets, paths, links, groups, indexes).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The storage manager (for I/O statistics and low-level access from
    /// the query processor). Writing through it takes an [`ApplySection`],
    /// which only [`Database::apply_and_commit`] hands out.
    pub fn sm(&self) -> &StorageManager {
        &self.sm
    }

    /// Engine configuration.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// Borrow the pieces the engine functions need. Takes `&self`: the
    /// context is all shared references (see [`EngineCtx`]), so DML can
    /// run from many threads over one database.
    pub fn ctx(&self) -> EngineCtx<'_> {
        EngineCtx {
            sm: &self.sm,
            cat: &self.catalog,
            cfg: &self.cfg,
            pending: &self.pending,
            workload: &self.workload,
        }
    }

    /// The engine context of a write inside the section `w`, keeping no
    /// page pin: what the bulk DDL paths write with.
    pub fn write_ctx<'a>(&'a self, w: &'a ApplySection<'a>) -> WriteCtx<'a> {
        self.write_ctx_with(w, PagePins::none())
    }

    /// The engine context of a write inside the section `w` whose page
    /// requests are asked of `pins`.
    pub(crate) fn write_ctx_with<'a>(
        &'a self,
        w: &'a ApplySection<'a>,
        pins: PagePins,
    ) -> WriteCtx<'a> {
        WriteCtx {
            ctx: self.ctx(),
            w,
            pins,
        }
    }

    /// Observed per-path workload statistics (reads, update ripples,
    /// fan-out and page-I/O EWMAs). See [`crate::WorkloadStats`].
    pub fn workload(&self) -> &crate::WorkloadStats {
        &self.workload
    }

    /// One line per observed path: the workload snapshot the slow-query
    /// log stores next to an over-threshold statement's profile.
    pub fn workload_snapshot_text(&self) -> String {
        self.workload
            .all()
            .iter()
            .map(|(path, w)| {
                format!(
                    "{path}: reads={} updates={} p_up={:.3} fanout={:.2} read_pages={:.2} update_pages={:.2}",
                    w.reads,
                    w.updates,
                    w.p_up(),
                    w.fanout_ewma,
                    w.read_pages_ewma,
                    w.update_pages_ewma
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Statement-boundary hook: offer a finished statement (text, plan
    /// rendering, per-operator profile, row count) to the process-wide
    /// [slow-query log](fieldrep_obs::slowlog), attaching this
    /// database's workload snapshot. Returns whether it was recorded.
    /// Free (two relaxed loads) while the log is unarmed.
    pub fn observe_statement(
        &self,
        statement: &str,
        plan: &str,
        profile: &fieldrep_obs::Profile,
        rows: u64,
    ) -> bool {
        // Build the workload snapshot only when a threshold actually
        // tripped; `slowlog::observe` re-checks, so probe first.
        let (wall, pages) = fieldrep_obs::slowlog::thresholds();
        if wall.is_none() && pages.is_none() {
            return false;
        }
        fieldrep_obs::slowlog::observe(
            statement,
            plan,
            profile,
            rows,
            &self.workload_snapshot_text(),
        )
    }

    /// Arm the process-wide slow-query log; see
    /// [`fieldrep_obs::slowlog::set_thresholds`].
    pub fn set_slowlog_thresholds(&self, wall_ms: Option<u64>, io_pages: Option<u64>) {
        fieldrep_obs::slowlog::set_thresholds(wall_ms, io_pages);
    }

    /// Disarm the slow-query log (the initial state).
    pub fn set_slowlog_off(&self) {
        fieldrep_obs::slowlog::set_off();
    }

    /// I/O counters since the last reset.
    pub fn io_profile(&self) -> IoProfile {
        self.sm.io_profile()
    }

    /// Reset the whole I/O profile (disk and pool counters together); see
    /// [`fieldrep_storage::BufferPool::reset_profile`]. This is the reset
    /// the benchmark harness uses for cold-pool accounting.
    pub fn reset_profile(&self) {
        self.sm.reset_profile();
    }

    /// Flush all dirty pages and leave the buffer pool cold (used between
    /// measured queries).
    pub fn flush_all(&self) -> Result<()> {
        Ok(self.sm.flush_all()?)
    }

    // ------------------------------------------------------------------ DDL

    /// `define type …`.
    pub fn define_type(&mut self, def: TypeDef) -> Result<TypeId> {
        let id = self.catalog.define_type(def)?;
        self.commit_ddl(self.sm.apply_section())?;
        Ok(id)
    }

    /// `create <Name> : {own ref <TYPE>}` — a named set stored as its own
    /// disk file.
    pub fn create_set(&mut self, name: &str, type_name: &str) -> Result<SetId> {
        let file = self.sm.create_file()?;
        let id = self.catalog.create_set(name, type_name, file)?;
        self.file_sets.insert(file, id);
        self.commit_ddl(self.sm.apply_section())?;
        Ok(id)
    }

    /// The set an object belongs to (by its OID's file).
    pub fn set_of(&self, oid: Oid) -> Result<SetId> {
        self.file_sets
            .get(&oid.file)
            .copied()
            .ok_or(DbError::NotInSet(oid))
    }

    /// `replicate <path>` with the chosen strategy. If the set already has
    /// members, the inverted path, hidden fields and replica objects are
    /// built now — the "one-time cost to build it" the paper mentions
    /// (§4.1.2). Returns the new path id.
    pub fn replicate(&mut self, path: &str, strategy: Strategy) -> Result<PathId> {
        self.replicate_with(path, strategy, Propagation::Eager)
    }

    /// As [`Database::replicate`], choosing eager or deferred value
    /// propagation (§8: "updates are not propagated until needed").
    /// Deferred paths batch their refresh work; queries that read the
    /// path sync it first (or call [`Database::sync_path`] explicitly).
    pub fn replicate_with(
        &mut self,
        path: &str,
        strategy: Strategy,
        propagation: Propagation,
    ) -> Result<PathId> {
        self.replicate_full(path, strategy, propagation, false)
    }

    /// §4.3.3: replicate a 2-level path with a *collapsed* inverted path —
    /// one tagged link from the terminal objects directly to the sources.
    /// Terminal updates then propagate through a single link level;
    /// intermediate re-targets move tagged entries between stores.
    pub fn replicate_collapsed(&mut self, path: &str, propagation: Propagation) -> Result<PathId> {
        self.replicate_full(path, Strategy::InPlace, propagation, true)
    }

    fn replicate_full(
        &mut self,
        path: &str,
        strategy: Strategy,
        propagation: Propagation,
        collapsed: bool,
    ) -> Result<PathId> {
        let expr = PathExpr::parse(path)?;
        // Snapshot which links exist already (they are complete and can be
        // skipped by the builder).
        let pre_links: BTreeSet<u8> = self.catalog.links().map(|l| l.id.0).collect();
        let w = self.sm.apply_section();
        let decl = self.catalog.declare_replication_full(
            &expr,
            strategy,
            propagation,
            collapsed,
            &self.sm,
        )?;
        let path_def = self.catalog.path(decl.path).clone();
        self.build_path(&w, &path_def, &pre_links)?;
        if decl.group_extended {
            self.resync_group(&w, &path_def)?;
        }
        self.commit_ddl(w)?;
        Ok(decl.path)
    }

    /// Bulk-build the physical structures for a freshly declared path.
    fn build_path(
        &self,
        w: &ApplySection<'_>,
        path: &RepPathDef,
        pre_links: &BTreeSet<u8>,
    ) -> Result<()> {
        if path.collapsed {
            return self.build_collapsed_path(w, path, pre_links);
        }
        // Pass 1: scan the source set, walk every chain.
        let chains = self.source_chains(path)?;
        let pins = PagePins::none();
        // memberships[level]: target -> sorted members.
        let mut memberships: Vec<BTreeMap<Oid, BTreeSet<Oid>>> =
            vec![BTreeMap::new(); path.links.len()];
        for (_, chain) in &chains {
            for lvl in 0..path.links.len() {
                if let (Some(member), Some(target)) = (chain[lvl], chain[lvl + 1]) {
                    memberships[lvl].entry(target).or_default().insert(member);
                }
            }
        }

        // Pass 2: build link structures for links created by this path, in
        // target physical order (the paper stores link objects "in the
        // same physical order as the objects … which reference them").
        for (lvl, link_id) in path.links.iter().enumerate() {
            if pre_links.contains(&link_id.0) {
                continue; // shared with an earlier path ⇒ already complete
            }
            let link = self.catalog.link(*link_id);
            for (target, members) in &memberships[lvl] {
                let members: Vec<Oid> = members.iter().copied().collect();
                let annotation = if self.cfg.inline_link_threshold > 0
                    && link.level == 0
                    && members.len() <= self.cfg.inline_link_threshold
                {
                    Annotation::InlineLink {
                        link: link.id.0,
                        oids: members,
                    }
                } else {
                    Annotation::LinkRef {
                        link: link.id.0,
                        oid: chain::create(w, &pins, link, &members)?,
                    }
                };
                let mut tobj = read_object(w, &pins, &self.catalog, *target)?;
                tobj.annotations.push(annotation);
                write_object(w, &pins, &self.catalog, *target, &tobj)?;
            }
        }

        // Pass 3: terminal materialisation, through the per-source edits
        // of an incremental attach.
        let mut ctx = self.write_ctx(w);
        match path.strategy {
            Strategy::InPlace => set_terminal_values(&mut ctx, path, &chains),
            Strategy::Separate => {
                let group = self.catalog.group_of(path)?;
                // Was this group freshly created by this path? If it has
                // other paths, replicas already exist.
                if group.paths.len() > 1 {
                    return Ok(());
                }
                // Terminal -> sources, in terminal physical order so that
                // S' is laid out in the same order as S (§5, Figure 7).
                let mut by_terminal: BTreeMap<Oid, Vec<Oid>> = BTreeMap::new();
                for (src, chain) in &chains {
                    if let Some(t) = chain.last().copied().flatten() {
                        by_terminal.entry(t).or_default().push(*src);
                    }
                }
                for (t, srcs) in &by_terminal {
                    let roid =
                        anchor_acquire(w, &ctx.pins, &self.catalog, group, *t, srcs.len() as u32)?;
                    for s in srcs {
                        let page = ctx.page_of(*s)?;
                        set_source_replica_ref(&mut ctx, group.id.0, &page, *s, Some(roid))?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Pass 1 of a bulk build: every member of `path`'s source set, in
    /// file order, with its forward chain. Each node's hop is read where it
    /// lies; no node is decoded, and no pin is kept.
    fn source_chains(&self, path: &RepPathDef) -> Result<Vec<(Oid, Chain)>> {
        let (cat, pins) = (&self.catalog, PagePins::none());
        let mut hop_of = |oid: Oid, hop: usize| {
            Ok(ref_target(&view_object(&self.sm, &pins, cat, oid, |v| {
                v.field(hop)
            })?))
        };
        let sources = self.file_oids(cat.set(path.set).file)?;
        sources
            .into_iter()
            .map(|src| {
                let next = hop_of(src, path.hops[0])?;
                Ok((src, walk_from(path, 0, src, next, &mut hop_of)?))
            })
            .collect()
    }

    /// Bulk-build a §4.3.3 collapsed path: one tagged store per terminal
    /// (or per parked intermediate), `CollapsedVia` markers, then values.
    fn build_collapsed_path(
        &self,
        w: &ApplySection<'_>,
        path: &RepPathDef,
        pre_links: &BTreeSet<u8>,
    ) -> Result<()> {
        let link = self.catalog.link(path.links[0]);
        let chains = self.source_chains(path)?;
        let mut holders: BTreeMap<Oid, Vec<(Oid, Oid)>> = BTreeMap::new();
        let mut vias: BTreeSet<Oid> = BTreeSet::new();
        for (src, chain) in &chains {
            if let Some(d) = chain[1] {
                let holder = chain[2].unwrap_or(d);
                holders.entry(holder).or_default().push((*src, d));
                vias.insert(d);
            }
        }

        let mut ctx = self.write_ctx(w);
        if !pre_links.contains(&link.id.0) {
            for (holder, mut entries) in holders {
                entries.sort_unstable_by_key(|e| e.0);
                crate::collapsed::tag(&ctx, link, holder, &entries)?;
            }
            for via in vias {
                crate::collapsed::mark_via(&ctx, link.id.0, via, true)?;
            }
        }
        set_terminal_values(&mut ctx, path, &chains)
    }

    /// Rewrite every replica object of `path`'s group from its terminal
    /// object — needed when a new path extends the group's field list.
    fn resync_group(&self, w: &ApplySection<'_>, path: &RepPathDef) -> Result<()> {
        let group = self.catalog.group_of(path)?;
        let term_type = group.terminal_type;
        let term_sets: Vec<FileId> = self
            .catalog
            .sets_of_type(term_type)
            .map(|s| s.file)
            .collect();
        for file in term_sets {
            for oid in self.file_oids(file)? {
                let (ctx, pins) = (self.ctx(), PagePins::none());
                let obj = read_object(ctx.sm, &pins, ctx.cat, oid)?;
                if let Some((_, roid, _)) = find_anchor(&obj, group.id.0) {
                    let values = group_values(group, &obj);
                    write_replica(w, &pins, group, roid, &values)?;
                }
            }
        }
        Ok(())
    }

    /// `build btree on <path>` (§3.3.4). A plain `Set.field` path builds a
    /// base-field index; a path with reference hops must name an existing
    /// **in-place** replication path, and the index is built over the
    /// replicated values stored in the source objects.
    pub fn create_index(&mut self, path: &str, kind: IndexKind) -> Result<IndexId> {
        let resolved = self.catalog.resolve_path_str(path)?;
        let field = resolved.terminal_fields[0];
        let set = self.catalog.set(resolved.set).clone();
        // Sorted (key, oid) pairs from a scan.
        let mut entries = Vec::new();
        let target = if resolved.hops.is_empty() {
            for oid in self.file_oids(set.file)? {
                let ctx = self.ctx();
                let obj = read_object(ctx.sm, &PagePins::none(), ctx.cat, oid)?;
                entries.push((value_key(&obj.values[field]), oid));
            }
            IndexTarget::Field(field)
        } else {
            // Index on replicated values.
            let rep = self
                .catalog
                .replica_for(resolved.set, &resolved.hops, field)
                .ok_or_else(|| {
                    DbError::Unsupported(format!(
                        "index on {path:?} requires the path to be replicated first"
                    ))
                })?;
            if rep.strategy != Strategy::InPlace {
                return Err(DbError::Unsupported(
                    "path indexes are built over in-place replicated values; \
                     replicate the path with Strategy::InPlace"
                        .into(),
                ));
            }
            if rep.propagation != Propagation::Eager {
                return Err(DbError::Unsupported(
                    "path indexes require eager propagation (a deferred path's \
                     index would go stale between syncs)"
                        .into(),
                ));
            }
            let rep_id = rep.id;
            let pos = rep
                .terminal_fields
                .iter()
                .position(|f| *f == field)
                .expect("replica_for checked membership");
            for oid in self.file_oids(set.file)? {
                let ctx = self.ctx();
                let obj = read_object(ctx.sm, &PagePins::none(), ctx.cat, oid)?;
                if let Some(vals) = obj.replica_values(rep_id.0) {
                    entries.push((value_key(&vals[pos]), oid));
                }
            }
            IndexTarget::ReplicatedPath(rep_id)
        };
        entries.sort();
        let w = self.sm.apply_section();
        let tree = BTreeIndex::bulk_load(&w, &entries, 1.0)?;
        let id = self
            .catalog
            .declare_index(resolved.set, target, kind, tree.file)?;
        self.commit_ddl(w)?;
        Ok(id)
    }

    // ------------------------------------------------------------------ DML

    /// The one commit sequence every mutation ends in: run `f` — the
    /// whole operation — inside the apply section, whose
    /// [`ApplySection`] every storage mutator demands; log the pages it
    /// dirtied as one commit record while still inside, leave the
    /// section, then make the record durable (outside it, so concurrent
    /// commits share the fsync). Without a WAL this is just `f`.
    ///
    /// If `f` succeeds but logging or the fsync fails, the result is
    /// [`DbError::CommitNotDurable`]: the operation is applied, and its
    /// pages stay unlogged, so unevictable, until the next commit logs
    /// them. Any other error means the operation was rejected.
    pub fn apply_and_commit<T>(
        &self,
        f: impl FnOnce(&Database, &ApplySection<'_>) -> Result<T>,
    ) -> Result<T> {
        let w = self.sm.apply_section();
        let out = f(self, &w)?;
        self.commit(w)?;
        Ok(out)
    }

    /// The tail of the commit sequence: log what section `w` wrote,
    /// leave it, make the record durable.
    fn commit(&self, w: ApplySection<'_>) -> Result<()> {
        let Some(wal) = self.sm.wal() else {
            return Ok(());
        };
        let lsn = self.sm.pool().log_txn_commit();
        drop(w);
        if let Some(lsn) = lsn.map_err(DbError::CommitNotDurable)? {
            wal.sync_to(lsn).map_err(DbError::CommitNotDurable)?;
        }
        Ok(())
    }

    /// Insert an object into a set. Reference values are type-checked;
    /// every replication path of the set is attached (§4.1.1 `insert E`),
    /// under the lock words of every node of its chains.
    pub fn insert(&self, set_name: &str, values: Vec<Value>) -> Result<Oid> {
        let cat = &self.catalog;
        let set = cat.set(cat.set_id(set_name)?);
        let def = cat.type_def(set.elem_type);
        let obj = Object::new(set.elem_type, def, values)?;
        let plan = || ChainPlan::attach(self, set.id, obj.clone());
        self.write_locked(plan, |ctx, plan| {
            let hf = HeapFile::open(set.file);
            let oid = hf.rec_insert(ctx.w, &ctx.pins, set.elem_type.0, &plan.obj.encode(def))?;

            // Base-field index maintenance.
            for idx in cat.indexes_on(set.id) {
                if let IndexTarget::Field(f) = idx.target {
                    let key = value_key(&plan.obj.values[f]);
                    BTreeIndex::open(idx.file).insert(ctx.w, &key, oid)?;
                }
            }

            // Replication attach.
            for (p, mut chain) in cat.paths_from(set.id).zip(plan.chains) {
                chain[0] = Some(oid);
                attach_path(ctx, p, oid, &chain)?;
            }
            Ok(oid)
        })
    }

    /// The replicated values of `path` as seen from the source object at
    /// `oid` (`None` if the path chain is broken).
    pub fn path_values(&self, oid: Oid, path: PathId) -> Result<Option<Vec<Value>>> {
        self.sync_path(path)?;
        self.snapshot_path_values(oid, path)
    }

    /// Update named fields of the object at `oid`, propagating to all
    /// replicated copies (§4.1.3, §5.2) and maintaining indexes. A field
    /// named more than once takes its last value.
    ///
    /// Safe to call from many threads; writers with disjoint closures run
    /// in parallel. The update's fan-out is planned once, without locks
    /// ([`RipplePlan`]); [`RipplePlan::oids`] is locked in ascending word
    /// order, the plan applied, and every member's version bumped, so
    /// snapshot readers observe the ripple atomically (see [`crate::txn`]).
    ///
    /// # Durability errors
    ///
    /// When a WAL is attached and the in-memory apply succeeds but
    /// logging or fsyncing the commit record fails, this returns
    /// [`DbError::CommitNotDurable`]. The update **is** applied; only
    /// the crash-durability guarantee is lost. Any other error means the
    /// update was rejected.
    pub fn update(&self, oid: Oid, changes: &[(&str, Value)]) -> Result<()> {
        self.update_with(oid, |_| Ok::<_, DbError>(changes.to_vec()))
    }

    /// [`Database::update`] of the changes `eval` computes from the
    /// object: it is handed the image the plan decoded, so the object is
    /// read once, and again only if the plan is rebuilt. An error of
    /// `eval` is returned as it is; an engine error converts into `E`.
    pub fn update_with<'c, E: From<DbError>>(
        &self,
        oid: Oid,
        eval: impl Fn(&Object) -> std::result::Result<Vec<(&'c str, Value)>, E>,
    ) -> std::result::Result<(), E> {
        let plan = || RipplePlan::build_with(self, oid, &eval);
        self.write_locked(plan, |ctx, plan| {
            apply_plan(ctx, plan)?;
            self.txn.note_commit_applied();
            Ok(())
        })
    }

    /// [`Database::update`], under the transactional API's name.
    pub fn update_txn(&self, oid: Oid, changes: &[(&str, Value)]) -> Result<()> {
        self.update(oid, changes)
    }

    /// Delete the object at `oid` (§4.1.1 `delete E`), under the lock
    /// words of the object and every node of its chains. Fails with
    /// [`DbError::StillReferenced`] if other objects still replicate
    /// through it.
    pub fn delete(&self, oid: Oid) -> Result<()> {
        let set = self.set_of(oid)?;
        let plan = || ChainPlan::detach(self, set, oid);
        self.write_locked(plan, |ctx, plan| {
            if is_referenced(&plan.obj) {
                return Err(DbError::StillReferenced(oid));
            }
            // Detach every replication path of the set.
            let cat = ctx.cat;
            for (p, chain) in cat.paths_from(set).zip(&plan.chains) {
                detach_path(ctx, p, oid, chain)?;
            }
            // Base-field index removal.
            for idx in cat.indexes_on(set) {
                if let IndexTarget::Field(f) = idx.target {
                    let key = value_key(&plan.obj.values[f]);
                    BTreeIndex::open(idx.file).delete(ctx.w, &key, oid)?;
                }
            }
            HeapFile::open(oid.file).rec_delete(ctx.w, &ctx.pins, oid)?;
            ctx.pending.purge_object(oid);
            Ok(())
        })
    }

    /// Apply every deferred propagation recorded for `path` (a no-op for
    /// eager paths or when nothing is pending). Returns the number of
    /// work items applied. A sync is a write like any other: a
    /// `SyncPlan` locked and applied by `Database::write_locked`.
    pub fn sync_path(&self, path: PathId) -> Result<usize> {
        if self.pending.count(path) == 0 {
            return Ok(0);
        }
        self.write_locked(|| SyncPlan::build(self, &[path]), apply_sync)
    }

    /// Sync every path with pending deferred work, as one unit: one
    /// commit covers all of them.
    pub fn sync_all_pending(&self) -> Result<usize> {
        let plan = || SyncPlan::build(self, &self.pending.dirty_paths());
        self.write_locked(plan, apply_sync)
    }

    /// Number of deferred work items queued for `path`.
    pub fn pending_count(&self, path: PathId) -> usize {
        self.pending.count(path)
    }

    /// Drop a replication path: replicated values are removed from the
    /// source objects, links whose refcount reaches zero are dismantled
    /// (their 1-byte IDs become reusable, §4.2), and the replica group is
    /// torn down when this was its last path. Fails if an index is built
    /// over the path's replicated values (drop the index first).
    pub fn drop_replication(&mut self, path: PathId) -> Result<()> {
        self.pending.purge_path(path);
        let removed = self.catalog.remove_path(path)?;
        let pdef = &removed.path;
        let set = self.catalog.set(pdef.set).clone();

        // Strip source-side state: hidden values / replica refs.
        let sources = self.file_oids(set.file)?;
        let dropped_group = removed.dropped_group.clone();
        let w = self.sm.apply_section();
        let mut ctx = self.write_ctx(&w);
        ctx.sm.visit_sorted(&sources, |page, src, _| {
            match (pdef.strategy, &dropped_group) {
                (Strategy::InPlace, _) => {
                    crate::attach::set_source_replica_values(&mut ctx, pdef, page, src, None)
                }
                (Strategy::Separate, Some(g)) => {
                    crate::attach::set_source_replica_ref(&mut ctx, g.id.0, page, src, None)
                        .map(drop)
                }
                // Group still shared by other paths: refs stay.
                (Strategy::Separate, None) => Ok(()),
            }
        })?;

        // Dismantle freed links: remove annotations from every object of
        // the link's target type (for collapsed links also the
        // intermediates, which may carry markers or parked stores).
        for link in &removed.freed_links {
            let mut ann_types = vec![link.dst_type];
            if link.collapsed {
                // node_types = [source, intermediate, terminal]
                ann_types.push(removed.path.node_types[1]);
            }
            let dst_sets = ann_types
                .iter()
                .flat_map(|t| self.catalog.sets_of_type(*t).map(|s| s.file));
            self.strip_annotations(&w, dst_sets, |a| {
                matches!(a,
                    Annotation::LinkRef { link: l, .. }
                    | Annotation::InlineLink { link: l, .. }
                    | Annotation::CollapsedVia { link: l }
                        if *l == link.id.0)
            })?;
        }

        // Tear down a dropped group: anchors off the terminals.
        if let Some(g) = &dropped_group {
            let term_sets = self.catalog.sets_of_type(g.terminal_type).map(|s| s.file);
            self.strip_annotations(
                &w,
                term_sets,
                |a| matches!(a, Annotation::ReplicaAnchor { group, .. } if *group == g.id.0),
            )?;
        }
        // The link files and the S' file (replica objects go with it) are
        // dropped once the catalog no longer names them: a crash before
        // the commit finds them still there.
        self.commit_ddl(w)?;
        let groups = dropped_group.iter().map(|g| g.file);
        for file in removed.freed_links.iter().map(|l| l.file).chain(groups) {
            self.sm.drop_file(file)?;
        }
        Ok(())
    }

    /// Convenience: inverse of a 1-hop reference path given as
    /// `"Set.reffield"` (e.g. `"Emp1.dept"`): which members of `Set`
    /// reference `target` through `reffield`? Requires a replication path
    /// (either strategy) whose inverted path covers that link.
    pub fn inverse_of(&self, dotted: &str, target: Oid) -> Result<Vec<Oid>> {
        let resolved = self.catalog.resolve_path_str(dotted)?;
        // The "terminal field" of a 1-segment path like Emp1.dept is the
        // ref field itself.
        let prefix = if resolved.hops.is_empty() {
            &resolved.terminal_fields
        } else {
            &resolved.hops
        };
        let link = self
            .catalog
            .links()
            .find(|l| l.set == resolved.set && l.prefix == *prefix)
            .map(|l| l.id)
            .ok_or_else(|| {
                DbError::Unsupported(format!(
                    "no inverted path covers {dotted:?}; replicate a path through it first"
                ))
            })?;
        self.inverse(link, target)
    }

    /// All live member OIDs of a set, in physical order.
    pub fn scan_set(&self, set_name: &str) -> Result<Vec<Oid>> {
        self.file_oids(self.catalog.set(self.catalog.set_id(set_name)?).file)
    }

    /// The OIDs of every live record of a heap file, in physical order:
    /// [`HeapFile::oids`], one page request per page.
    pub fn file_oids(&self, file: FileId) -> Result<Vec<Oid>> {
        Ok(HeapFile::open(file).oids(&self.sm)?)
    }

    /// Take the annotations `strip` names off every object of `files`,
    /// writing back only the objects that lost one.
    fn strip_annotations(
        &self,
        w: &ApplySection<'_>,
        files: impl IntoIterator<Item = FileId>,
        strip: impl Fn(&Annotation) -> bool,
    ) -> Result<()> {
        let (ctx, pins) = (self.ctx(), PagePins::none());
        for file in files {
            for oid in self.file_oids(file)? {
                let mut obj = read_object(ctx.sm, &pins, ctx.cat, oid)?;
                let before = obj.annotations.len();
                obj.annotations.retain(|a| !strip(a));
                if obj.annotations.len() != before {
                    write_object(w, &pins, ctx.cat, oid, &obj)?;
                }
            }
        }
        Ok(())
    }

    /// Number of members of a set.
    pub fn set_len(&self, set_name: &str) -> Result<u64> {
        let set = self.catalog.set(self.catalog.set_id(set_name)?).clone();
        Ok(HeapFile::open(set.file).count(&self.sm)?)
    }
}
