//! `RipplePlan`: the one description of an update's fan-out (§4.1.3, §5.2).
//!
//! The paper decides "how and when to propagate an update" from the
//! `(link-OID, link-ID)` pairs and anchors stored *in the updated object*.
//! [`RipplePlan::build`] is that dispatch, run once, read-only, over the
//! object's pre-update state. Its result is data with two consumers:
//! [`RipplePlan::oids`] is the set
//! [`TxnManager::lock_sorted`](crate::txn::TxnManager::lock_sorted) locks,
//! and `propagate::apply_plan` executes the steps, taking chains and
//! source lists from the plan instead of re-walking them. Nothing else
//! discovers a fan-out. [`ChainPlan`] is the same pass for an `insert` or
//! a `delete`: the chains the object joins or leaves.
//!
//! # The plan's pins
//!
//! A plan is also the operation's page set. Every page its build reads
//! is asked of one [`PagePins`], and the plan hands that set to the
//! apply (`Database::write_locked` moves it into the
//! [`WriteCtx`](crate::WriteCtx)), so a page the plan read is not
//! requested again: an update requests each page it touches once. The
//! set keeps at most `min(pool / 8, 16)` pins (at least one); a request
//! past that is made and not kept. It drops when the apply returns,
//! before the commit's fsync, and a stale plan drops with it. A pin is
//! not a latch and carries no version of its own: every access through a
//! held page still latches the frame and resolves the slot again, and
//! what the plan read counts only while the versions below still hold.
//!
//! The steps run *after* the object's own re-targets, so the plan must
//! describe that state, not the annotations it read: on a reference cycle
//! the updated object can be its own source, intermediate or terminal, and
//! the builder corrects for it where marked below (DESIGN.md §10).
//!
//! # Planning without locks
//!
//! Everything a plan reads is guarded by an OID whose seqlock version the
//! plan recorded *first* — as the OID joined the plan, before any state it
//! guards was read: an object's bytes by its own OID, the link stores
//! below an object by that object (every writer that changes a membership
//! holds the whole forward chain through it), a replica anchor by its
//! terminal. [`Database::update`] applies a plan as built only if no
//! recorded version moved before the locks were held (DESIGN.md §10).

use crate::attach::{collect_sources, walk_from};
use crate::collapsed;
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::objects::{check_ref_type, read_object, ref_target};
use crate::replicas::{find_anchor, find_replica_ref};
use crate::txn::{Planned, TxnManager};
use crate::EngineCtx;
use fieldrep_catalog::{GroupId, LinkId, PathId, Propagation, RepPathDef, SetId, Strategy};
use fieldrep_model::{Annotation, FieldType, ModelError, Object, Value};
use fieldrep_obs::{io as obs_io, names as obs_names};
use fieldrep_storage::{Oid, PagePins};

/// One resolved field change: `(field index, old value, final new value)`.
pub type FieldChange = (usize, Value, Value);

/// A forward chain of a path, one slot per node: `None` from the first
/// NULL reference onward, and below the start of a suffix chain.
pub type Chain = Vec<Option<Oid>>;

/// The updated object is a *source* of `path` and the path's first hop
/// changed: detach along `old_chain`, attach along `new_chain` (§4.1.1,
/// "the actions under delete E … then insert E"). Always eager.
#[derive(Clone, Debug)]
pub struct OwnRetarget {
    /// The re-targeted path.
    pub path: PathId,
    /// Chain through the old reference.
    pub old_chain: Chain,
    /// Chain through the new reference.
    pub new_chain: Chain,
    /// Separate paths: the `S'` replica referenced now (may be deleted).
    pub released: Option<Oid>,
}

/// One propagation *from* the updated object to the objects that
/// replicate it. Every step carries `deferred`: a deferred step parks a
/// pending entry instead of writing replicated values (§8); structure is
/// always maintained eagerly.
#[derive(Clone, Debug)]
pub enum Step {
    /// The updated object anchors `group`'s shared replica and a grouped
    /// field changed: rewrite the one replica object (§5.2).
    SeparateRefresh {
        /// The replica group.
        group: GroupId,
        /// The shared replica object.
        replica: Oid,
        /// Every path reading through the group defers.
        deferred: bool,
    },
    /// The updated object is the terminal of in-place `path` and a
    /// replicated field changed: rewrite the sources' hidden values.
    TerminalFanout {
        /// The in-place path.
        path: PathId,
        /// Sources, sorted and deduplicated (none collected when deferred).
        sources: Vec<Oid>,
        /// Park the refresh instead of writing.
        deferred: bool,
        /// Pages touched discovering `sources`, for the workload statistics.
        discovery_pages: u64,
    },
    /// The reference attribute that is hop `level + 1` of `path` changed
    /// on an intermediate object: unlink the old suffix, link the new one,
    /// re-materialise (or re-point the replica references of) `sources`.
    Repoint {
        /// The affected path.
        path: PathId,
        /// Level of the link hanging off the updated object.
        level: usize,
        /// Sources that reach their terminal through the updated object.
        sources: Vec<Oid>,
        /// Suffix chain through the old reference.
        old_chain: Chain,
        /// Suffix chain through the new reference.
        new_chain: Chain,
        /// In-place values deferred (links are still re-pointed).
        deferred: bool,
    },
    /// §4.3.3: the intermediate of collapsed `path` re-targets — move its
    /// tagged entries from the old holder's store to the new one.
    CollapsedRetarget {
        /// The collapsed path.
        path: PathId,
        /// Where the entries live now: the old terminal, or the intermediate.
        old_holder: Oid,
        /// The new terminal (`None`: the entries park, the values clear).
        new_terminal: Option<Oid>,
        /// The sources tagged with this intermediate, sorted.
        members: Vec<Oid>,
        /// Value refresh deferred (entries still move).
        deferred: bool,
    },
}

/// The replication consequence of one `update(oid, changes)`.
#[derive(Debug)]
pub struct RipplePlan {
    /// The updated object.
    pub(crate) oid: Oid,
    /// Its set.
    pub(crate) set: SetId,
    /// Its decoded pre-update state.
    pub(crate) before: Object,
    /// Effective changes, one per field, last assignment wins.
    pub(crate) changes: Vec<FieldChange>,
    /// Re-targets of the object's own paths.
    pub(crate) own: Vec<OwnRetarget>,
    /// Propagation steps, in execution order.
    pub(crate) steps: Vec<Step>,
    /// Every OID a step may rewrite or a snapshot reader validates, sorted
    /// and deduplicated.
    oids: Vec<Oid>,
    /// `seqs[i]` is the version recorded as `oids[i]` joined.
    pub(crate) seqs: Vec<u64>,
    /// The pages the plan read, pinned for the apply.
    pins: PagePins,
}

impl RipplePlan {
    /// The write-lock closure, ready for
    /// [`TxnManager::lock_sorted`](crate::txn::TxnManager::lock_sorted).
    pub fn oids(&self) -> &[Oid] {
        &self.oids
    }

    /// Plan `db.update(oid, changes)`: resolve and type-check the changes
    /// against the stored object, then derive every step from the paths of
    /// its set and the annotations it carries, recording each OID's
    /// version in `db.txn()` as it joins. Reads only.
    pub fn build(db: &Database, oid: Oid, changes: &[(&str, Value)]) -> Result<RipplePlan> {
        Self::build_with(db, oid, |_| Ok::<_, DbError>(changes.to_vec()))
    }

    /// [`RipplePlan::build`] of the changes `eval` computes from the
    /// object as the plan decoded it. An error of `eval` is returned as
    /// it is.
    pub(crate) fn build_with<'c, E: From<DbError>>(
        db: &Database,
        oid: Oid,
        eval: impl FnOnce(&Object) -> std::result::Result<Vec<(&'c str, Value)>, E>,
    ) -> std::result::Result<RipplePlan, E> {
        let set = db.set_of(oid)?;
        let mut b = Builder::new(db, oid);
        let before = b.read(oid)?;
        let changes = eval(&before)?;
        Ok(Self::derive(b, set, before, changes)?)
    }

    /// The rest of a build, once the changes are known.
    fn derive(
        mut b: Builder<'_>,
        set: SetId,
        before: Object,
        changes: Vec<(&str, Value)>,
    ) -> Result<RipplePlan> {
        let (cat, oid) = (b.ctx.cat, b.oid);
        let def = cat.type_def(cat.set(set).elem_type);

        let mut resolved: Vec<FieldChange> = Vec::new();
        for (name, new) in changes {
            let idx = def
                .field_index(name)
                .ok_or_else(|| DbError::Model(ModelError::NoSuchField(name.into())))?;
            let ftype = &def.fields[idx].ftype;
            if !new.matches(ftype) {
                return Err(DbError::Model(ModelError::TypeMismatch {
                    expected: format!("{ftype:?}"),
                    got: new.kind_name().into(),
                }));
            }
            if let FieldType::Ref(tname) = ftype {
                check_ref_type(b.ctx.sm, &b.pins, cat, &new, cat.type_id(tname)?)?;
            }
            match resolved.iter_mut().find(|c| c.0 == idx) {
                Some(c) => c.2 = new,
                None => resolved.push((idx, before.values[idx].clone(), new)),
            }
        }
        resolved.retain(|(_, old, new)| old != new);

        // On a reference cycle a chain can come back to the updated object:
        // an old chain then continues through the reference it holds now, a
        // new chain through the one this update gives it.
        let old_hop = |hop: usize| ref_target(&before.values[hop]);
        let new_hop = |hop: usize| {
            let changed = resolved.iter().find(|c| c.0 == hop);
            ref_target(changed.map_or(&before.values[hop], |c| &c.2))
        };

        // Own paths whose first hop changes: both chains, old and new.
        for p in cat.paths_from(set) {
            if old_hop(p.hops[0]) == new_hop(p.hops[0]) {
                continue;
            }
            let old_chain = b.walk(p, 0, old_hop(p.hops[0]), &old_hop)?;
            let new_chain = b.walk(p, 0, new_hop(p.hops[0]), &new_hop)?;
            let released = p.group.and_then(|g| find_replica_ref(&before, g.0));
            let released = released.map(|(_, roid)| b.note(roid));
            b.note_anchor(p.group, &new_chain)?;
            b.own.push(OwnRetarget {
                path: p.id,
                released,
                old_chain,
                new_chain,
            });
        }

        // Everything below is propagation *from* this object; the I/O of
        // discovering it belongs to the `core.propagate` component.
        let io_before = obs_io::snapshot();
        let mut steps = Vec::new();
        let mut link_ids: Vec<u8> = Vec::new();
        for a in &before.annotations {
            match a {
                // This object as a separate-group terminal.
                Annotation::ReplicaAnchor {
                    group,
                    oid: roid,
                    refcount,
                } => {
                    let g = cat.group(GroupId(*group));
                    // The one reference left may be this object's own, and
                    // an own re-target releases it: the replica is deleted
                    // (and its slot free for the next one), not refreshed.
                    let dies = *refcount == 1 && b.own.iter().any(|r| r.released == Some(*roid));
                    if !dies && resolved.iter().any(|(f, _, _)| g.fields.contains(f)) {
                        steps.push(Step::SeparateRefresh {
                            group: g.id,
                            replica: b.note(*roid),
                            // A group defers only if every path reading
                            // through it does.
                            deferred: g
                                .paths
                                .iter()
                                .all(|p| cat.path(*p).propagation == Propagation::Deferred),
                        });
                    }
                }
                Annotation::LinkRef { link, .. }
                | Annotation::InlineLink { link, .. }
                | Annotation::CollapsedVia { link } => link_ids.push(*link),
                _ => {}
            }
        }
        // A parked collapsed store and its via marker name one link twice.
        link_ids.sort_unstable();
        link_ids.dedup();

        // Link-borne steps: terminal fan-outs run before re-points. A step
        // exists only while it has sources left to propagate to.
        let mut repoints = Vec::new();
        for (f, old, new) in &resolved {
            for &l in &link_ids {
                let link = LinkId(l);
                for p in cat.inplace_paths_terminating_at(link, *f) {
                    if steps
                        .iter()
                        .any(|s| matches!(s, Step::TerminalFanout { path, .. } if *path == p.id))
                    {
                        continue; // another replicated field of the same path
                    }
                    let deferred = p.propagation == Propagation::Deferred;
                    let (sources, discovery_pages) = if deferred {
                        (Vec::new(), 0)
                    } else {
                        let io0 = obs_io::snapshot();
                        let sources = b.sources(p, p.links.len() - 1, &before)?;
                        (sources, (obs_io::snapshot() - io0).page_touches())
                    };
                    if deferred || !sources.is_empty() {
                        steps.push(Step::TerminalFanout {
                            path: p.id,
                            sources,
                            deferred,
                            discovery_pages,
                        });
                    }
                }
                let (old_ref, new_ref) = (ref_target(old), ref_target(new));
                if old_ref == new_ref {
                    continue;
                }
                for p in cat.paths_with_intermediate(link, *f) {
                    let deferred = p.propagation == Propagation::Deferred;
                    if p.collapsed {
                        let old_holder = old_ref.unwrap_or(oid);
                        let hobj = b.read(old_holder)?;
                        let tagged = collapsed::members(b.ctx.sm, &b.pins, &hobj, cat.link(link))?
                            .into_iter()
                            .filter_map(|(src, via)| (via == oid).then_some(src))
                            .collect();
                        let members = b.join_sources(p, tagged);
                        if !members.is_empty() {
                            b.note(new_ref.unwrap_or(oid));
                            repoints.push(Step::CollapsedRetarget {
                                path: p.id,
                                old_holder,
                                new_terminal: new_ref,
                                members,
                                deferred,
                            });
                        }
                        continue;
                    }
                    let Some(level) = p.links.iter().position(|x| *x == link) else {
                        continue;
                    };
                    let sources = b.sources(p, level, &before)?;
                    if sources.is_empty() {
                        continue;
                    }
                    let old_chain = b.walk(p, level + 1, old_ref, &old_hop)?;
                    let new_chain = b.walk(p, level + 1, new_ref, &new_hop)?;
                    b.note_anchor(p.group, &old_chain)?;
                    b.note_anchor(p.group, &new_chain)?;
                    repoints.push(Step::Repoint {
                        path: p.id,
                        level,
                        sources,
                        old_chain,
                        new_chain,
                        deferred: deferred && p.strategy == Strategy::InPlace,
                    });
                }
            }
        }
        steps.append(&mut repoints);
        obs_io::component_add(obs_names::CORE_PROPAGATE, obs_io::snapshot() - io_before);

        let (oids, seqs) = lock_set(b.seen);
        Ok(RipplePlan {
            oid,
            set,
            before,
            changes: resolved,
            own: b.own,
            steps,
            oids,
            seqs,
            pins: b.pins,
        })
    }
}

impl Planned for RipplePlan {
    fn oids(&self) -> &[Oid] {
        &self.oids
    }

    fn seqs(&self) -> &[u64] {
        &self.seqs
    }

    fn take_pins(&mut self) -> PagePins {
        std::mem::replace(&mut self.pins, PagePins::none())
    }
}

/// What an `insert` attaches or a `delete` detaches: the object and its
/// forward chain on every path of its set, each node noted before it is
/// read. On a separate path the replica anchored at the terminal is
/// noted too: attaching or detaching rewrites its reference count and
/// may create or delete it.
pub(crate) struct ChainPlan {
    /// The object: as given (insert) or as stored (delete).
    pub(crate) obj: Object,
    /// One chain per path of the object's set, in `paths_from` order.
    pub(crate) chains: Vec<Chain>,
    oids: Vec<Oid>,
    seqs: Vec<u64>,
    pins: PagePins,
}

impl ChainPlan {
    /// Plan attaching `obj`, not stored yet, to the paths of `set`: its
    /// references are type-checked first. Its chains start at
    /// [`Oid::NULL`]; the insert puts the new OID there.
    pub(crate) fn attach(db: &Database, set: SetId, obj: Object) -> Result<ChainPlan> {
        let b = Builder::new(db, Oid::NULL);
        let cat = b.ctx.cat;
        let def = cat.type_def(obj.type_id);
        for (v, f) in obj.values.iter().zip(&def.fields) {
            if let FieldType::Ref(tname) = &f.ftype {
                check_ref_type(b.ctx.sm, &b.pins, cat, v, cat.type_id(tname)?)?;
            }
        }
        Self::walk(b, set, obj)
    }

    /// Plan detaching the stored object at `oid`, a member of `set`; the
    /// object itself joins the plan first.
    pub(crate) fn detach(db: &Database, set: SetId, oid: Oid) -> Result<ChainPlan> {
        let mut b = Builder::new(db, oid);
        let obj = b.read(oid)?;
        Self::walk(b, set, obj)
    }

    fn walk(mut b: Builder<'_>, set: SetId, obj: Object) -> Result<ChainPlan> {
        let cat = b.ctx.cat;
        let own_hop = |hop: usize| ref_target(&obj.values[hop]);
        let mut chains = Vec::new();
        for p in cat.paths_from(set) {
            let chain = b.walk(p, 0, own_hop(p.hops[0]), &own_hop)?;
            b.note_anchor(p.group, &chain)?;
            chains.push(chain);
        }
        let (oids, seqs) = lock_set(b.seen);
        Ok(ChainPlan {
            obj,
            chains,
            oids,
            seqs,
            pins: b.pins,
        })
    }
}

impl Planned for ChainPlan {
    fn oids(&self) -> &[Oid] {
        &self.oids
    }

    fn seqs(&self) -> &[u64] {
        &self.seqs
    }

    fn take_pins(&mut self) -> PagePins {
        std::mem::replace(&mut self.pins, PagePins::none())
    }
}

/// The noted OIDs, sorted, and aligned with them the version each had as
/// it *first* joined: the sort is stable, the dedup keeps the first.
fn lock_set(mut seen: Vec<(Oid, u64)>) -> (Vec<Oid>, Vec<u64>) {
    seen.sort_by_key(|&(oid, _)| oid);
    seen.dedup_by_key(|&mut (oid, _)| oid);
    seen.into_iter().unzip()
}

/// The read-only pass: every OID enters the plan through [`Builder::note`],
/// which is what keeps the lock set and the recorded versions complete,
/// and every page it reads is asked of `pins`, which the plan hands to
/// the apply.
struct Builder<'a> {
    ctx: EngineCtx<'a>,
    /// Whose versions to record.
    txn: &'a TxnManager,
    /// The object planned for: updated, deleted, or (as [`Oid::NULL`])
    /// about to be inserted.
    oid: Oid,
    /// Its own paths whose first hop this update re-targets.
    own: Vec<OwnRetarget>,
    seen: Vec<(Oid, u64)>,
    pins: PagePins,
}

impl<'a> Builder<'a> {
    fn new(db: &'a Database, oid: Oid) -> Builder<'a> {
        Builder {
            ctx: db.ctx(),
            txn: db.txn(),
            oid,
            own: Vec::new(),
            seen: Vec::new(),
            pins: PagePins::new(db.sm().pool()),
        }
    }

    /// `oid` joins the plan: record its version now, before anything it
    /// guards is read.
    fn note(&mut self, oid: Oid) -> Oid {
        self.seen.push((oid, self.txn.seq_of(oid)));
        oid
    }

    fn read(&mut self, oid: Oid) -> Result<Object> {
        self.note(oid);
        read_object(self.ctx.sm, &self.pins, self.ctx.cat, oid)
    }

    /// The chain of `path` from the updated object, as its node `at`,
    /// through `next`, every node noted before it is read. Where the chain
    /// comes back to the updated object it continues through `own_hop`.
    fn walk(
        &mut self,
        path: &RepPathDef,
        at: usize,
        next: Option<Oid>,
        own_hop: &dyn Fn(usize) -> Option<Oid>,
    ) -> Result<Chain> {
        let me = self.oid;
        let chain = walk_from(path, at, me, next, &mut |o, hop| {
            if o == me {
                return Ok(own_hop(hop));
            }
            Ok(ref_target(&self.read(o)?.values[hop]))
        })?;
        // The walk does not read the terminal; what reads it next does so
        // after this.
        if let Some(t) = chain.last().copied().flatten() {
            self.note(t);
        }
        Ok(chain)
    }

    /// The sources that reach `obj` through `path`'s link at `level`,
    /// sorted and deduplicated.
    fn sources(&mut self, path: &RepPathDef, level: usize, obj: &Object) -> Result<Vec<Oid>> {
        let mut sources = collect_sources(&self.ctx, &self.pins, path, level, obj)?;
        sources.dedup();
        Ok(self.join_sources(path, sources))
    }

    /// Sorted `sources` of a link-borne step of `path` join the plan. On a
    /// reference cycle the updated object can be its own source; when this
    /// update also re-targets its own chain of `path`, that re-target —
    /// not the step — moves and re-materialises it.
    fn join_sources(&mut self, path: &RepPathDef, mut sources: Vec<Oid>) -> Vec<Oid> {
        if self.own.iter().any(|r| r.path == path.id) {
            sources.retain(|s| *s != self.oid);
        }
        for &s in &sources {
            self.note(s);
        }
        sources
    }

    /// The `S'` replica of a separate path's `group` anchored at the
    /// terminal of `chain`, if any, joins the plan: a re-target rewrites
    /// its reference count, and may delete it.
    fn note_anchor(&mut self, group: Option<GroupId>, chain: &Chain) -> Result<()> {
        if let (Some(g), Some(&Some(t))) = (group, chain.last()) {
            if let Some((_, roid, _)) = find_anchor(&self.read(t)?, g.0) {
                self.note(roid);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DbConfig;

    #[test]
    fn an_oid_noted_twice_keeps_the_version_it_first_joined_at() {
        let db = Database::in_memory(DbConfig::default());
        let txn = db.txn();
        let f = fieldrep_storage::FileId(1);
        let (x, y) = (Oid::new(f, 0, 1), Oid::new(f, 0, 0));
        let mut b = Builder::new(&db, x);
        b.note(x);
        drop(txn.lock_sorted(&[x]).unwrap()); // a commit to `x`: version 0 -> 2
        b.note(y);
        b.note(x);
        let (oids, seqs) = lock_set(b.seen);
        assert_eq!(oids, [y, x], "sorted, each once");
        assert_eq!(seqs, [0, 0], "x at the version recorded first, not 2");
        let guard = txn.lock_sorted(&oids).unwrap();
        assert!(!guard.acquired_at(&seqs), "x moved after it joined");
        assert!(guard.acquired_at(&[0, 2]));
    }
}
