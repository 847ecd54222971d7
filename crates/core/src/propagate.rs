//! Executing a [`RipplePlan`] (§4.1.3, §5.2).
//!
//! `apply_plan` is the one executor of an update: detach the object's
//! own re-targeted paths, write its new values (and maintain base-field
//! indexes), re-attach, then run the propagation steps the plan derived
//! from the `(link-OID, link-ID)` pairs and anchors stored *in the object
//! itself* — exactly the paper's mechanism for "determining how and when
//! to propagate an update":
//!
//! 1. **Separate terminal refresh**: the object carries a replica anchor
//!    and a grouped field changed → rewrite the one shared replica object.
//! 2. **In-place terminal fan-out**: the object is the terminal of an
//!    in-place path and a replicated field changed → rewrite the sources'
//!    hidden values, in physical (sorted-OID) order.
//! 3. **Intermediate re-point**: a *reference* attribute that is hop
//!    `i+1` of some path changed (the paper's `D.org` example) → unlink
//!    the old suffix, link the new one, and re-materialise the replicated
//!    values (or re-point the replica references) of every source below.
//!
//! Chains, source lists and holders come from the plan; nothing here
//! discovers them.

use crate::attach::{
    attach_links_from, attach_path, detach_links_from, detach_path, set_source_replica_ref,
    set_source_replica_values, terminal_values, values_at,
};
use crate::collapsed;
use crate::error::{DbError, Result};
use crate::objects::{read_object, value_key, write_object};
use crate::replicas::{anchor_acquire, anchor_release, group_values, write_replica};
use crate::ripple::{Refresh, RipplePlan, Step, SyncPlan};
use crate::{EngineCtx, PendingEntry, WriteCtx};
use fieldrep_btree::BTreeIndex;
use fieldrep_catalog::{GroupId, IndexTarget, RepPathDef};
use fieldrep_model::{Annotation, Object, Value};
use fieldrep_obs::{io as obs_io, metrics, names as obs_names, Span};
use fieldrep_storage::Oid;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Test-only failpoint: when armed, the next in-place terminal
/// propagation fails *after* its source batch has been rewritten (so the
/// flight-recorder dump shows the failing batch's span and I/O delta).
/// Disarms itself on first use.
static FAIL_NEXT_INPLACE: AtomicBool = AtomicBool::new(false);

/// Arm [`FAIL_NEXT_INPLACE`]; used by the flight-recorder end-to-end
/// test to inject an engine error mid-ripple.
pub fn fail_next_inplace_propagation() {
    FAIL_NEXT_INPLACE.store(true, Ordering::SeqCst);
}

/// Process-wide propagation instruments (see the registry names below).
struct PropMetrics {
    /// `core.propagate.inplace`: in-place terminal propagations run.
    inplace: Arc<metrics::Counter>,
    /// `core.propagate.separate`: separate-replica refreshes run.
    separate: Arc<metrics::Counter>,
    /// `core.propagate.deferred`: propagations parked on the pending list.
    deferred: Arc<metrics::Counter>,
    /// `core.propagate.fanout`: source objects rewritten per in-place
    /// propagation (the paper's fan-out `f`), after page-level dedup.
    fanout: Arc<metrics::Histogram>,
    /// `core.propagate.pages_per_fanout`: distinct source pages touched
    /// per in-place propagation — the `Yao(f)` page count the cost model
    /// charges, as opposed to `f` round trips.
    pages_per_fanout: Arc<metrics::Histogram>,
}

fn prop_metrics() -> &'static PropMetrics {
    static METRICS: OnceLock<PropMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metrics::registry();
        let fanout_bounds = &[1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
        PropMetrics {
            inplace: r.counter(obs_names::CORE_PROPAGATE_INPLACE),
            separate: r.counter(obs_names::CORE_PROPAGATE_SEPARATE),
            deferred: r.counter(obs_names::CORE_PROPAGATE_DEFERRED),
            fanout: r.histogram(obs_names::CORE_PROPAGATE_FANOUT, fanout_bounds),
            pages_per_fanout: r
                .histogram(obs_names::CORE_PROPAGATE_PAGES_PER_FANOUT, fanout_bounds),
        }
    })
}

/// Execute `plan` — the whole of `update(oid, changes)`. The caller holds
/// the WAL apply section (and, on the transactional door, the plan's
/// OID locks).
pub(crate) fn apply_plan(ctx: &mut WriteCtx<'_>, plan: RipplePlan) -> Result<()> {
    if plan.changes.is_empty() {
        return Ok(());
    }
    let (cat, oid) = (ctx.cat, plan.oid);

    // Phase A: detach this object's own paths whose first hop changes.
    for r in &plan.own {
        detach_path(ctx, cat.path(r.path), oid, &r.old_chain)?;
    }

    // Phase B: apply the changes and write back. Detaching rewrites the
    // object's annotations; otherwise the plan's image is still current.
    let mut obj = if plan.own.is_empty() {
        plan.before
    } else {
        read_object(ctx.sm, &ctx.pins, cat, oid)?
    };
    for (i, _, new) in &plan.changes {
        obj.values[*i] = new.clone();
    }
    write_object(ctx.w, &ctx.pins, cat, oid, &obj)?;

    // Base-field index maintenance.
    for idx in cat.indexes_on(plan.set) {
        let IndexTarget::Field(f) = idx.target else {
            continue;
        };
        if let Some((_, old, new)) = plan.changes.iter().find(|c| c.0 == f) {
            let tree = BTreeIndex::open(idx.file);
            tree.delete(ctx.w, &value_key(old), oid)?;
            tree.insert(ctx.w, &value_key(new), oid)?;
        }
    }

    // Phase C: re-attach own paths through the new references.
    for r in &plan.own {
        attach_path(ctx, cat.path(r.path), oid, &r.new_chain)?;
    }

    // Phase D: propagate to objects that replicate *from* this object.
    propagate(ctx, oid, &plan.steps, &obj)
}

/// Execute `plan` — the whole of a sync: refresh each pending entry with
/// the writer its eager step uses, count it against its path as the
/// update ripple it was, and remove it. Returns the entries applied.
pub(crate) fn apply_sync(ctx: &mut WriteCtx<'_>, plan: SyncPlan) -> Result<usize> {
    for e in &plan.entries {
        let path = ctx.cat.path(e.path);
        let io_before = obs_io::snapshot();
        let fanout = match &e.refresh {
            Refresh::Sources { sources, terminal } => {
                refresh_sources(ctx, path, sources, *terminal)?;
                sources.len() as u64
            }
            Refresh::Replica { replica, values } => {
                if let Some((group, roid)) = replica {
                    write_replica(ctx.w, &ctx.pins, ctx.cat.group(*group), *roid, values)?;
                }
                1
            }
        };
        let pages = e.discovery_pages + (obs_io::snapshot() - io_before).page_touches();
        ctx.workload.record_update(&path.expr_text, fanout, pages);
        ctx.pending.remove(e.path, e.entry);
    }
    Ok(plan.entries.len())
}

/// Run a plan's propagation `steps` for the object at `oid`; `obj`
/// carries its post-update values.
///
/// Opens a `core.propagate` span and accumulates its page-I/O delta under
/// the `"core.propagate"` component
/// ([`io::component_take`](fieldrep_obs::io::component_take)), so the
/// query layer can attribute propagation I/O separately from the carrying
/// update.
fn propagate(ctx: &mut WriteCtx<'_>, oid: Oid, steps: &[Step], obj: &Object) -> Result<()> {
    let result = {
        let _span = Span::enter(obs_names::CORE_PROPAGATE);
        let io_before = obs_io::snapshot();
        let result = steps
            .iter()
            .try_for_each(|step| run_step(ctx, oid, obj, step));
        obs_io::component_add(obs_names::CORE_PROPAGATE, obs_io::snapshot() - io_before);
        result
    };
    // Engine errors mid-ripple dump the flight recorder: the span exits
    // above have already landed, so the dump's tail shows the failing
    // batch's propagation spans and their page-I/O deltas.
    if let Err(e) = &result {
        fieldrep_obs::recorder::record_error(obs_names::CORE_PROPAGATE, &e.to_string());
    }
    result
}

fn run_step(ctx: &mut WriteCtx<'_>, oid: Oid, obj: &Object, step: &Step) -> Result<()> {
    let cat = ctx.cat;
    match step {
        Step::SeparateRefresh {
            group,
            replica,
            deferred,
        } => {
            let group = cat.group(*group);
            if *deferred {
                prop_metrics().deferred.inc();
                for p in &group.paths {
                    ctx.pending.add(*p, PendingEntry::StaleReplica { obj: oid });
                }
                return Ok(());
            }
            let span = Span::enter(obs_names::CORE_PROPAGATE_SEPARATE);
            span.note("group", group.id.0);
            prop_metrics().separate.inc();
            let io_before = obs_io::snapshot();
            write_replica(ctx.w, &ctx.pins, group, *replica, &group_values(group, obj))?;
            // One shared replica rewritten; every path reading through
            // the group observed the ripple.
            let pages = (obs_io::snapshot() - io_before).page_touches();
            for p in &group.paths {
                ctx.workload
                    .record_update(&cat.path(*p).expr_text, 1, pages);
            }
            Ok(())
        }
        Step::TerminalFanout {
            path,
            sources,
            deferred,
            discovery_pages,
        } => {
            let path = cat.path(*path);
            if *deferred {
                prop_metrics().deferred.inc();
                park_sources(ctx, path, oid, path.links.len() - 1);
                return Ok(());
            }
            propagate_terminal_inplace(ctx, path, obj, sources, *discovery_pages)
        }
        Step::Repoint {
            path,
            level,
            sources,
            old_chain,
            new_chain,
            deferred,
        } => {
            let span = Span::enter(obs_names::CORE_PROPAGATE_INTERMEDIATE);
            span.note("level", *level);
            let path = cat.path(*path);
            // Unlink the old suffix, link the new one. Structure is always
            // maintained eagerly, even for deferred paths.
            detach_links_from(ctx, path, old_chain, level + 1)?;
            attach_links_from(ctx, path, new_chain, level + 1)?;
            if *deferred {
                park_sources(ctx, path, oid, *level);
                return Ok(());
            }
            let old_terminal = old_chain.last().copied().flatten();
            let new_terminal = new_chain.last().copied().flatten();
            match path.group {
                // In-place: re-materialise from the new terminal.
                None => refresh_sources(ctx, path, sources, new_terminal),
                Some(g) => repoint_replica_refs(ctx, g, sources, old_terminal, new_terminal),
            }
        }
        Step::CollapsedRetarget {
            path,
            old_holder,
            new_terminal,
            members,
            deferred,
        } => {
            let span = Span::enter(obs_names::CORE_PROPAGATE_INTERMEDIATE);
            span.note("level", 0);
            let path = cat.path(*path);
            move_collapsed_entries(ctx, path, oid, *old_holder, *new_terminal, members)?;
            match new_terminal {
                Some(t) if *deferred => {
                    park_sources(ctx, path, *t, 0);
                    Ok(())
                }
                // A broken chain clears the values eagerly — a pending
                // entry cannot express clearing.
                _ => refresh_sources(ctx, path, members, *new_terminal),
            }
        }
    }
}

/// Defer (§8): the in-place sources below `obj` through `path`'s link at
/// `link_level` re-materialise when the path is next synced.
fn park_sources(ctx: &EngineCtx<'_>, path: &RepPathDef, obj: Oid, link_level: usize) {
    let entry = PendingEntry::StaleSources { obj, link_level };
    ctx.pending.add(path.id, entry);
}

/// In-place propagation from a terminal object down to its `sources`
/// ("the inverted path … is traversed to propagate that update", §4.1).
fn propagate_terminal_inplace(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    terminal_obj: &Object,
    sources: &[Oid],
    discovery_pages: u64,
) -> Result<()> {
    let span = Span::enter(obs_names::CORE_PROPAGATE_INPLACE);
    let io_before = obs_io::snapshot();
    span.note("fanout", sources.len());
    prop_metrics().inplace.inc();
    prop_metrics().fanout.record(sources.len() as u64);
    let values = Value::encode_list(&terminal_values(path, terminal_obj));
    // The sorted OID array visits each source page once, all co-located
    // sources rewritten under one pin (§4.1.3).
    let pages = ctx.sm.visit_sorted(sources, |page, s, _| {
        set_source_replica_values(ctx, path, page, s, Some(&values))
    })?;
    if FAIL_NEXT_INPLACE.swap(false, Ordering::SeqCst) {
        return Err(DbError::Unsupported(
            "failpoint: injected propagation failure".into(),
        ));
    }
    span.note("pages", pages);
    prop_metrics().pages_per_fanout.record(pages as u64);
    ctx.workload.record_update(
        &path.expr_text,
        sources.len() as u64,
        discovery_pages + (obs_io::snapshot() - io_before).page_touches(),
    );
    Ok(())
}

/// Set the hidden values of in-place `path` on every one of `sources`
/// from `terminal` (clear them when the chain is broken), in physical
/// page order.
fn refresh_sources(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    sources: &[Oid],
    terminal: Option<Oid>,
) -> Result<()> {
    let values = values_at(ctx, path, terminal)?;
    ctx.sm.visit_sorted(sources, |page, s, _| {
        set_source_replica_values(ctx, path, page, s, values.as_deref())
    })?;
    Ok(())
}

/// Separate re-point (§5.2's `D2.org` example): move `sources`' replica
/// references from the old terminal's `S'` object to the new terminal's.
fn repoint_replica_refs(
    ctx: &mut WriteCtx<'_>,
    group: GroupId,
    sources: &[Oid],
    old_terminal: Option<Oid>,
    new_terminal: Option<Oid>,
) -> Result<()> {
    let group = ctx.cat.group(group);
    // Remove the sources' replica references (counting how many actually
    // pointed at the old replica).
    let mut released = 0u32;
    ctx.sm.visit_sorted(sources, |page, s, _| {
        released += u32::from(set_source_replica_ref(ctx, group.id.0, page, s, None)?);
        Ok::<_, DbError>(())
    })?;
    if released > 0 {
        if let Some(t) = old_terminal {
            anchor_release(ctx.w, &ctx.pins, ctx.cat, group, t, released)?;
        }
    }
    // Point them at the new terminal's replica.
    if let Some(t) = new_terminal {
        let roid = anchor_acquire(ctx.w, &ctx.pins, ctx.cat, group, t, sources.len() as u32)?;
        ctx.sm.visit_sorted(sources, |page, s, _| {
            set_source_replica_ref(ctx, group.id.0, page, s, Some(roid)).map(drop)
        })?;
    }
    Ok(())
}

/// §4.3.3: move the entries tagged `via` (`members`) from the old
/// holder's collapsed store to the new one ("the OIDs of E1, E2, and E3
/// will have to be moved from O's link object to X's link object"). A
/// broken new reference parks them on the intermediate itself so the
/// routing survives.
fn move_collapsed_entries(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    via: Oid,
    old_holder: Oid,
    new_terminal: Option<Oid>,
    members: &[Oid],
) -> Result<()> {
    let link = ctx.cat.link(path.links[0]);
    collapsed::remove_tagged(ctx, link, old_holder, via)?;
    let entries: Vec<(Oid, Oid)> = members.iter().map(|&s| (s, via)).collect();
    collapsed::tag(ctx, link, new_terminal.unwrap_or(via), &entries)
}

/// Guard for deletes: true if other objects still reach this one through
/// a replication path (the paper assumes such objects are never deleted,
/// §4.1.1; we enforce it).
pub fn is_referenced(obj: &Object) -> bool {
    obj.annotations.iter().any(|a| match a {
        Annotation::LinkRef { .. } => true,
        Annotation::InlineLink { oids, .. } => !oids.is_empty(),
        Annotation::ReplicaAnchor { refcount, .. } => *refcount > 0,
        Annotation::CollapsedVia { .. } => true,
        _ => false,
    })
}
