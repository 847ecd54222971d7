//! Attaching and detaching objects to/from replication paths — the
//! maintenance operations of §4.1.1/§4.1.2 (in-place) and §5.2 (separate).
//!
//! * `insert E` → [`attach_path`] for every replication path of E's set:
//!   walk the forward chain, ensure link memberships at every maintained
//!   level, then materialise the replicated values (hidden fields for
//!   in-place; replica-object reference + refcount for separate).
//! * `delete E` → [`detach_path`]: remove E from the level-0 link object;
//!   if that link object empties, the intermediate object leaves the path
//!   and is removed from the next level's link object, and so on — the
//!   §4.1.2 ripple. Separate replication additionally releases the
//!   replica-object refcount.
//! * `update E.ref` → detach (with the old reference) then attach (with
//!   the new one), exactly the paper's "the actions under delete E are
//!   executed … and then the actions under insert E" (§4.1.1).
//!
//! Source-side state has one writer each: `set_source_replica_values`
//! for a hidden value, `set_source_replica_ref` for a replica reference.
//! Both edit the stored bytes through a pin on the source's page
//! ([`fieldrep_storage::HeapFile::edit_pinned`] over
//! [`fieldrep_model::ObjectView`]'s edits) instead of decoding, changing
//! and re-encoding the object: a fan-out visits each source page once
//! ([`fieldrep_storage::StorageManager::visit_sorted`], the one batched
//! walk) and changes on it what the update changed. Outside a batch the
//! page comes from the operation's pins ([`WriteCtx::page_of`]).

use crate::collapsed;
use crate::error::{DbError, Result};
use crate::links::{link_add, link_members, link_remove};
use crate::objects::{read_object, value_key, view_pinned};
use crate::replicas::{anchor_acquire, anchor_release, find_replica_ref};
use crate::ripple::Chain;
use crate::{EngineCtx, WriteCtx};
use fieldrep_btree::BTreeIndex;
use fieldrep_catalog::{CatalogError, RepPathDef, Strategy};
use fieldrep_model::{Object, ObjectView, TypeId, Value};
use fieldrep_storage::{HeapFile, Oid, PageHandle, PagePins};
use std::collections::hash_map::{Entry, HashMap};

/// The chain of `path` from node `at` onward: `node` is chain node `at`
/// and `next` the target of its hop (given, not read — the caller may be
/// asking about a reference the object does not hold yet). Slots below
/// `at` stay `None`; the link helpers never look there for `from >= at`.
/// `hop_of(oid, field)` reads a later node's reference; the terminal has
/// no hop and is not read.
pub(crate) fn walk_from(
    path: &RepPathDef,
    at: usize,
    node: Oid,
    next: Option<Oid>,
    hop_of: &mut dyn FnMut(Oid, usize) -> Result<Option<Oid>>,
) -> Result<Chain> {
    let mut chain = vec![None; path.hops.len() + 1];
    chain[at] = Some(node);
    let mut cur = next;
    for (i, slot) in chain.iter_mut().enumerate().skip(at + 1) {
        let Some(oid) = cur else { break };
        *slot = Some(oid);
        if let Some(&hop) = path.hops.get(i) {
            cur = hop_of(oid, hop)?;
        }
    }
    Ok(chain)
}

/// Make the hidden replicated values of `path` on `source` the encoded
/// list `list` (`None` clears them), maintaining any index built on the
/// path's replicated values (§3.3.4); `page` is `source`'s page, from
/// the caller's batch or [`WriteCtx::page_of`]. The one writer of hidden
/// values: the bytes are edited where they lie
/// ([`ObjectView::edit_replica_values`]), and a source that already holds
/// `list` is neither dirtied nor logged.
pub(crate) fn set_source_replica_values(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    page: &PageHandle,
    source: Oid,
    list: Option<&[u8]>,
) -> Result<()> {
    let index = ctx.cat.index_on_path(path.id);
    let mut old_first = None;
    let hf = HeapFile::open(source.file);
    let changed = hf.edit_pinned(ctx.w, &ctx.pins, page, source, |tag, bytes| {
        let view = ObjectView::new(ctx.cat.type_def(TypeId(tag)), bytes);
        if index.is_some() {
            old_first = view
                .replica_values(path.id.0)?
                .and_then(|v| v.into_iter().next());
        }
        Ok::<_, DbError>(view.edit_replica_values(path.id.0, list)?)
    })?;

    // Path-index maintenance.
    if let (true, Some(idx)) = (changed, index) {
        let tree = BTreeIndex::open(idx.file);
        if let Some(old) = old_first {
            tree.delete(ctx.w, &value_key(&old), source)?;
        }
        let new = list.map(Value::decode_list).transpose()?;
        if let Some(new) = new.as_ref().and_then(|v| v.first()) {
            tree.insert(ctx.w, &value_key(new), source)?;
        }
    }
    Ok(())
}

/// Append (`Some`) or remove (`None`) `source`'s reference to the shared
/// replica object of path group `group`, editing the stored bytes
/// ([`ObjectView::edit_replica_ref`]) under `page`, `source`'s page.
/// Returns whether anything changed.
pub(crate) fn set_source_replica_ref(
    ctx: &mut WriteCtx<'_>,
    group: u16,
    page: &PageHandle,
    source: Oid,
    replica: Option<Oid>,
) -> Result<bool> {
    let hf = HeapFile::open(source.file);
    hf.edit_pinned(ctx.w, &ctx.pins, page, source, |tag, bytes| {
        let view = ObjectView::new(ctx.cat.type_def(TypeId(tag)), bytes);
        Ok::<_, DbError>(view.edit_replica_ref(group, replica)?)
    })
}

/// Set the hidden values of `path` on every source of `chains`, in
/// order, as an attach of each would: each terminal is read and its
/// values encoded once, then lent to all of its sources.
pub(crate) fn set_terminal_values(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    chains: &[(Oid, Chain)],
) -> Result<()> {
    let mut encoded: HashMap<Oid, Vec<u8>> = HashMap::new();
    for (source, chain) in chains {
        let list = match chain.last().copied().flatten() {
            Some(t) => Some(match encoded.entry(t) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let t = read_object(ctx.sm, &ctx.pins, ctx.cat, t)?;
                    e.insert(Value::encode_list(&terminal_values(path, &t)))
                }
            }),
            None => None,
        };
        let page = ctx.page_of(*source)?;
        set_source_replica_values(ctx, path, &page, *source, list.map(|l| &l[..]))?;
    }
    Ok(())
}

/// Read the terminal values of `path` from a loaded terminal object.
pub fn terminal_values(path: &RepPathDef, terminal_obj: &Object) -> Vec<Value> {
    path.terminal_fields
        .iter()
        .map(|&i| terminal_obj.values[i].clone())
        .collect()
}

/// The values `path` replicates, read from `terminal` and encoded as the
/// sources store them — `None` when the chain is broken (the sources'
/// hidden values clear). Built once per step, lent to every source.
pub(crate) fn values_at(
    ctx: &WriteCtx<'_>,
    path: &RepPathDef,
    terminal: Option<Oid>,
) -> Result<Option<Vec<u8>>> {
    terminal
        .map(|t| {
            let t = read_object(ctx.sm, &ctx.pins, ctx.cat, t)?;
            Ok(Value::encode_list(&terminal_values(path, &t)))
        })
        .transpose()
}

/// Attach `source` to `path` along its forward `chain`: ensure link
/// memberships and materialise the replicated values. Idempotent.
pub fn attach_path(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    source: Oid,
    chain: &[Option<Oid>],
) -> Result<()> {
    if path.collapsed {
        return attach_collapsed(ctx, path, source, chain);
    }
    attach_links_from(ctx, path, chain, 0)?;
    let page = ctx.page_of(source)?;
    attach_terminal(ctx, path, &page, source, chain)
}

/// Where a collapsed entry for a chain lives: the terminal object when
/// the chain is complete, otherwise *parked* on the intermediate (so the
/// routing survives a temporarily broken suffix).
fn collapsed_holder(chain: &[Option<Oid>]) -> Option<(Oid, Oid)> {
    let d = chain[1]?;
    Some((chain[2].unwrap_or(d), d))
}

/// §4.3.3 attach: add a tagged `(source, via)` entry to the holder's
/// collapsed store, mark the intermediate, materialise the value.
fn attach_collapsed(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    source: Oid,
    chain: &[Option<Oid>],
) -> Result<()> {
    let link = ctx.cat.link(path.links[0]);
    if let Some((holder, via)) = collapsed_holder(chain) {
        collapsed::tag(ctx, link, holder, &[(source, via)])?;
        collapsed::mark_via(ctx, link.id.0, via, true)?;
    }
    // Terminal values: only complete chains have them.
    let values = values_at(ctx, path, chain[2])?;
    let page = ctx.page_of(source)?;
    set_source_replica_values(ctx, path, &page, source, values.as_deref())
}

/// Ensure link memberships for levels `from..` along `chain`.
pub fn attach_links_from(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    chain: &[Option<Oid>],
    from: usize,
) -> Result<()> {
    for (i, link_id) in path.links.iter().enumerate().skip(from) {
        let (member, target) = (chain[i], chain[i + 1]);
        let (Some(member), Some(target)) = (member, target) else {
            break;
        };
        link_add(ctx, ctx.cat.link(*link_id), target, member)?;
    }
    Ok(())
}

/// Materialise the terminal of `path` for `source`, given its chain and
/// `page`, `source`'s page (from the caller's batch or
/// [`WriteCtx::page_of`]).
pub fn attach_terminal(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    page: &PageHandle,
    source: Oid,
    chain: &[Option<Oid>],
) -> Result<()> {
    let terminal = *chain.last().expect("chain is non-empty");
    match path.strategy {
        Strategy::InPlace => {
            let values = values_at(ctx, path, terminal)?;
            set_source_replica_values(ctx, path, page, source, values.as_deref())
        }
        Strategy::Separate => {
            let group = ctx.cat.group_of(path)?;
            let already = view_pinned(ctx.sm, &ctx.pins, ctx.cat, page, source, |v| {
                v.replica_ref(group.id.0)
            })?;
            match (terminal, already.is_some()) {
                (Some(t), false) => {
                    let roid = anchor_acquire(ctx.w, &ctx.pins, ctx.cat, group, t, 1)?;
                    set_source_replica_ref(ctx, group.id.0, page, source, Some(roid)).map(drop)
                }
                // Already attached (a sibling path of the same group did
                // it), or chain broken: nothing to do.
                _ => Ok(()),
            }
        }
    }
}

/// Detach `source` from `path` along `chain`, the forward chain through
/// the references it was attached with (for a re-target: the old ones).
pub fn detach_path(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    source: Oid,
    chain: &[Option<Oid>],
) -> Result<()> {
    if path.collapsed {
        return detach_collapsed(ctx, path, source, chain);
    }
    detach_links_from(ctx, path, chain, 0)?;

    let page = ctx.page_of(source)?;
    match path.strategy {
        Strategy::InPlace => set_source_replica_values(ctx, path, &page, source, None),
        Strategy::Separate => {
            let group = ctx.cat.group_of(path)?;
            if set_source_replica_ref(ctx, group.id.0, &page, source, None)? {
                if let Some(t) = chain.last().copied().flatten() {
                    anchor_release(ctx.w, &ctx.pins, ctx.cat, group, t, 1)?;
                }
            }
            Ok(())
        }
    }
}

/// Remove link memberships along `chain` starting at level `from`:
/// unconditional at `from`, rippling upward only while link objects empty
/// out (§4.1.2).
pub fn detach_links_from(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    chain: &[Option<Oid>],
    from: usize,
) -> Result<()> {
    let mut proceed = true;
    for (i, link_id) in path.links.iter().enumerate().skip(from) {
        if !proceed {
            break;
        }
        let (Some(member), Some(target)) = (chain[i], chain[i + 1]) else {
            break;
        };
        // `member` leaves the path only when its own membership record is
        // gone *and* nothing else keeps it: ripple upward only if the
        // target's link store is now empty.
        proceed = link_remove(ctx, ctx.cat.link(*link_id), target, member)?;
    }
    Ok(())
}

/// §4.3.3 detach: drop the tagged entry, unmark the intermediate when it
/// routes nothing any more, clear the hidden value.
fn detach_collapsed(
    ctx: &mut WriteCtx<'_>,
    path: &RepPathDef,
    source: Oid,
    chain: &[Option<Oid>],
) -> Result<()> {
    let link = ctx.cat.link(path.links[0]);
    if let Some((holder, via)) = collapsed_holder(chain) {
        if collapsed::untag(ctx, link, holder, source, via)? {
            collapsed::mark_via(ctx, link.id.0, via, false)?;
        }
    }
    let page = ctx.page_of(source)?;
    set_source_replica_values(ctx, path, &page, source, None)
}

/// Collect the source objects (level-0 members) that reach `obj` through
/// the inverted path of `path`. `at_level` is the level of the link whose
/// link object hangs off `obj` (`obj` is chain node `at_level + 1`).
/// Results are sorted by OID, i.e. physical order — the order the paper
/// propagates updates in. Link stores are asked of `pins`.
pub fn collect_sources(
    ctx: &EngineCtx<'_>,
    pins: &PagePins,
    path: &RepPathDef,
    at_level: usize,
    obj: &Object,
) -> Result<Vec<Oid>> {
    if path.collapsed {
        debug_assert_eq!(at_level, 0, "collapsed paths have one link level");
        let link = ctx.cat.link(path.links[0]).clone();
        return Ok(collapsed::members(ctx.sm, pins, obj, &link)?
            .into_iter()
            .map(|(src, _)| src)
            .collect());
    }
    let link = ctx.cat.link(path.links[at_level]).clone();
    let members = link_members(ctx.sm, pins, obj, &link)?;
    if at_level == 0 {
        return Ok(members); // already sorted
    }
    let mut out = Vec::new();
    ctx.sm.visit_sorted(&members, |_, m, _| {
        let mobj = read_object(ctx.sm, pins, ctx.cat, m)?;
        out.extend(collect_sources(ctx, pins, path, at_level - 1, &mobj)?);
        Ok::<_, DbError>(())
    })?;
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Read the current replicated values visible to `source_obj` for `path`
/// (in-place: the hidden field; separate: via the shared replica object).
/// `None` if the chain is broken / not materialised.
pub fn read_path_values(
    ctx: &mut EngineCtx<'_>,
    path: &RepPathDef,
    source_obj: &Object,
) -> Result<Option<Vec<Value>>> {
    match path.group {
        None => Ok(source_obj
            .replica_values(path.id.0)
            .map(<[fieldrep_model::Value]>::to_vec)),
        Some(g) => find_replica_ref(source_obj, g.0)
            .map(|(_, roid)| replica_path_values(ctx, path, roid))
            .transpose(),
    }
}

/// The values separate `path` serves through the shared replica object
/// at `roid`: the group's values at the path's terminal fields, each
/// decoded where it lies on the replica's page.
pub(crate) fn replica_path_values(
    ctx: &mut EngineCtx<'_>,
    path: &RepPathDef,
    roid: Oid,
) -> Result<Vec<Value>> {
    let group = ctx.cat.group_of(path)?;
    let hf = HeapFile::open(group.file);
    hf.view(ctx.sm, &PagePins::none(), roid, |_, payload| {
        let value = |f: &usize| -> Result<Value> {
            let pos = group.fields.iter().position(|g| g == f).ok_or_else(|| {
                CatalogError::Invalid(format!(
                    "replica group #{} does not carry field {f} of path {}",
                    group.id.0, path.id
                ))
            })?;
            Ok(Value::list_item(payload, pos)?)
        };
        path.terminal_fields.iter().map(value).collect()
    })?
}
