//! Collapsed inverted paths (§4.3.3, Figure 6).
//!
//! For a 2-level path `Emp1.dept.org.name`, the uncollapsed inverted path
//! keeps two links (`Emp1.dept⁻¹` and `dept.org⁻¹`); a terminal update
//! traverses both. The *collapsed* form fuses them into one link
//! `Emp1.org⁻¹` whose link store maps each terminal object `O` directly
//! to the source OIDs — each entry **tagged** with the intermediate
//! object it travels through: "the OIDs … would have to be tagged in some
//! way to indicate their association with D. The tags would be needed to
//! handle updates to D.org."
//!
//! Trade-offs, exactly as §4.3.3 lists them: terminal updates reach the
//! sources through a single link level, but intermediate re-targets must
//! *move* all tagged entries (instead of one OID), and the collapsed link
//! cannot be shared with ordinary links. While the chain past the
//! intermediate is broken, its entries are *parked* on the intermediate;
//! a routing intermediate carries a `CollapsedVia` marker.

use crate::chain;
use crate::error::Result;
use crate::objects::{read_object, write_object};
use crate::WriteCtx;
use fieldrep_catalog::LinkDef;
use fieldrep_model::{Annotation, Object};
use fieldrep_storage::{Oid, StorageManager};

/// One tagged entry: the source object and the intermediate it goes
/// through.
pub type TaggedEntry = (Oid, Oid);

/// Find the collapsed-store head for `link_id` on a holder.
pub fn find_store(obj: &Object, link_id: u8) -> Option<Oid> {
    obj.annotations.iter().find_map(|a| match a {
        Annotation::LinkRef { link, oid } if *link == link_id => Some(*oid),
        _ => None,
    })
}

/// All entries of `holder`'s collapsed store for `link` (empty if none).
pub fn members(sm: &StorageManager, holder: &Object, link: &LinkDef) -> Result<Vec<TaggedEntry>> {
    find_store(holder, link.id.0).map_or(Ok(Vec::new()), |head| chain::read(sm, link, head))
}

/// Find whether an object carries the `CollapsedVia` marker for `link`.
pub fn has_via_marker(obj: &Object, link_id: u8) -> bool {
    obj.annotations
        .iter()
        .any(|a| matches!(a, Annotation::CollapsedVia { link } if *link == link_id))
}

/// The one holder sequence: find `holder`'s store for `link`, let `edit`
/// change it (`None`: no store, before or after), and keep the holder's
/// annotation in step — added with a new store, dropped with an emptied
/// one.
fn edit_store(
    ctx: &WriteCtx<'_>,
    link: &LinkDef,
    holder: Oid,
    edit: impl FnOnce(Option<Oid>) -> Result<Option<Oid>>,
) -> Result<()> {
    let mut obj = read_object(ctx.w, ctx.cat, holder)?;
    let before = find_store(&obj, link.id.0);
    let after = edit(before)?;
    if after != before {
        let id = link.id.0;
        obj.annotations
            .retain(|a| !matches!(a, Annotation::LinkRef { link, .. } if *link == id));
        obj.annotations
            .extend(after.map(|oid| Annotation::LinkRef { link: id, oid }));
        write_object(ctx.w, ctx.cat, holder, &obj)?;
    }
    Ok(())
}

/// Add `entries` (sorted by source) to `holder`'s store, creating it if
/// absent; an entry already there is re-tagged.
pub fn tag(ctx: &WriteCtx<'_>, link: &LinkDef, holder: Oid, entries: &[TaggedEntry]) -> Result<()> {
    edit_store(ctx, link, holder, |head| match head {
        Some(head) => {
            for &e in entries {
                chain::insert(ctx.w, link, head, e)?;
            }
            Ok(Some(head))
        }
        None => chain::create(ctx.w, link, entries).map(Some),
    })
}

/// Remove `src`'s entry from `holder`'s store. Returns whether it was
/// tagged `via` and `via` now routes nothing else through this holder.
pub fn untag(ctx: &WriteCtx<'_>, link: &LinkDef, holder: Oid, src: Oid, via: Oid) -> Result<bool> {
    let (mut removed, mut routes) = (None, false);
    edit_store(ctx, link, holder, |head| {
        let Some(head) = head else { return Ok(None) };
        let mut left = 0;
        removed = chain::remove(ctx.w, link, head, src, |e: &TaggedEntry| {
            left += 1;
            routes |= e.1 == via;
        })?;
        Ok((left > 0).then_some(head))
    })?;
    Ok(removed.is_some_and(|(_, v)| v == via) && !routes)
}

/// Remove every entry tagged `via` from `holder`'s store — the one
/// whole-store rewrite, since one intermediate's entries lie scattered
/// across the chain.
pub fn remove_tagged(ctx: &WriteCtx<'_>, link: &LinkDef, holder: Oid, via: Oid) -> Result<()> {
    edit_store(ctx, link, holder, |head| {
        let Some(head) = head else { return Ok(None) };
        let all: Vec<TaggedEntry> = chain::read(ctx.w, link, head)?;
        let kept: Vec<TaggedEntry> = all.iter().copied().filter(|e| e.1 != via).collect();
        if kept.is_empty() {
            chain::destroy::<TaggedEntry>(ctx.w, link, head)?;
            return Ok(None);
        }
        if kept.len() < all.len() {
            chain::rewrite(ctx.w, link, head, &kept)?;
        }
        Ok(Some(head))
    })
}

/// Set (`on`) or clear the `CollapsedVia` marker for `link` on `via`.
pub fn mark_via(ctx: &WriteCtx<'_>, link: u8, via: Oid, on: bool) -> Result<()> {
    let mut obj = read_object(ctx.w, ctx.cat, via)?;
    if has_via_marker(&obj, link) == on {
        return Ok(());
    }
    obj.annotations
        .retain(|a| !matches!(a, Annotation::CollapsedVia { link: l } if *l == link));
    obj.annotations
        .extend(on.then_some(Annotation::CollapsedVia { link }));
    write_object(ctx.w, ctx.cat, via, &obj)
}

#[cfg(test)]
mod tests {
    use super::TaggedEntry;
    use crate::chain::{decode_chunk, encode_chunk, Entry, CHUNK_HEADER, COLLAPSED_MARK};
    use fieldrep_storage::{FileId, Oid};

    #[test]
    fn chunk_codec_roundtrip() {
        let entries = vec![
            (Oid::new(FileId(1), 0, 0), Oid::new(FileId(2), 5, 5)),
            (Oid::new(FileId(1), 0, 3), Oid::new(FileId(2), 5, 5)),
            (Oid::new(FileId(1), 1, 0), Oid::new(FileId(2), 6, 0)),
        ];
        let next = Some(Oid::new(FileId(9), 1, 1));
        let enc = encode_chunk(COLLAPSED_MARK, next, &entries);
        let (n, back) = decode_chunk::<TaggedEntry>(COLLAPSED_MARK, &enc).unwrap();
        assert_eq!(n, next);
        assert_eq!(back, entries);
        assert_eq!(enc.len(), CHUNK_HEADER + 3 * 16);
    }

    #[test]
    fn pair_capacity() {
        assert_eq!(TaggedEntry::CAPACITY, 251);
    }
}
