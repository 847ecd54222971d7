//! Link objects and inverted-path link maintenance (§4.1).
//!
//! A *link object* is "little more than a collection of OIDs" (§4.1): for
//! a target object `D` and a link `Emp1.dept⁻¹`, it holds the sorted OIDs
//! of the `Emp1` objects that reference `D`, as a [`chain`](crate::chain)
//! in a separate file per link. The target stores a `(link-OID, link-ID)`
//! pair — our `Annotation::LinkRef` — to find it.
//!
//! The §4.3.1 optimization lives here: a level-0 link object of at most
//! `DbConfig::inline_link_threshold` OIDs is stored inline in the target
//! instead (`Annotation::InlineLink`). The form is canonical: crossing
//! the threshold in either direction converts.

use crate::chain;
use crate::error::Result;
use crate::objects::{read_object, write_object};
use crate::WriteCtx;
use fieldrep_catalog::LinkDef;
use fieldrep_model::{Annotation, Object};
use fieldrep_storage::{Oid, StorageManager};

/// Where a target keeps its members of one link.
enum Held {
    /// Inline in the target (§4.3.1).
    Inline(Vec<Oid>),
    /// In the link store headed at this chunk.
    Store(Oid),
}

/// The link annotation for `link_id` in an object: its index and form.
fn find_link(obj: &Object, link_id: u8) -> Option<(usize, Held)> {
    obj.annotations
        .iter()
        .enumerate()
        .find_map(|(i, a)| match a {
            Annotation::InlineLink { link, oids } if *link == link_id => {
                Some((i, Held::Inline(oids.clone())))
            }
            Annotation::LinkRef { link, oid } if *link == link_id => Some((i, Held::Store(*oid))),
            _ => None,
        })
}

/// The members of `target`'s link store for `link` (empty if none).
/// `target_obj` must be the decoded target object.
pub fn link_members(sm: &StorageManager, target_obj: &Object, link: &LinkDef) -> Result<Vec<Oid>> {
    match find_link(target_obj, link.id.0) {
        None => Ok(Vec::new()),
        Some((_, Held::Inline(oids))) => Ok(oids),
        Some((_, Held::Store(head))) => chain::read(sm, link, head),
    }
}

/// How many members `link` keeps inline in its targets (§4.3.1).
fn inline_cap(ctx: &WriteCtx<'_>, link: &LinkDef) -> usize {
    if link.level == 0 {
        ctx.cfg.inline_link_threshold
    } else {
        0
    }
}

/// Ensure `member` appears in `target`'s members of `link`. Idempotent.
pub fn link_add(ctx: &WriteCtx<'_>, link: &LinkDef, target: Oid, member: Oid) -> Result<()> {
    let w = ctx.w;
    let mut obj = read_object(w, ctx.cat, target)?;
    let (at, mut oids) = match find_link(&obj, link.id.0) {
        Some((_, Held::Store(head))) => return chain::insert(w, link, head, member).map(drop),
        Some((i, Held::Inline(oids))) => (Some(i), oids),
        None => (None, Vec::new()),
    };
    let Err(pos) = oids.binary_search(&member) else {
        return Ok(());
    };
    oids.insert(pos, member);
    let id = link.id.0;
    let ann = if oids.len() > inline_cap(ctx, link) {
        // Grow out of inline form into a link store.
        let oid = chain::create(w, link, &oids)?;
        Annotation::LinkRef { link: id, oid }
    } else {
        Annotation::InlineLink { link: id, oids }
    };
    match at {
        Some(i) => obj.annotations[i] = ann,
        None => obj.annotations.push(ann),
    }
    write_object(w, ctx.cat, target, &obj)
}

/// Remove `member` from `target`'s members of `link` (if present).
/// Returns whether `target` is left with none: its store, if any,
/// deleted and its annotation dropped ("if there are no longer any OIDs
/// in the link object, it is deleted", §4.1.1). A store shrinks back to
/// inline form when its count falls to the threshold.
pub fn link_remove(ctx: &WriteCtx<'_>, link: &LinkDef, target: Oid, member: Oid) -> Result<bool> {
    let w = ctx.w;
    let mut obj = read_object(w, ctx.cat, target)?;
    // The members left inline: none drops the annotation.
    let (i, oids) = match find_link(&obj, link.id.0) {
        None => return Ok(true),
        Some((i, Held::Inline(mut oids))) => {
            if let Ok(pos) = oids.binary_search(&member) {
                oids.remove(pos);
            } else if !oids.is_empty() {
                return Ok(false);
            }
            (i, oids)
        }
        Some((i, Held::Store(head))) => {
            let mut remaining = 0;
            let removed = chain::remove(w, link, head, member, |_: &Oid| remaining += 1)?;
            if remaining == 0 {
                (i, Vec::new()) // the chain went with its last member
            } else if removed.is_some() && remaining <= inline_cap(ctx, link) {
                let oids = chain::read(w, link, head)?;
                chain::destroy::<Oid>(w, link, head)?;
                (i, oids)
            } else {
                return Ok(false);
            }
        }
    };
    let (id, now_empty) = (link.id.0, oids.is_empty());
    if now_empty {
        obj.annotations.remove(i);
    } else {
        obj.annotations[i] = Annotation::InlineLink { link: id, oids };
    }
    write_object(w, ctx.cat, target, &obj)?;
    Ok(now_empty)
}

#[cfg(test)]
mod tests {
    use crate::chain::{decode_chunk, encode_chunk, Entry, CHUNK_HEADER};
    use fieldrep_storage::{FileId, Oid, MAX_RECORD_PAYLOAD};

    #[test]
    fn chunk_codec_roundtrip() {
        let members = vec![
            Oid::new(FileId(1), 0, 0),
            Oid::new(FileId(1), 0, 5),
            Oid::new(FileId(1), 3, 1),
        ];
        let next = Some(Oid::new(FileId(9), 7, 7));
        let enc = encode_chunk(2, next, &members);
        assert_eq!(enc[0], 2, "a link chunk is marked with its level");
        let (n, back) = decode_chunk::<Oid>(2, &enc).unwrap();
        assert_eq!(n, next);
        assert_eq!(back, members);
        // Size: header + 8 per member — the paper's l = O(1) + f·sizeof(OID).
        assert_eq!(enc.len(), CHUNK_HEADER + 3 * 8);
    }

    #[test]
    fn empty_chunk_codec() {
        let enc = encode_chunk::<Oid>(0, None, &[]);
        let (next, back) = decode_chunk::<Oid>(0, &enc).unwrap();
        assert_eq!(next, None);
        assert!(back.is_empty());
    }

    #[test]
    fn chunk_capacity() {
        assert_eq!(Oid::CAPACITY, 503);
        let members: Vec<Oid> = (0..Oid::CAPACITY as u32)
            .map(|i| Oid::new(FileId(1), i, 0))
            .collect();
        let enc = encode_chunk(0, None, &members);
        assert!(enc.len() <= MAX_RECORD_PAYLOAD);
    }
}
