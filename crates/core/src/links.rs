//! Link objects and inverted-path link maintenance (§4.1).
//!
//! A *link object* is "little more than a collection of OIDs" (§4.1): for
//! a target object `D` and a link `Emp1.dept⁻¹`, it holds the sorted OIDs
//! of the `Emp1` objects that reference `D`. Link objects live in a
//! separate file per link so the clustering of the referenced set is not
//! disrupted, and the target object stores a `(link-OID, link-ID)` pair —
//! our `Annotation::LinkRef` — to find it.
//!
//! The paper notes that "each link object can contain a large number of
//! OIDs, and can be quite large as a result" (§4.1) — EXODUS supported
//! multi-page objects. Our storage records are page-bounded, so a link
//! store is a **chain of chunks**: sorted OID runs in ascending order,
//! each chunk one record, linked head → tail. The head chunk's OID is
//! what the `(link-OID, link-ID)` pair references and never changes.
//!
//! The §4.3.1 optimization is implemented: when a level-0 link store
//! would hold at most `DbConfig::inline_link_threshold` OIDs, the OIDs
//! are stored inline in the target object instead
//! (`Annotation::InlineLink`) and the link store is elided. The
//! representation is canonical: crossing the threshold in either
//! direction converts.
//!
//! On-disk chunk payload:
//!
//! ```text
//! [level u8] [count u16] [next chunk OID, 8 bytes] [member OIDs, sorted]
//! ```

use crate::error::Result;
use crate::objects::{read_object, write_object, LINK_TAG};
use fieldrep_catalog::{Catalog, LinkDef};
use fieldrep_model::{Annotation, Object};
use fieldrep_storage::{ApplySection, HeapFile, Oid, StorageManager, MAX_RECORD_PAYLOAD};

/// Bytes of chunk header (level + count + next pointer).
pub const CHUNK_HEADER: usize = 1 + 2 + 8;
/// Maximum member OIDs per chunk (everything must fit one record).
pub const MAX_CHUNK_MEMBERS: usize = (MAX_RECORD_PAYLOAD - CHUNK_HEADER) / 8; // 503

/// Encode one chunk.
pub fn encode_chunk(level: u8, next: Option<Oid>, members: &[Oid]) -> Vec<u8> {
    debug_assert!(members.len() <= MAX_CHUNK_MEMBERS, "chunk overflow");
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
    let mut out = Vec::with_capacity(CHUNK_HEADER + members.len() * 8);
    out.push(level);
    out.extend_from_slice(&(members.len() as u16).to_le_bytes());
    out.extend_from_slice(&next.unwrap_or(Oid::NULL).to_bytes());
    for m in members {
        out.extend_from_slice(&m.to_bytes());
    }
    out
}

/// Decode one chunk into `(level, next, members)`.
pub fn decode_chunk(b: &[u8]) -> (u8, Option<Oid>, Vec<Oid>) {
    let level = b[0];
    let n = u16::from_le_bytes([b[1], b[2]]) as usize;
    let next = Oid::from_bytes(&b[3..11]);
    let next = (!next.is_null()).then_some(next);
    let mut members = Vec::with_capacity(n);
    for i in 0..n {
        members.push(Oid::from_bytes(
            &b[CHUNK_HEADER + i * 8..CHUNK_HEADER + 8 + i * 8],
        ));
    }
    (level, next, members)
}

/// Create a (possibly multi-chunk) link store holding `members` (sorted);
/// returns the head chunk's OID. Chunks are written tail-first so each
/// can point at its successor.
pub fn create_link_store(w: &ApplySection<'_>, link: &LinkDef, members: &[Oid]) -> Result<Oid> {
    let hf = HeapFile::open(link.file);
    let chunks: Vec<&[Oid]> = members.chunks(MAX_CHUNK_MEMBERS).collect();
    let mut next: Option<Oid> = None;
    // Write from the last chunk backwards; the head is written last. (For
    // the common single-chunk case this is one insert.)
    for chunk in chunks.iter().rev() {
        let oid = hf.rec_insert(w, LINK_TAG, &encode_chunk(link.level as u8, next, chunk))?;
        next = Some(oid);
    }
    // An empty member list still gets one (empty) head chunk.
    match next {
        Some(h) => Ok(h),
        None => Ok(hf.rec_insert(w, LINK_TAG, &encode_chunk(link.level as u8, None, &[]))?),
    }
}

/// Read every member of the link store headed at `head`, in sorted order.
pub fn read_link_store(sm: &StorageManager, link: &LinkDef, head: Oid) -> Result<Vec<Oid>> {
    let hf = HeapFile::open(link.file);
    let mut out = Vec::new();
    let mut cur = Some(head);
    while let Some(oid) = cur {
        let (tag, payload) = hf.read(sm, oid)?;
        debug_assert_eq!(tag, LINK_TAG);
        let (_, next, members) = decode_chunk(&payload);
        out.extend(members);
        cur = next;
    }
    Ok(out)
}

/// Find the link annotation for `link_id` in an object.
fn find_link_ann(obj: &Object, link_id: u8) -> Option<usize> {
    obj.annotations.iter().position(|a| {
        matches!(a,
            Annotation::LinkRef { link, .. } | Annotation::InlineLink { link, .. }
                if *link == link_id)
    })
}

/// Outcome of a [`link_remove`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoveOutcome {
    /// The member was present and has been removed.
    pub removed: bool,
    /// After the call, the target has no members for this link (its link
    /// store, if any, was deleted and its annotation dropped).
    pub now_empty: bool,
}

/// The members of `target`'s link store for `link` (empty if none).
/// `target_obj` must be the decoded target object.
pub fn link_members(sm: &StorageManager, target_obj: &Object, link: &LinkDef) -> Result<Vec<Oid>> {
    match find_link_ann(target_obj, link.id.0) {
        None => Ok(Vec::new()),
        Some(i) => match &target_obj.annotations[i] {
            Annotation::InlineLink { oids, .. } => Ok(oids.clone()),
            Annotation::LinkRef { oid, .. } => read_link_store(sm, link, *oid),
            _ => unreachable!(),
        },
    }
}

/// Ensure `member` appears in `target`'s link store for `link`.
/// Idempotent: returns `true` if the member was newly added.
pub fn link_add(
    w: &ApplySection<'_>,
    cat: &Catalog,
    link: &LinkDef,
    target: Oid,
    member: Oid,
    inline_threshold: usize,
) -> Result<bool> {
    let mut obj = read_object(w, cat, target)?;
    let (added, dirty) = link_add_obj(w, link, target, &mut obj, member, inline_threshold)?;
    if dirty {
        write_object(w, cat, target, &obj)?;
    }
    Ok(added)
}

/// As [`link_add`], but operates on an already-loaded target object.
/// Returns `(member_added, obj_dirty)`; the caller must write `obj` back
/// when `obj_dirty` is true.
pub fn link_add_obj(
    w: &ApplySection<'_>,
    link: &LinkDef,
    _target: Oid,
    obj: &mut Object,
    member: Oid,
    inline_threshold: usize,
) -> Result<(bool, bool)> {
    let use_inline = inline_threshold > 0 && link.level == 0;
    match find_link_ann(obj, link.id.0) {
        None => {
            if use_inline {
                obj.annotations.push(Annotation::InlineLink {
                    link: link.id.0,
                    oids: vec![member],
                });
            } else {
                let head = create_link_store(w, link, &[member])?;
                obj.annotations.push(Annotation::LinkRef {
                    link: link.id.0,
                    oid: head,
                });
            }
            Ok((true, true))
        }
        Some(i) => match obj.annotations[i].clone() {
            Annotation::InlineLink { mut oids, .. } => match oids.binary_search(&member) {
                Ok(_) => Ok((false, false)),
                Err(pos) => {
                    oids.insert(pos, member);
                    if oids.len() > inline_threshold {
                        // Grow out of inline form into a link store.
                        let head = create_link_store(w, link, &oids)?;
                        obj.annotations[i] = Annotation::LinkRef {
                            link: link.id.0,
                            oid: head,
                        };
                    } else {
                        obj.annotations[i] = Annotation::InlineLink {
                            link: link.id.0,
                            oids,
                        };
                    }
                    Ok((true, true))
                }
            },
            Annotation::LinkRef { oid: head, .. } => {
                let added = chain_insert(w, link, head, member)?;
                Ok((added, false))
            }
            _ => unreachable!(),
        },
    }
}

/// Insert `member` into the chunk chain headed at `head`. Returns `true`
/// if it was not already present. Splits full chunks; the head OID never
/// changes.
fn chain_insert(w: &ApplySection<'_>, link: &LinkDef, head: Oid, member: Oid) -> Result<bool> {
    let hf = HeapFile::open(link.file);
    let mut cur = head;
    loop {
        let (_, payload) = hf.read(w, cur)?;
        let (level, next, mut members) = decode_chunk(&payload);
        // Does the member belong in this chunk? Yes if it sorts before or
        // at this chunk's maximum, or if this is the last chunk.
        let belongs = match (members.last(), next) {
            (_, None) => true,
            (Some(max), _) if member <= *max => true,
            (None, _) => true, // empty head chunk
            _ => false,
        };
        if !belongs {
            cur = next.expect("non-tail chunk has a successor");
            continue;
        }
        match members.binary_search(&member) {
            Ok(_) => return Ok(false),
            Err(pos) => members.insert(pos, member),
        }
        if members.len() <= MAX_CHUNK_MEMBERS {
            hf.rec_update(w, cur, &encode_chunk(level, next, &members))?;
        } else {
            // Split: upper half moves to a new chunk after this one.
            let upper = members.split_off(members.len() / 2);
            let new_chunk = hf.rec_insert(w, LINK_TAG, &encode_chunk(level, next, &upper))?;
            hf.rec_update(w, cur, &encode_chunk(level, Some(new_chunk), &members))?;
        }
        return Ok(true);
    }
}

/// Remove `member` from `target`'s link store for `link` (if present).
/// Deletes emptied stores and annotations; shrinks back to inline form
/// when the count falls to the threshold.
pub fn link_remove(
    w: &ApplySection<'_>,
    cat: &Catalog,
    link: &LinkDef,
    target: Oid,
    member: Oid,
    inline_threshold: usize,
) -> Result<RemoveOutcome> {
    let mut obj = read_object(w, cat, target)?;
    let (outcome, dirty) = link_remove_obj(w, link, &mut obj, member, inline_threshold)?;
    if dirty {
        write_object(w, cat, target, &obj)?;
    }
    Ok(outcome)
}

/// As [`link_remove`], but on a loaded object. Returns the outcome and
/// whether `obj` changed (caller must write it back).
pub fn link_remove_obj(
    w: &ApplySection<'_>,
    link: &LinkDef,
    obj: &mut Object,
    member: Oid,
    inline_threshold: usize,
) -> Result<(RemoveOutcome, bool)> {
    let use_inline = inline_threshold > 0 && link.level == 0;
    match find_link_ann(obj, link.id.0) {
        None => Ok((
            RemoveOutcome {
                removed: false,
                now_empty: true,
            },
            false,
        )),
        Some(i) => match obj.annotations[i].clone() {
            Annotation::InlineLink { mut oids, .. } => {
                let removed = match oids.binary_search(&member) {
                    Ok(pos) => {
                        oids.remove(pos);
                        true
                    }
                    Err(_) => false,
                };
                let now_empty = oids.is_empty();
                if now_empty {
                    obj.annotations.remove(i);
                } else if removed {
                    obj.annotations[i] = Annotation::InlineLink {
                        link: link.id.0,
                        oids,
                    };
                }
                Ok((RemoveOutcome { removed, now_empty }, removed || now_empty))
            }
            Annotation::LinkRef { oid: head, .. } => {
                let (removed, remaining) = chain_remove(w, link, head, member)?;
                if remaining == 0 {
                    // "If there are no longer any OIDs in the link object,
                    // it is deleted" (§4.1.1). chain_remove already
                    // deleted the chunks; drop the annotation.
                    obj.annotations.remove(i);
                    return Ok((
                        RemoveOutcome {
                            removed,
                            now_empty: true,
                        },
                        true,
                    ));
                }
                if removed && use_inline && remaining <= inline_threshold {
                    // Shrink back to inline form (§4.3.1).
                    let members = read_link_store(w, link, head)?;
                    destroy_chain(w, link, head)?;
                    obj.annotations[i] = Annotation::InlineLink {
                        link: link.id.0,
                        oids: members,
                    };
                    return Ok((
                        RemoveOutcome {
                            removed,
                            now_empty: false,
                        },
                        true,
                    ));
                }
                Ok((
                    RemoveOutcome {
                        removed,
                        now_empty: false,
                    },
                    false,
                ))
            }
            _ => unreachable!(),
        },
    }
}

/// Remove `member` from the chain headed at `head`. Returns
/// `(removed, remaining_total)`. Emptied non-head chunks are unlinked and
/// deleted; an emptied head absorbs its successor (so the head OID stays
/// stable) or — if it was the only chunk — is deleted entirely (the
/// caller drops the annotation).
fn chain_remove(
    w: &ApplySection<'_>,
    link: &LinkDef,
    head: Oid,
    member: Oid,
) -> Result<(bool, usize)> {
    let hf = HeapFile::open(link.file);
    let mut removed = false;
    let mut remaining = 0usize;
    let mut prev: Option<(Oid, u8, Option<Oid>, Vec<Oid>)> = None; // chunk before current
    let mut cur = Some(head);
    while let Some(coid) = cur {
        let (_, payload) = hf.read(w, coid)?;
        let (level, next, mut members) = decode_chunk(&payload);
        if !removed {
            if let Ok(pos) = members.binary_search(&member) {
                members.remove(pos);
                removed = true;
                if members.is_empty() {
                    if coid == head {
                        match next {
                            Some(succ) => {
                                // Absorb the successor into the head.
                                let (_, spayload) = hf.read(w, succ)?;
                                let (slevel, snext, smembers) = decode_chunk(&spayload);
                                hf.rec_update(w, coid, &encode_chunk(slevel, snext, &smembers))?;
                                hf.rec_delete(w, succ)?;
                                remaining += smembers.len();
                                cur = snext;
                                prev = Some((coid, slevel, snext, smembers));
                                continue;
                            }
                            None => {
                                hf.rec_delete(w, coid)?;
                                return Ok((true, remaining));
                            }
                        }
                    } else {
                        // Unlink this chunk from its predecessor.
                        let (poid, plevel, _pnext, pmembers) =
                            prev.clone().expect("non-head chunk has a predecessor");
                        hf.rec_update(w, poid, &encode_chunk(plevel, next, &pmembers))?;
                        hf.rec_delete(w, coid)?;
                        cur = next;
                        // prev stays the same.
                        continue;
                    }
                } else {
                    hf.rec_update(w, coid, &encode_chunk(level, next, &members))?;
                }
            }
        }
        remaining += members.len();
        prev = Some((coid, level, next, members));
        cur = next;
    }
    Ok((removed, remaining))
}

/// Delete every chunk of a chain.
fn destroy_chain(w: &ApplySection<'_>, link: &LinkDef, head: Oid) -> Result<()> {
    let hf = HeapFile::open(link.file);
    let mut cur = Some(head);
    while let Some(coid) = cur {
        let (_, payload) = hf.read(w, coid)?;
        let (_, next, _) = decode_chunk(&payload);
        hf.rec_delete(w, coid)?;
        cur = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldrep_storage::FileId;

    #[test]
    fn chunk_codec_roundtrip() {
        let members = vec![
            Oid::new(FileId(1), 0, 0),
            Oid::new(FileId(1), 0, 5),
            Oid::new(FileId(1), 3, 1),
        ];
        let next = Some(Oid::new(FileId(9), 7, 7));
        let enc = encode_chunk(2, next, &members);
        let (level, n, back) = decode_chunk(&enc);
        assert_eq!(level, 2);
        assert_eq!(n, next);
        assert_eq!(back, members);
        // Size: header + 8 per member — the paper's l = O(1) + f·sizeof(OID).
        assert_eq!(enc.len(), CHUNK_HEADER + 3 * 8);
    }

    #[test]
    fn empty_chunk_codec() {
        let enc = encode_chunk(0, None, &[]);
        let (level, next, back) = decode_chunk(&enc);
        assert_eq!(level, 0);
        assert_eq!(next, None);
        assert!(back.is_empty());
    }

    #[test]
    fn chunk_capacity() {
        assert_eq!(MAX_CHUNK_MEMBERS, 503);
        let members: Vec<Oid> = (0..MAX_CHUNK_MEMBERS as u32)
            .map(|i| Oid::new(FileId(1), i, 0))
            .collect();
        let enc = encode_chunk(0, None, &members);
        assert!(enc.len() <= MAX_RECORD_PAYLOAD);
    }
}
