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
//! cannot be shared with ordinary links.
//!
//! Chunked on-disk entry format (16 bytes per entry, sorted by source):
//!
//! ```text
//! [0xCC] [count u16] [next chunk OID, 8B] [(src OID 8B, via OID 8B)…]
//! ```

use crate::error::Result;
use crate::objects::LINK_TAG;
use fieldrep_catalog::LinkDef;
use fieldrep_model::{Annotation, Object};
use fieldrep_storage::{ApplySection, HeapFile, Oid, StorageManager, MAX_RECORD_PAYLOAD};

/// Marker byte distinguishing collapsed chunks from ordinary link chunks.
pub const COLLAPSED_MARK: u8 = 0xCC;
/// Chunk header bytes.
pub const CHUNK_HEADER: usize = 1 + 2 + 8;
/// Maximum `(src, via)` pairs per chunk.
pub const MAX_CHUNK_PAIRS: usize = (MAX_RECORD_PAYLOAD - CHUNK_HEADER) / 16; // 251

/// One tagged entry: the source object and the intermediate it goes
/// through.
pub type TaggedEntry = (Oid, Oid);

/// Encode one chunk of a collapsed store.
pub fn encode_chunk(next: Option<Oid>, entries: &[TaggedEntry]) -> Vec<u8> {
    debug_assert!(entries.len() <= MAX_CHUNK_PAIRS);
    debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "sorted by src");
    let mut out = Vec::with_capacity(CHUNK_HEADER + entries.len() * 16);
    out.push(COLLAPSED_MARK);
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    out.extend_from_slice(&next.unwrap_or(Oid::NULL).to_bytes());
    for (src, via) in entries {
        out.extend_from_slice(&src.to_bytes());
        out.extend_from_slice(&via.to_bytes());
    }
    out
}

/// Decode one chunk into `(next, entries)`.
pub fn decode_chunk(b: &[u8]) -> (Option<Oid>, Vec<TaggedEntry>) {
    debug_assert_eq!(b[0], COLLAPSED_MARK, "not a collapsed chunk");
    let n = u16::from_le_bytes([b[1], b[2]]) as usize;
    let next = Oid::from_bytes(&b[3..11]);
    let next = (!next.is_null()).then_some(next);
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let off = CHUNK_HEADER + i * 16;
        entries.push((
            Oid::from_bytes(&b[off..off + 8]),
            Oid::from_bytes(&b[off + 8..off + 16]),
        ));
    }
    (next, entries)
}

/// Create a collapsed store from entries sorted by source OID; returns the
/// head chunk OID (stable for the store's lifetime).
pub fn create_store(w: &ApplySection<'_>, link: &LinkDef, entries: &[TaggedEntry]) -> Result<Oid> {
    let hf = HeapFile::open(link.file);
    let chunks: Vec<&[TaggedEntry]> = entries.chunks(MAX_CHUNK_PAIRS).collect();
    let mut next = None;
    for chunk in chunks.iter().rev() {
        let oid = hf.rec_insert(w, LINK_TAG, &encode_chunk(next, chunk))?;
        next = Some(oid);
    }
    match next {
        Some(h) => Ok(h),
        None => Ok(hf.rec_insert(w, LINK_TAG, &encode_chunk(None, &[]))?),
    }
}

/// Read every entry of a collapsed store, sorted by source.
pub fn read_store(sm: &StorageManager, link: &LinkDef, head: Oid) -> Result<Vec<TaggedEntry>> {
    let hf = HeapFile::open(link.file);
    let mut out = Vec::new();
    let mut cur = Some(head);
    while let Some(oid) = cur {
        let (_, payload) = hf.read(sm, oid)?;
        let (next, entries) = decode_chunk(&payload);
        out.extend(entries);
        cur = next;
    }
    Ok(out)
}

/// Find the collapsed-store head for `link_id` on a terminal object.
pub fn find_store(obj: &Object, link_id: u8) -> Option<Oid> {
    obj.annotations.iter().find_map(|a| match a {
        Annotation::LinkRef { link, oid } if *link == link_id => Some(*oid),
        _ => None,
    })
}

/// All entries of `terminal_obj`'s collapsed store for `link` (empty if
/// none).
pub fn members(
    sm: &StorageManager,
    terminal_obj: &Object,
    link: &LinkDef,
) -> Result<Vec<TaggedEntry>> {
    match find_store(terminal_obj, link.id.0) {
        None => Ok(Vec::new()),
        Some(head) => read_store(sm, link, head),
    }
}

/// Rewrite a whole store in place (head OID preserved): used by the
/// mutation helpers below. Deletes surplus chunks / allocates new ones as
/// needed.
fn rewrite_store(
    w: &ApplySection<'_>,
    link: &LinkDef,
    head: Oid,
    entries: &[TaggedEntry],
) -> Result<()> {
    let hf = HeapFile::open(link.file);
    // Collect the existing chain.
    let mut chain = vec![head];
    {
        let mut cur = head;
        loop {
            let (_, payload) = hf.read(w, cur)?;
            let (next, _) = decode_chunk(&payload);
            match next {
                Some(n) => {
                    chain.push(n);
                    cur = n;
                }
                None => break,
            }
        }
    }
    let chunks: Vec<&[TaggedEntry]> = if entries.is_empty() {
        vec![&[][..]]
    } else {
        entries.chunks(MAX_CHUNK_PAIRS).collect()
    };
    // Allocate extra chunk records if the new content needs more.
    while chain.len() < chunks.len() {
        let oid = hf.rec_insert(w, LINK_TAG, &encode_chunk(None, &[]))?;
        chain.push(oid);
    }
    // Free surplus records (never the head).
    while chain.len() > chunks.len().max(1) {
        let victim = chain.pop().unwrap();
        hf.rec_delete(w, victim)?;
    }
    // Write chunks front to back with correct next pointers.
    for (i, chunk) in chunks.iter().enumerate() {
        let next = chain.get(i + 1).copied();
        hf.rec_update(w, chain[i], &encode_chunk(next, chunk))?;
    }
    Ok(())
}

/// Insert `(src, via)` into the store headed at `head` (idempotent on
/// `src`). Returns `true` if newly added.
pub fn store_add(
    w: &ApplySection<'_>,
    link: &LinkDef,
    head: Oid,
    entry: TaggedEntry,
) -> Result<bool> {
    let mut entries = read_store(w, link, head)?;
    match entries.binary_search_by_key(&entry.0, |e| e.0) {
        Ok(pos) => {
            if entries[pos].1 == entry.1 {
                return Ok(false);
            }
            entries[pos].1 = entry.1; // re-tag (source re-routed)
        }
        Err(pos) => entries.insert(pos, entry),
    }
    rewrite_store(w, link, head, &entries)?;
    Ok(true)
}

/// Remove the entry for `src`. Returns `(removed_via, remaining_total,
/// remaining_with_same_via)`.
pub fn store_remove(
    w: &ApplySection<'_>,
    link: &LinkDef,
    head: Oid,
    src: Oid,
) -> Result<(Option<Oid>, usize, usize)> {
    let mut entries = read_store(w, link, head)?;
    let removed = match entries.binary_search_by_key(&src, |e| e.0) {
        Ok(pos) => Some(entries.remove(pos).1),
        Err(_) => None,
    };
    let remaining = entries.len();
    let same_via = removed
        .map(|v| entries.iter().filter(|(_, via)| *via == v).count())
        .unwrap_or(0);
    if removed.is_some() {
        if remaining == 0 {
            // Caller deletes the store + annotation.
            destroy_store(w, link, head)?;
        } else {
            rewrite_store(w, link, head, &entries)?;
        }
    }
    Ok((removed, remaining, same_via))
}

/// Remove every entry tagged `via`, returning the source OIDs (sorted).
pub fn store_remove_tagged(
    w: &ApplySection<'_>,
    link: &LinkDef,
    head: Oid,
    via: Oid,
) -> Result<(Vec<Oid>, usize)> {
    let entries = read_store(w, link, head)?;
    let (moved, kept): (Vec<TaggedEntry>, Vec<TaggedEntry>) =
        entries.into_iter().partition(|(_, v)| *v == via);
    let remaining = kept.len();
    if !moved.is_empty() {
        if kept.is_empty() {
            destroy_store(w, link, head)?;
        } else {
            rewrite_store(w, link, head, &kept)?;
        }
    }
    Ok((moved.into_iter().map(|(s, _)| s).collect(), remaining))
}

/// Number of entries tagged `via`.
pub fn count_tagged(sm: &StorageManager, link: &LinkDef, head: Oid, via: Oid) -> Result<usize> {
    Ok(read_store(sm, link, head)?
        .iter()
        .filter(|(_, v)| *v == via)
        .count())
}

/// Delete every chunk of a store.
pub fn destroy_store(w: &ApplySection<'_>, link: &LinkDef, head: Oid) -> Result<()> {
    let hf = HeapFile::open(link.file);
    let mut cur = Some(head);
    while let Some(oid) = cur {
        let (_, payload) = hf.read(w, oid)?;
        let (next, _) = decode_chunk(&payload);
        hf.rec_delete(w, oid)?;
        cur = next;
    }
    Ok(())
}

/// Find whether an object carries the `CollapsedVia` marker for `link`.
pub fn has_via_marker(obj: &Object, link_id: u8) -> bool {
    obj.annotations
        .iter()
        .any(|a| matches!(a, Annotation::CollapsedVia { link } if *link == link_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldrep_storage::FileId;

    #[test]
    fn chunk_codec_roundtrip() {
        let entries = vec![
            (Oid::new(FileId(1), 0, 0), Oid::new(FileId(2), 5, 5)),
            (Oid::new(FileId(1), 0, 3), Oid::new(FileId(2), 5, 5)),
            (Oid::new(FileId(1), 1, 0), Oid::new(FileId(2), 6, 0)),
        ];
        let next = Some(Oid::new(FileId(9), 1, 1));
        let enc = encode_chunk(next, &entries);
        let (n, back) = decode_chunk(&enc);
        assert_eq!(n, next);
        assert_eq!(back, entries);
        assert_eq!(enc.len(), CHUNK_HEADER + 3 * 16);
    }

    #[test]
    fn pair_capacity() {
        assert_eq!(MAX_CHUNK_PAIRS, 251);
    }
}
