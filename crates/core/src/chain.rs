//! Chunk chains: the one on-disk form of every link store (§4.1, §4.3.3).
//!
//! A link store holds member OIDs (§4.1); a collapsed store holds them
//! "tagged" with their intermediate (§4.3.3): one structure, generic over
//! the [`Entry`]. Records are page-bounded, so a store is a chain of
//! chunks, each a run of entries sorted by source OID, linked head → tail.
//! The head's OID is what the `(link-OID, link-ID)` pair names; it never
//! changes. An add or a remove edits the one chunk its key belongs in.
//!
//! ```text
//! [mark u8] [count u16] [next chunk OID, 8B] [entries, sorted by source]
//! ```
//!
//! The mark is the link's level, or [`COLLAPSED_MARK`] if collapsed. A
//! record that is not the chunk its link expects is `Corrupt`. Every
//! chunk is read and written through the operation's [`PagePins`], so a
//! chunk read and then rewritten costs one page request.

use crate::error::Result;
use crate::objects::LINK_TAG;
use fieldrep_catalog::LinkDef;
use fieldrep_storage::{
    ApplySection, HeapFile, Oid, PagePins, StorageError, StorageManager, MAX_RECORD_PAYLOAD,
};

/// Bytes of chunk header (mark + count + next pointer).
pub const CHUNK_HEADER: usize = 1 + 2 + 8;
/// Mark byte of a collapsed store's chunks.
pub const COLLAPSED_MARK: u8 = 0xCC;

/// What a chain holds, sorted by [`Entry::key`].
pub trait Entry: Copy + Eq {
    /// Encoded bytes per entry.
    const WIDTH: usize;
    /// Entries per chunk: everything must fit one record.
    const CAPACITY: usize = (MAX_RECORD_PAYLOAD - CHUNK_HEADER) / Self::WIDTH;
    /// The source OID the chain is sorted by.
    fn key(&self) -> Oid;
    /// Append the encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode from exactly [`Entry::WIDTH`] bytes.
    fn get(b: &[u8]) -> Self;
}

/// A member of a link store (§4.1).
impl Entry for Oid {
    const WIDTH: usize = 8;
    fn key(&self) -> Oid {
        *self
    }
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }
    fn get(b: &[u8]) -> Self {
        Oid::from_bytes(b)
    }
}

/// A `(src, via)` entry of a collapsed store (§4.3.3).
impl Entry for (Oid, Oid) {
    const WIDTH: usize = 16;
    fn key(&self) -> Oid {
        self.0
    }
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(b: &[u8]) -> Self {
        (Oid::from_bytes(b), Oid::from_bytes(&b[8..]))
    }
}

/// The mark byte of `link`'s chunks.
fn mark_of(link: &LinkDef) -> u8 {
    if link.collapsed {
        COLLAPSED_MARK
    } else {
        link.level as u8
    }
}

/// A decoded chunk: its successor and its entries.
pub type Chunk<E> = (Option<Oid>, Vec<E>);

/// Encode one chunk.
pub fn encode_chunk<E: Entry>(mark: u8, next: Option<Oid>, entries: &[E]) -> Vec<u8> {
    debug_assert!(entries.len() <= E::CAPACITY, "chunk overflow");
    debug_assert!(entries.windows(2).all(|w| w[0].key() < w[1].key()));
    let mut out = Vec::with_capacity(CHUNK_HEADER + entries.len() * E::WIDTH);
    out.push(mark);
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    out.extend_from_slice(&next.unwrap_or(Oid::NULL).to_bytes());
    for e in entries {
        e.put(&mut out);
    }
    out
}

/// Decode one chunk into `(next, entries)`: `Corrupt` unless it carries
/// `mark` and exactly as many entry bytes as its count says.
pub fn decode_chunk<E: Entry>(mark: u8, b: &[u8]) -> fieldrep_storage::Result<Chunk<E>> {
    let n: usize = b
        .get(1..3)
        .map_or(0, |c| u16::from_le_bytes([c[0], c[1]]).into());
    if b.first() != Some(&mark) || b.len() != CHUNK_HEADER + n * E::WIDTH {
        let len = b.len();
        return Err(StorageError::Corrupt(format!(
            "link chunk of {len} bytes is not one marked {mark} with {n} entries"
        )));
    }
    let next = Oid::from_bytes(&b[3..CHUNK_HEADER]);
    let entries = b[CHUNK_HEADER..].chunks_exact(E::WIDTH).map(E::get);
    Ok(((!next.is_null()).then_some(next), entries.collect()))
}

/// Read and decode the chunk at `oid`.
fn read_chunk<E: Entry>(
    sm: &StorageManager,
    pins: &PagePins,
    link: &LinkDef,
    oid: Oid,
) -> Result<Chunk<E>> {
    let chunk = HeapFile::open(link.file).view(sm, pins, oid, |tag, payload| {
        if tag != LINK_TAG {
            return Err(StorageError::Corrupt(format!(
                "link chunk {oid}: record tag {tag}"
            )));
        }
        decode_chunk(mark_of(link), payload)
    })?;
    Ok(chunk?)
}

/// Create a chain holding `entries` (sorted); returns the head's OID.
/// Chunks are written tail-first so each can point at its successor; an
/// empty list still gets one (empty) head chunk.
pub fn create<E: Entry>(
    w: &ApplySection<'_>,
    pins: &PagePins,
    link: &LinkDef,
    entries: &[E],
) -> Result<Oid> {
    let (hf, mark) = (HeapFile::open(link.file), mark_of(link));
    let mut next = None;
    for chunk in entries.chunks(E::CAPACITY).rev() {
        next = Some(hf.rec_insert(w, pins, LINK_TAG, &encode_chunk(mark, next, chunk))?);
    }
    match next {
        Some(head) => Ok(head),
        None => Ok(hf.rec_insert(w, pins, LINK_TAG, &encode_chunk::<E>(mark, None, &[]))?),
    }
}

/// Visit the chunks of the chain at `head` in order, as `f(oid, entries)`.
pub fn walk<E: Entry>(
    sm: &StorageManager,
    pins: &PagePins,
    link: &LinkDef,
    head: Oid,
    mut f: impl FnMut(Oid, Vec<E>) -> Result<()>,
) -> Result<()> {
    let mut cur = Some(head);
    while let Some(oid) = cur {
        let (next, entries) = read_chunk(sm, pins, link, oid)?;
        f(oid, entries)?;
        cur = next;
    }
    Ok(())
}

/// Every entry of the chain at `head`, in key order.
pub fn read<E: Entry>(
    sm: &StorageManager,
    pins: &PagePins,
    link: &LinkDef,
    head: Oid,
) -> Result<Vec<E>> {
    let mut out = Vec::new();
    walk::<E>(sm, pins, link, head, |_, entries| {
        out.extend(entries);
        Ok(())
    })?;
    Ok(out)
}

/// Delete every chunk of the chain at `head`.
pub fn destroy<E: Entry>(
    w: &ApplySection<'_>,
    pins: &PagePins,
    link: &LinkDef,
    head: Oid,
) -> Result<()> {
    let hf = HeapFile::open(link.file);
    walk::<E>(w, pins, link, head, |oid, _| {
        Ok(hf.rec_delete(w, pins, oid)?)
    })
}

/// Insert `entry` into the chain at `head`, or re-tag the entry already
/// there under its key. Returns whether the chain changed.
pub fn insert<E: Entry>(
    w: &ApplySection<'_>,
    pins: &PagePins,
    link: &LinkDef,
    head: Oid,
    entry: E,
) -> Result<bool> {
    let (hf, mark) = (HeapFile::open(link.file), mark_of(link));
    let key = entry.key();
    let mut cur = head;
    let (mut next, mut entries) = read_chunk::<E>(w, pins, link, cur)?;
    // The entry belongs in the last chunk, or the first whose maximum it
    // does not pass.
    while let (Some(succ), Some(max)) = (next, entries.last()) {
        if key <= max.key() {
            break;
        }
        cur = succ;
        (next, entries) = read_chunk(w, pins, link, cur)?;
    }
    match entries.binary_search_by_key(&key, E::key) {
        Ok(pos) if entries[pos] == entry => return Ok(false),
        Ok(pos) => entries[pos] = entry,
        Err(pos) => entries.insert(pos, entry),
    }
    if entries.len() <= E::CAPACITY {
        hf.rec_update(w, pins, cur, &encode_chunk(mark, next, &entries))?;
    } else {
        // Split: the upper half moves to a new chunk after this one.
        let upper = entries.split_off(entries.len() / 2);
        let new_chunk = hf.rec_insert(w, pins, LINK_TAG, &encode_chunk(mark, next, &upper))?;
        hf.rec_update(w, pins, cur, &encode_chunk(mark, Some(new_chunk), &entries))?;
    }
    Ok(true)
}

/// Remove the entry keyed `key` from the chain at `head` and return it;
/// `rest` sees every entry left. An emptied chunk is unlinked and
/// deleted; an emptied head absorbs its successor (so the head OID stays
/// put) or, if it was the only chunk, is deleted and the chain with it.
pub fn remove<E: Entry>(
    w: &ApplySection<'_>,
    pins: &PagePins,
    link: &LinkDef,
    head: Oid,
    key: Oid,
    mut rest: impl FnMut(&E),
) -> Result<Option<E>> {
    let (hf, mark) = (HeapFile::open(link.file), mark_of(link));
    let mut removed = None;
    let mut prev: Option<(Oid, Vec<E>)> = None;
    let mut cur = Some(head);
    while let Some(oid) = cur {
        let (mut next, mut entries) = read_chunk::<E>(w, pins, link, oid)?;
        if let (None, Ok(pos)) = (removed, entries.binary_search_by_key(&key, E::key)) {
            removed = Some(entries.remove(pos));
            match (&prev, next) {
                _ if !entries.is_empty() => {
                    hf.rec_update(w, pins, oid, &encode_chunk(mark, next, &entries))?;
                }
                // Unlink the emptied chunk from its predecessor.
                (Some((poid, pentries)), _) => {
                    hf.rec_update(w, pins, *poid, &encode_chunk(mark, next, pentries))?;
                    hf.rec_delete(w, pins, oid)?;
                    cur = next;
                    continue;
                }
                (None, Some(succ)) => {
                    (next, entries) = read_chunk(w, pins, link, succ)?;
                    hf.rec_update(w, pins, oid, &encode_chunk(mark, next, &entries))?;
                    hf.rec_delete(w, pins, succ)?;
                }
                (None, None) => {
                    hf.rec_delete(w, pins, oid)?;
                    return Ok(removed);
                }
            }
        }
        entries.iter().for_each(&mut rest);
        prev = Some((oid, entries));
        cur = next;
    }
    Ok(removed)
}

/// Replace the content of the chain at `head` with `entries` (sorted),
/// keeping the head.
pub fn rewrite<E: Entry>(
    w: &ApplySection<'_>,
    pins: &PagePins,
    link: &LinkDef,
    head: Oid,
    entries: &[E],
) -> Result<()> {
    let (hf, mark) = (HeapFile::open(link.file), mark_of(link));
    if let (Some(tail), _) = read_chunk::<E>(w, pins, link, head)? {
        destroy::<E>(w, pins, link, tail)?;
    }
    let (first, rest) = entries.split_at(entries.len().min(E::CAPACITY));
    let next = (!rest.is_empty())
        .then(|| create(w, pins, link, rest))
        .transpose()?;
    Ok(hf.rec_update(w, pins, head, &encode_chunk(mark, next, first))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldrep_storage::FileId;

    #[test]
    fn records_shorter_than_a_header_or_of_the_other_width_are_corrupt() {
        for b in [&[][..], &[0], &[0, 1, 0]] {
            assert!(matches!(
                decode_chunk::<Oid>(0, b),
                Err(StorageError::Corrupt(_))
            ));
        }
        // A tagged chunk's count says one entry; its bytes hold two OIDs.
        let oid = Oid::new(FileId(1), 0, 0);
        let tagged = encode_chunk(COLLAPSED_MARK, None, &[(oid, oid)]);
        assert!(decode_chunk::<Oid>(COLLAPSED_MARK, &tagged).is_err());
        assert!(decode_chunk::<(Oid, Oid)>(COLLAPSED_MARK, &tagged).is_ok());
    }
}
