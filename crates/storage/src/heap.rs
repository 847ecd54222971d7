//! Heap files: unordered collections of records addressed by physical OID.
//!
//! This is the paper's notion of a *set stored as a disk file* (§2.2): "the
//! set Emp1 would be stored as a disk file, and the pages in that disk file
//! would contain only the EMP objects belonging to Emp1."
//!
//! Records keep their OID for life. If an update outgrows its page — the
//! normal case when in-place replication adds a hidden field to an existing
//! object — the record moves and leaves a forwarding stub behind
//! ([`RecordFlags::Forward`]), exactly the technique slotted-page systems
//! use for stable RIDs. Scans report each logical record once, at its
//! original OID.

use crate::error::{Result, StorageError};
use crate::oid::{FileId, Oid, PageId};
use crate::page::{PageKind, PageMut, PageView, RecordFlags, RecordHeader};
use crate::{PageHandle, StorageManager};
use std::collections::VecDeque;

/// Per-file free-space bookkeeping kept by the storage manager.
///
/// Inserts go to the current append page; pages that regain space through
/// deletes or shrinking updates enter a bounded recycling queue that the
/// next inserts probe first. This is an approximation (a real system would
/// keep a free-space map page); it only affects placement, never
/// correctness.
#[derive(Default, Debug)]
pub struct FileSpace {
    /// The page new inserts try first.
    pub append_page: Option<u32>,
    /// Pages that recently regained space.
    pub recycled: VecDeque<u32>,
}

/// How many recycled pages an insert probes before extending the file.
const RECYCLE_PROBES: usize = 8;

/// A handle to a heap file. Carries no state beyond the file id; all
/// operations go through the [`StorageManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapFile {
    /// The underlying disk file.
    pub file: FileId,
}

impl HeapFile {
    /// Create a new, empty heap file.
    pub fn create(sm: &StorageManager) -> Result<HeapFile> {
        let file = sm.create_file()?;
        Ok(HeapFile { file })
    }

    /// Wrap an existing file id (e.g. one recorded in the catalog).
    pub fn open(file: FileId) -> HeapFile {
        HeapFile { file }
    }

    /// Insert a record, returning its stable OID.
    pub fn rec_insert(&self, sm: &StorageManager, type_tag: u16, payload: &[u8]) -> Result<Oid> {
        self.insert_flagged(sm, type_tag, RecordFlags::Normal, payload)
    }

    fn insert_flagged(
        &self,
        sm: &StorageManager,
        type_tag: u16,
        flags: RecordFlags,
        payload: &[u8],
    ) -> Result<Oid> {
        let header = RecordHeader { type_tag, flags };

        // Snapshot placement candidates under the free-space lock, then
        // probe them with the lock released: a concurrent insert may race
        // us to a page, but `pg.insert` under the page latch simply
        // reports "full" and we fall through to the next candidate.
        let candidates: Vec<u32> = sm.with_free_space(self.file, |space| {
            // 1. The append page first.
            let mut candidates = Vec::with_capacity(1 + RECYCLE_PROBES);
            if let Some(p) = space.append_page {
                candidates.push(p);
            }
            // 2. Then a few recycled pages.
            for p in space.recycled.iter().take(RECYCLE_PROBES) {
                if Some(*p) != space.append_page {
                    candidates.push(*p);
                }
            }
            candidates
        });

        for page_no in candidates {
            let pid = PageId::new(self.file, page_no);
            let h = sm.pool().fetch(pid)?;
            let mut data = h.data_mut();
            let mut pg = PageMut::new(&mut data[..]);
            if let Some(slot) = pg.insert(header, payload)? {
                drop(data);
                self.after_placement(sm, page_no);
                return Ok(Oid::new(self.file, page_no, slot));
            }
        }

        // 3. Extend the file.
        let (pid, h) = sm.pool().new_page(self.file)?;
        let mut data = h.data_mut();
        let mut pg = PageMut::new(&mut data[..]);
        pg.init(PageKind::Heap);
        let slot = pg
            .insert(header, payload)?
            .expect("fresh page always fits a legal record");
        drop(data);
        sm.with_free_space(self.file, |space| space.append_page = Some(pid.page));
        Ok(Oid::new(self.file, pid.page, slot))
    }

    fn after_placement(&self, sm: &StorageManager, page_no: u32) {
        // Keep the recycled queue from growing without bound: drop entries
        // we have just used (front-biased removal).
        sm.with_free_space(self.file, |space| {
            if space.recycled.front() == Some(&page_no) {
                space.recycled.pop_front();
            }
        });
    }

    /// Read a record by OID, following a forwarding stub if present.
    /// Returns the record's type tag and payload.
    pub fn read(&self, sm: &StorageManager, oid: Oid) -> Result<(u16, Vec<u8>)> {
        let (hdr, payload) = self.read_raw(sm, oid)?;
        match hdr.flags {
            RecordFlags::Normal | RecordFlags::Moved => Ok((hdr.type_tag, payload)),
            RecordFlags::Forward => self.read_moved(sm, oid, Oid::from_bytes(&payload)),
        }
    }

    /// Read the record at `oid` from `page`, a handle the caller already
    /// holds on `oid`'s page (a batch pin): the payload is lent to `f`
    /// under the frame's read latch instead of the page being requested
    /// again and the payload copied out. `f` must not call back into the
    /// pool. A forwarding stub is followed with an ordinary read of the
    /// moved body, after the latch is released.
    pub fn read_pinned<R>(
        &self,
        sm: &StorageManager,
        page: &PageHandle,
        oid: Oid,
        f: impl FnOnce(u16, &[u8]) -> R,
    ) -> Result<R> {
        if oid.file != self.file || page.pid != oid.page_id() {
            return Err(StorageError::InvalidOid(oid));
        }
        let target = {
            let data = page.data();
            let (hdr, payload) = PageView::new(&data[..])
                .record(oid.slot)
                .ok_or(StorageError::InvalidOid(oid))?;
            if hdr.flags != RecordFlags::Forward {
                return Ok(f(hdr.type_tag, payload));
            }
            Oid::from_bytes(payload)
        };
        let (tag, body) = self.read_moved(sm, oid, target)?;
        Ok(f(tag, &body))
    }

    /// The moved body `target` that the forwarding stub at `oid` points at.
    fn read_moved(&self, sm: &StorageManager, oid: Oid, target: Oid) -> Result<(u16, Vec<u8>)> {
        let (thdr, tpayload) = self.read_raw(sm, target)?;
        if thdr.flags != RecordFlags::Moved {
            return Err(StorageError::Corrupt(format!(
                "forwarding stub {oid} points at non-moved record {target}"
            )));
        }
        Ok((thdr.type_tag, tpayload))
    }

    fn read_raw(&self, sm: &StorageManager, oid: Oid) -> Result<(RecordHeader, Vec<u8>)> {
        if oid.file != self.file {
            return Err(StorageError::InvalidOid(oid));
        }
        let h = sm.pool().fetch(oid.page_id())?;
        let data = h.data();
        let view = PageView::new(&data[..]);
        let (hdr, payload) = view.record(oid.slot).ok_or(StorageError::InvalidOid(oid))?;
        Ok((hdr, payload.to_vec()))
    }

    /// Replace the payload of the record at `oid`, preserving its type tag
    /// and keeping `oid` valid even if the record must move pages.
    pub fn rec_update(&self, sm: &StorageManager, oid: Oid, payload: &[u8]) -> Result<()> {
        let (hdr, old_payload) = self.read_raw(sm, oid)?;
        match hdr.flags {
            RecordFlags::Normal => {
                if self.try_update_at(sm, oid, hdr, payload)? {
                    return Ok(());
                }
                // Move: place the record elsewhere as Moved, stub here.
                let target = self.insert_flagged(sm, hdr.type_tag, RecordFlags::Moved, payload)?;
                let h = sm.pool().fetch(oid.page_id())?;
                let mut data = h.data_mut();
                PageMut::new(&mut data[..]).write_forward_stub(oid.slot, hdr.type_tag, target)?;
                drop(data);
                self.note_shrink(sm, oid.page);
                Ok(())
            }
            RecordFlags::Moved => {
                // Direct update of a moved record (internal use only).
                if self.try_update_at(sm, oid, hdr, payload)? {
                    Ok(())
                } else {
                    Err(StorageError::Corrupt(format!(
                        "moved record {oid} updated without its stub"
                    )))
                }
            }
            RecordFlags::Forward => {
                let target = Oid::from_bytes(&old_payload);
                let (thdr, _) = self.read_raw(sm, target)?;
                if self.try_update_at(sm, target, thdr, payload)? {
                    return Ok(());
                }
                // Re-forward: delete the old target, write a new one, and
                // repoint the stub so chains never exceed length one.
                self.delete_raw(sm, target)?;
                let new_target =
                    self.insert_flagged(sm, hdr.type_tag, RecordFlags::Moved, payload)?;
                let h = sm.pool().fetch(oid.page_id())?;
                let mut data = h.data_mut();
                PageMut::new(&mut data[..]).write_forward_stub(
                    oid.slot,
                    hdr.type_tag,
                    new_target,
                )?;
                Ok(())
            }
        }
    }

    fn try_update_at(
        &self,
        sm: &StorageManager,
        oid: Oid,
        hdr: RecordHeader,
        payload: &[u8],
    ) -> Result<bool> {
        let h = sm.pool().fetch(oid.page_id())?;
        let mut data = h.data_mut();
        let mut pg = PageMut::new(&mut data[..]);
        pg.update(oid.slot, hdr, payload)
    }

    /// Delete the record at `oid` (and its forwarded body, if any).
    pub fn rec_delete(&self, sm: &StorageManager, oid: Oid) -> Result<()> {
        let (hdr, payload) = self.read_raw(sm, oid)?;
        if hdr.flags == RecordFlags::Forward {
            let target = Oid::from_bytes(&payload);
            self.delete_raw(sm, target)?;
        }
        self.delete_raw(sm, oid)
    }

    fn delete_raw(&self, sm: &StorageManager, oid: Oid) -> Result<()> {
        let h = sm.pool().fetch(oid.page_id())?;
        let mut data = h.data_mut();
        PageMut::new(&mut data[..]).delete(oid.slot)?;
        drop(data);
        self.note_shrink(sm, oid.page);
        Ok(())
    }

    fn note_shrink(&self, sm: &StorageManager, page: u32) {
        sm.with_free_space(self.file, |space| {
            if !space.recycled.contains(&page) {
                space.recycled.push_back(page);
                if space.recycled.len() > 64 {
                    space.recycled.pop_front();
                }
            }
        });
    }

    /// Open a physical-order scan over the file.
    pub fn scan<'a>(&self, sm: &'a StorageManager) -> Result<HeapScan<'a>> {
        let npages = sm.page_count(self.file)?;
        Ok(HeapScan {
            sm,
            file: self.file,
            npages,
            page: 0,
            slot: 0,
        })
    }

    /// Number of live logical records (counts stubs, skips moved bodies).
    pub fn count(&self, sm: &StorageManager) -> Result<u64> {
        let mut scan = self.scan(sm)?;
        let mut n = 0;
        while scan.next_record()?.is_some() {
            n += 1;
        }
        Ok(n)
    }
}

/// Streaming physical-order scan. Yields each logical record once, at its
/// stable OID; forwarding stubs are followed (costing the extra page read a
/// real system would pay), moved bodies are skipped.
pub struct HeapScan<'a> {
    sm: &'a StorageManager,
    file: FileId,
    npages: u32,
    page: u32,
    slot: u16,
}

impl<'a> HeapScan<'a> {
    /// Advance to the next logical record: `(oid, type_tag, payload)`.
    pub fn next_record(&mut self) -> Result<Option<(Oid, u16, Vec<u8>)>> {
        loop {
            if self.page >= self.npages {
                return Ok(None);
            }
            let pid = PageId::new(self.file, self.page);
            let h = self.sm.pool().fetch(pid)?;
            let found = {
                let data = h.data();
                let view = PageView::new(&data[..]);
                let mut found = None;
                let n = view.slot_count();
                while self.slot < n {
                    let s = self.slot;
                    self.slot += 1;
                    if let Some((hdr, payload)) = view.record(s) {
                        match hdr.flags {
                            RecordFlags::Moved => continue,
                            RecordFlags::Normal => {
                                found = Some((
                                    Oid::new(self.file, self.page, s),
                                    hdr.type_tag,
                                    payload.to_vec(),
                                    false,
                                ));
                                break;
                            }
                            RecordFlags::Forward => {
                                let target = Oid::from_bytes(payload);
                                found = Some((
                                    Oid::new(self.file, self.page, s),
                                    hdr.type_tag,
                                    target.to_bytes().to_vec(),
                                    true,
                                ));
                                break;
                            }
                        }
                    }
                }
                found
            };
            match found {
                Some((oid, tag, payload, true)) => {
                    // Follow the stub.
                    let target = Oid::from_bytes(&payload);
                    let hf = HeapFile::open(self.file);
                    let (_, body) = hf.read_raw(self.sm, target).map(|(h, p)| (h.flags, p))?;
                    return Ok(Some((oid, tag, body)));
                }
                Some((oid, tag, payload, false)) => return Ok(Some((oid, tag, payload))),
                None => {
                    self.page += 1;
                    self.slot = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm() -> StorageManager {
        StorageManager::in_memory(64)
    }

    #[test]
    fn insert_read_roundtrip() {
        let sm = sm();
        let hf = HeapFile::create(&sm).unwrap();
        let a = hf.rec_insert(&sm, 1, b"alpha").unwrap();
        let b = hf.rec_insert(&sm, 2, b"bravo").unwrap();
        assert_eq!(hf.read(&sm, a).unwrap(), (1, b"alpha".to_vec()));
        assert_eq!(hf.read(&sm, b).unwrap(), (2, b"bravo".to_vec()));
    }

    #[test]
    fn inserts_fill_pages_at_cost_model_density() {
        let sm = sm();
        let hf = HeapFile::create(&sm).unwrap();
        // 100-byte payloads → 33 objects/page (O_r in the paper).
        for _ in 0..330 {
            hf.rec_insert(&sm, 1, &[0u8; 100]).unwrap();
        }
        assert_eq!(sm.page_count(hf.file).unwrap(), 10);
    }

    #[test]
    fn update_in_place_preserves_oid() {
        let sm = sm();
        let hf = HeapFile::create(&sm).unwrap();
        let oid = hf.rec_insert(&sm, 1, &[1u8; 50]).unwrap();
        hf.rec_update(&sm, oid, &[2u8; 50]).unwrap();
        assert_eq!(hf.read(&sm, oid).unwrap().1, vec![2u8; 50]);
    }

    #[test]
    fn growing_update_forwards_and_oid_stays_valid() {
        let sm = sm();
        let hf = HeapFile::create(&sm).unwrap();
        // Fill a page completely.
        let mut oids = vec![];
        for _ in 0..33 {
            oids.push(hf.rec_insert(&sm, 1, &[3u8; 100]).unwrap());
        }
        let victim = oids[0];
        // Grow it so it cannot stay on its full page.
        hf.rec_update(&sm, victim, &[4u8; 600]).unwrap();
        let (tag, body) = hf.read(&sm, victim).unwrap();
        assert_eq!(tag, 1);
        assert_eq!(body, vec![4u8; 600]);
        // Update through the stub again (fits at the forwarded location).
        hf.rec_update(&sm, victim, &[5u8; 600]).unwrap();
        assert_eq!(hf.read(&sm, victim).unwrap().1, vec![5u8; 600]);
        // And grow it further, forcing a re-forward.
        hf.rec_update(&sm, victim, &[6u8; 3000]).unwrap();
        assert_eq!(hf.read(&sm, victim).unwrap().1, vec![6u8; 3000]);
    }

    #[test]
    fn read_pinned_lends_the_record_and_follows_a_stub() {
        let sm = sm();
        let hf = HeapFile::create(&sm).unwrap();
        let oids: Vec<Oid> = (0..33u8)
            .map(|i| hf.rec_insert(&sm, 7, &[i; 100]).unwrap())
            .collect();
        hf.rec_update(&sm, oids[0], &[9u8; 600]).unwrap(); // moves: stub at oids[0]
        let page = sm.pool().fetch(oids[0].page_id()).unwrap();
        sm.reset_profile();
        let len_and_first = |tag: u16, body: &[u8]| (tag, body.len(), body[0]);
        // Under the pin a record costs no page request at all…
        let got = hf.read_pinned(&sm, &page, oids[5], len_and_first).unwrap();
        assert_eq!(got, (7, 100, 5));
        assert_eq!(sm.io_profile().pool_hits + sm.io_profile().pool_misses, 0);
        // …and a forwarded one exactly the request for its moved body.
        let got = hf.read_pinned(&sm, &page, oids[0], len_and_first).unwrap();
        assert_eq!(got, (7, 600, 9));
        assert_eq!(sm.io_profile().pool_hits + sm.io_profile().pool_misses, 1);
        // The handle must be the OID's own page, and the slot a live record.
        let other = hf.rec_insert(&sm, 7, &[1u8; 3000]).unwrap();
        assert_ne!(other.page, oids[0].page);
        assert!(matches!(
            hf.read_pinned(&sm, &page, other, len_and_first),
            Err(StorageError::InvalidOid(o)) if o == other
        ));
        hf.rec_delete(&sm, oids[5]).unwrap();
        assert!(hf.read_pinned(&sm, &page, oids[5], len_and_first).is_err());
    }

    #[test]
    fn delete_then_read_fails() {
        let sm = sm();
        let hf = HeapFile::create(&sm).unwrap();
        let oid = hf.rec_insert(&sm, 1, b"gone").unwrap();
        hf.rec_delete(&sm, oid).unwrap();
        assert!(hf.read(&sm, oid).is_err());
    }

    #[test]
    fn delete_reclaims_space_for_reuse() {
        let sm = sm();
        let hf = HeapFile::create(&sm).unwrap();
        let mut oids = vec![];
        for _ in 0..33 {
            oids.push(hf.rec_insert(&sm, 1, &[7u8; 100]).unwrap());
        }
        assert_eq!(sm.page_count(hf.file).unwrap(), 1);
        hf.rec_delete(&sm, oids[10]).unwrap();
        // The next insert should reuse page 0, not extend the file.
        let oid = hf.rec_insert(&sm, 1, &[8u8; 100]).unwrap();
        assert_eq!(oid.page, 0);
        assert_eq!(sm.page_count(hf.file).unwrap(), 1);
    }

    #[test]
    fn scan_sees_each_logical_record_once() {
        let sm = sm();
        let hf = HeapFile::create(&sm).unwrap();
        let mut expect = vec![];
        for i in 0..100u8 {
            let oid = hf.rec_insert(&sm, 1, &[i; 60]).unwrap();
            expect.push((oid, vec![i; 60]));
        }
        // Forward a few by growing them.
        for &(oid, _) in expect.iter().take(80).step_by(7) {
            hf.rec_update(&sm, oid, &[0xEE; 900]).unwrap();
        }
        let mut seen = std::collections::HashMap::new();
        let mut scan = hf.scan(&sm).unwrap();
        while let Some((oid, _tag, body)) = scan.next_record().unwrap() {
            assert!(seen.insert(oid, body).is_none(), "duplicate oid in scan");
        }
        assert_eq!(seen.len(), 100);
        for (i, (oid, orig)) in expect.iter().enumerate() {
            let want = if i < 80 && i % 7 == 0 {
                vec![0xEE; 900]
            } else {
                orig.clone()
            };
            assert_eq!(seen[oid], want, "record {i}");
        }
    }

    #[test]
    fn forwarded_delete_removes_both_records() {
        let sm = sm();
        let hf = HeapFile::create(&sm).unwrap();
        for _ in 0..33 {
            hf.rec_insert(&sm, 1, &[1u8; 100]).unwrap();
        }
        let victim = Oid::new(hf.file, 0, 0);
        hf.rec_update(&sm, victim, &[2u8; 1000]).unwrap(); // forwards
        hf.rec_delete(&sm, victim).unwrap();
        assert!(hf.read(&sm, victim).is_err());
        // Nothing in the scan refers to the moved body.
        let mut scan = hf.scan(&sm).unwrap();
        let mut n = 0;
        while scan.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 32);
    }

    #[test]
    fn count_matches_inserts() {
        let sm = sm();
        let hf = HeapFile::create(&sm).unwrap();
        for _ in 0..250 {
            hf.rec_insert(&sm, 3, &[0u8; 30]).unwrap();
        }
        assert_eq!(hf.count(&sm).unwrap(), 250);
    }
}
