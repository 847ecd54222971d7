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
//!
//! Every read and write of a record starts with the same private step —
//! resolve it, following a stub (`with_record`) — and a write costs what
//! it changes: [`HeapFile::rec_update`] of a payload that fits is one page
//! request, and [`HeapFile::edit_pinned`] lends the payload under a pin
//! the caller already holds and is told whether to keep it, overwrite a
//! few bytes of it where they lie, or replace it ([`RecordEdit`]).
//!
//! The operations a write makes take its [`PagePins`]: every page they
//! ask for — the record's own, a moved body's, a placement candidate's —
//! is asked of the set, so a page the operation already holds costs no
//! request. [`HeapFile::read`], the readers' door, keeps no pin.

use crate::error::{Result, StorageError};
use crate::oid::{FileId, Oid, PageId};
use crate::page::{PageKind, PageView, RecordFlags, RecordHeader};
use crate::{ApplySection, PageHandle, PagePins, StorageManager};
use std::borrow::Borrow;
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

/// What the closure of [`HeapFile::edit_pinned`] wants done to the record
/// whose payload it was shown.
#[derive(Debug, PartialEq, Eq)]
pub enum RecordEdit<'a> {
    /// Nothing: the record already reads as wanted. Its page is not
    /// latched for writing, so it stays clean and unlogged.
    Keep,
    /// Copy `bytes` over the payload from byte offset `at`; the payload
    /// keeps its length.
    Overwrite {
        /// Byte offset into the payload.
        at: usize,
        /// The bytes to write there.
        bytes: &'a [u8],
    },
    /// Store this payload instead, as [`HeapFile::rec_update`] would.
    Replace(Vec<u8>),
}

/// A handle to a heap file. Carries no state beyond the file id; all
/// operations go through the [`StorageManager`], and those that write
/// through an [`ApplySection`] of it.
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

    /// Insert a record, returning its stable OID. The placement
    /// candidates are asked of `pins`, and a page the file grows by is
    /// kept there.
    pub fn rec_insert(
        &self,
        w: &ApplySection<'_>,
        pins: &PagePins,
        type_tag: u16,
        payload: &[u8],
    ) -> Result<Oid> {
        self.insert_flagged(w, pins, type_tag, RecordFlags::Normal, payload)
    }

    fn insert_flagged(
        &self,
        sm: &StorageManager,
        pins: &PagePins,
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
            let placed = pins
                .fetch(sm.pool(), pid)?
                .data_mut()
                .page(|pg| pg.insert(header, payload))?;
            if let Some(slot) = placed {
                self.after_placement(sm, page_no);
                return Ok(Oid::new(self.file, page_no, slot));
            }
        }

        // 3. Extend the file.
        let (pid, h) = sm.pool().new_page(self.file)?;
        pins.keep(&h);
        let slot = h
            .data_mut()
            .page(|pg| {
                pg.init(PageKind::Heap);
                pg.insert(header, payload)
            })?
            .expect("fresh page always fits a legal record");
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
    /// Returns the record's type tag and payload. A reader's door: it
    /// keeps no pin.
    pub fn read(&self, sm: &StorageManager, oid: Oid) -> Result<(u16, Vec<u8>)> {
        self.view(sm, &PagePins::none(), oid, |tag, payload| {
            (tag, payload.to_vec())
        })
    }

    /// Lend `f` the type tag and payload of the record at `oid` under the
    /// read latch, its pages asked of `pins`. `f` must not call back into
    /// the pool.
    pub fn view<R>(
        &self,
        sm: &StorageManager,
        pins: &PagePins,
        oid: Oid,
        f: impl FnOnce(u16, &[u8]) -> R,
    ) -> Result<R> {
        let page = self.home_page(sm, pins, oid)?;
        self.read_pinned(sm, pins, page, oid, f)
    }

    /// Read the record at `oid` from `page`, a handle the caller already
    /// holds on `oid`'s page (a batch pin): the payload is lent to `f`
    /// under the frame's read latch instead of the page being requested
    /// again and the payload copied out. `f` must not call back into the
    /// pool. A forwarding stub is followed with one request for the moved
    /// body's page, after the stub's latch is released — and, when `page`
    /// was passed by value (fetched for this call only), after its pin is.
    /// That request is asked of `pins`.
    pub fn read_pinned<R>(
        &self,
        sm: &StorageManager,
        pins: &PagePins,
        page: impl Borrow<PageHandle>,
        oid: Oid,
        f: impl FnOnce(u16, &[u8]) -> R,
    ) -> Result<R> {
        self.with_record(sm, pins, page, oid, |_, _, hdr, payload| {
            f(hdr.type_tag, payload)
        })
    }

    /// Ask `pins` for `oid`'s own page (where its record or its stub is).
    fn home_page(&self, sm: &StorageManager, pins: &PagePins, oid: Oid) -> Result<PageHandle> {
        if oid.file != self.file {
            return Err(StorageError::InvalidOid(oid));
        }
        pins.fetch(sm.pool(), oid.page_id())
    }

    /// Resolve the record `oid` names, following a forwarding stub — the
    /// one step every read and write of a record starts with. `page` is a
    /// handle on `oid`'s own page; `f` is lent, under the read latch of
    /// the page the body is on, that page's handle, the OID the body is
    /// stored under (`oid` itself unless forwarded), its header and its
    /// payload. The moved body's page is asked of `pins` with no latch
    /// held and with an owned `page` let go, so only a pin the caller or
    /// the set keeps is held across that request.
    fn with_record<R>(
        &self,
        sm: &StorageManager,
        pins: &PagePins,
        page: impl Borrow<PageHandle>,
        oid: Oid,
        f: impl FnOnce(&PageHandle, Oid, RecordHeader, &[u8]) -> R,
    ) -> Result<R> {
        let target = {
            let home = page.borrow();
            if oid.file != self.file || home.pid != oid.page_id() {
                return Err(StorageError::InvalidOid(oid));
            }
            let data = home.data();
            let (hdr, payload) = PageView::new(&data[..])
                .record(oid.slot)
                .ok_or(StorageError::InvalidOid(oid))?;
            if hdr.flags != RecordFlags::Forward {
                return Ok(f(home, oid, hdr, payload));
            }
            Oid::from_bytes(payload)
        };
        drop(page);
        let moved = pins.fetch(sm.pool(), target.page_id())?;
        let data = moved.data();
        match PageView::new(&data[..]).record(target.slot) {
            Some((hdr, payload)) if hdr.flags == RecordFlags::Moved => {
                Ok(f(&moved, target, hdr, payload))
            }
            _ => Err(StorageError::Corrupt(format!(
                "forwarding stub {oid} points at non-moved record {target}"
            ))),
        }
    }

    /// Replace the payload of the record at `oid`, preserving its type tag
    /// and keeping `oid` valid even if the record must move pages. A
    /// payload that fits where the record is costs the one page request,
    /// none if `pins` holds the page.
    pub fn rec_update(
        &self,
        w: &ApplySection<'_>,
        pins: &PagePins,
        oid: Oid,
        payload: &[u8],
    ) -> Result<()> {
        let page = self.home_page(w, pins, oid)?;
        let body = self.with_record(w, pins, page, oid, |body, at, hdr, _| {
            (body.clone(), at, hdr)
        })?;
        self.write_resolved(w, pins, oid, body, payload)
    }

    /// Edit the record at `oid` where it lies. `page` is a handle on
    /// `oid`'s page, held or passed by value as for
    /// [`HeapFile::read_pinned`]; `f` is lent the type tag and payload
    /// under the read latch (it must not call back into the pool) and
    /// answers with a [`RecordEdit`]. The write latch is taken only for a
    /// change, and for an overwrite only across the copy, on the handle
    /// already held — a forwarded body costs the one request for its
    /// page, asked of `pins`. Returns whether the record changed.
    /// Whoever serialises writers of `oid` (its write lock, the apply
    /// section) must cover the call: the record is resolved again under
    /// the write latch, its bytes are not compared again.
    pub fn edit_pinned<'e, E: From<StorageError>>(
        &self,
        w: &ApplySection<'_>,
        pins: &PagePins,
        page: impl Borrow<PageHandle>,
        oid: Oid,
        f: impl FnOnce(u16, &[u8]) -> std::result::Result<RecordEdit<'e>, E>,
    ) -> std::result::Result<bool, E> {
        let (edit, body, at, hdr) =
            self.with_record(w, pins, page, oid, |body, at, hdr, payload| {
                (f(hdr.type_tag, payload), body.clone(), at, hdr)
            })?;
        match edit? {
            RecordEdit::Keep => return Ok(false),
            RecordEdit::Overwrite { at: k, bytes } => {
                let range = k..k + bytes.len();
                body.data_mut()
                    .page(|pg| {
                        pg.payload_mut(at.slot, range)
                            .map(|p| p.copy_from_slice(bytes))
                    })
                    .ok_or(StorageError::InvalidOid(oid))?;
            }
            RecordEdit::Replace(payload) => {
                self.write_resolved(w, pins, oid, (body, at, hdr), &payload)?;
            }
        }
        Ok(true)
    }

    /// Store `payload` as the record `oid` names, which
    /// [`HeapFile::with_record`] resolved to the record `at` with header
    /// `hdr` on `body`.
    fn write_resolved(
        &self,
        sm: &StorageManager,
        pins: &PagePins,
        oid: Oid,
        (body, at, hdr): (PageHandle, Oid, RecordHeader),
        payload: &[u8],
    ) -> Result<()> {
        if body
            .data_mut()
            .page(|pg| pg.update(at.slot, hdr, payload))?
        {
            return Ok(());
        }
        drop(body);
        match hdr.flags {
            // Direct update of a moved record (internal use only).
            RecordFlags::Moved if at == oid => {
                return Err(StorageError::Corrupt(format!(
                    "moved record {oid} updated without its stub"
                )))
            }
            // Re-forward: delete the old body, write a new one, and
            // repoint the stub so chains never exceed length one.
            RecordFlags::Moved => self.delete_raw(sm, pins, at)?,
            _ => {}
        }
        // Move: place the record elsewhere as Moved, stub here.
        let target = self.insert_flagged(sm, pins, hdr.type_tag, RecordFlags::Moved, payload)?;
        let home = pins.fetch(sm.pool(), oid.page_id())?;
        home.data_mut()
            .page(|pg| pg.write_forward_stub(oid.slot, hdr.type_tag, target))?;
        if at == oid {
            self.note_shrink(sm, oid.page);
        }
        Ok(())
    }

    /// Delete the record at `oid` (and its forwarded body, if any).
    pub fn rec_delete(&self, w: &ApplySection<'_>, pins: &PagePins, oid: Oid) -> Result<()> {
        let page = self.home_page(w, pins, oid)?;
        let at = self.with_record(w, pins, page, oid, |_, at, _, _| at)?;
        if at != oid {
            self.delete_raw(w, pins, at)?;
        }
        self.delete_raw(w, pins, oid)
    }

    fn delete_raw(&self, sm: &StorageManager, pins: &PagePins, oid: Oid) -> Result<()> {
        let h = pins.fetch(sm.pool(), oid.page_id())?;
        h.data_mut().page(|pg| pg.delete(oid.slot))?;
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
                    let (_, body) = HeapFile::open(self.file).read(self.sm, target)?;
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
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let a = hf.rec_insert(&w, &PagePins::none(), 1, b"alpha").unwrap();
        let b = hf.rec_insert(&w, &PagePins::none(), 2, b"bravo").unwrap();
        assert_eq!(hf.read(&sm, a).unwrap(), (1, b"alpha".to_vec()));
        assert_eq!(hf.read(&sm, b).unwrap(), (2, b"bravo".to_vec()));
    }

    #[test]
    fn inserts_fill_pages_at_cost_model_density() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        // 100-byte payloads → 33 objects/page (O_r in the paper).
        for _ in 0..330 {
            hf.rec_insert(&w, &PagePins::none(), 1, &[0u8; 100])
                .unwrap();
        }
        assert_eq!(sm.page_count(hf.file).unwrap(), 10);
    }

    #[test]
    fn update_in_place_preserves_oid() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let oid = hf.rec_insert(&w, &PagePins::none(), 1, &[1u8; 50]).unwrap();
        hf.rec_update(&w, &PagePins::none(), oid, &[2u8; 50])
            .unwrap();
        assert_eq!(hf.read(&sm, oid).unwrap().1, vec![2u8; 50]);
    }

    #[test]
    fn growing_update_forwards_and_oid_stays_valid() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        // Fill a page completely.
        let mut oids = vec![];
        for _ in 0..33 {
            oids.push(
                hf.rec_insert(&w, &PagePins::none(), 1, &[3u8; 100])
                    .unwrap(),
            );
        }
        let victim = oids[0];
        // Grow it so it cannot stay on its full page.
        hf.rec_update(&w, &PagePins::none(), victim, &[4u8; 600])
            .unwrap();
        let (tag, body) = hf.read(&sm, victim).unwrap();
        assert_eq!(tag, 1);
        assert_eq!(body, vec![4u8; 600]);
        // Update through the stub again (fits at the forwarded location).
        hf.rec_update(&w, &PagePins::none(), victim, &[5u8; 600])
            .unwrap();
        assert_eq!(hf.read(&sm, victim).unwrap().1, vec![5u8; 600]);
        // And grow it further, forcing a re-forward.
        hf.rec_update(&w, &PagePins::none(), victim, &[6u8; 3000])
            .unwrap();
        assert_eq!(hf.read(&sm, victim).unwrap().1, vec![6u8; 3000]);
    }

    #[test]
    fn read_pinned_lends_the_record_and_follows_a_stub() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let oids: Vec<Oid> = (0..33u8)
            .map(|i| hf.rec_insert(&w, &PagePins::none(), 7, &[i; 100]).unwrap())
            .collect();
        hf.rec_update(&w, &PagePins::none(), oids[0], &[9u8; 600])
            .unwrap(); // moves: stub at oids[0]
        let page = sm.pool().fetch(oids[0].page_id()).unwrap();
        sm.reset_profile();
        let len_and_first = |tag: u16, body: &[u8]| (tag, body.len(), body[0]);
        // Under the pin a record costs no page request at all…
        let got = hf
            .read_pinned(&sm, &PagePins::none(), &page, oids[5], len_and_first)
            .unwrap();
        assert_eq!(got, (7, 100, 5));
        assert_eq!(sm.io_profile().pool_hits + sm.io_profile().pool_misses, 0);
        // …and a forwarded one exactly the request for its moved body.
        let got = hf
            .read_pinned(&sm, &PagePins::none(), &page, oids[0], len_and_first)
            .unwrap();
        assert_eq!(got, (7, 600, 9));
        assert_eq!(sm.io_profile().pool_hits + sm.io_profile().pool_misses, 1);
        // The handle must be the OID's own page, and the slot a live record.
        let other = hf
            .rec_insert(&w, &PagePins::none(), 7, &[1u8; 3000])
            .unwrap();
        assert_ne!(other.page, oids[0].page);
        assert!(matches!(
            hf.read_pinned(&sm, &PagePins::none(), &page, other, len_and_first),
            Err(StorageError::InvalidOid(o)) if o == other
        ));
        hf.rec_delete(&w, &PagePins::none(), oids[5]).unwrap();
        assert!(hf
            .read_pinned(&sm, &PagePins::none(), &page, oids[5], len_and_first)
            .is_err());
    }

    #[test]
    fn delete_then_read_fails() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let oid = hf.rec_insert(&w, &PagePins::none(), 1, b"gone").unwrap();
        hf.rec_delete(&w, &PagePins::none(), oid).unwrap();
        assert!(hf.read(&sm, oid).is_err());
    }

    #[test]
    fn delete_reclaims_space_for_reuse() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let mut oids = vec![];
        for _ in 0..33 {
            oids.push(
                hf.rec_insert(&w, &PagePins::none(), 1, &[7u8; 100])
                    .unwrap(),
            );
        }
        assert_eq!(sm.page_count(hf.file).unwrap(), 1);
        hf.rec_delete(&w, &PagePins::none(), oids[10]).unwrap();
        // The next insert should reuse page 0, not extend the file.
        let oid = hf
            .rec_insert(&w, &PagePins::none(), 1, &[8u8; 100])
            .unwrap();
        assert_eq!(oid.page, 0);
        assert_eq!(sm.page_count(hf.file).unwrap(), 1);
    }

    #[test]
    fn scan_sees_each_logical_record_once() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let mut expect = vec![];
        for i in 0..100u8 {
            let oid = hf.rec_insert(&w, &PagePins::none(), 1, &[i; 60]).unwrap();
            expect.push((oid, vec![i; 60]));
        }
        // Forward a few by growing them.
        for &(oid, _) in expect.iter().take(80).step_by(7) {
            hf.rec_update(&w, &PagePins::none(), oid, &[0xEE; 900])
                .unwrap();
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
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        for _ in 0..33 {
            hf.rec_insert(&w, &PagePins::none(), 1, &[1u8; 100])
                .unwrap();
        }
        let victim = Oid::new(hf.file, 0, 0);
        hf.rec_update(&w, &PagePins::none(), victim, &[2u8; 1000])
            .unwrap(); // forwards
        hf.rec_delete(&w, &PagePins::none(), victim).unwrap();
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
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        for _ in 0..250 {
            hf.rec_insert(&w, &PagePins::none(), 3, &[0u8; 30]).unwrap();
        }
        assert_eq!(hf.count(&sm).unwrap(), 250);
    }

    /// Pool requests since the last `reset_profile`.
    fn requests(sm: &StorageManager) -> u64 {
        sm.io_profile().pool_hits + sm.io_profile().pool_misses
    }

    /// A full page of 33 records, the first of them forwarded to a second
    /// page: `(oids, pin on the full page)`.
    fn page_with_a_forwarded_record(w: &ApplySection<'_>, hf: &HeapFile) -> (Vec<Oid>, PageHandle) {
        let oids: Vec<Oid> = (0..33u8)
            .map(|i| hf.rec_insert(w, &PagePins::none(), 7, &[i; 100]).unwrap())
            .collect();
        hf.rec_update(w, &PagePins::none(), oids[0], &[9u8; 600])
            .unwrap(); // moves: stub at oids[0]
        let page = w.pool().fetch(oids[0].page_id()).unwrap();
        (oids, page)
    }

    type Edit<'a> = std::result::Result<RecordEdit<'a>, StorageError>;

    #[test]
    fn a_fitting_rec_update_makes_one_pool_request() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let oid = hf.rec_insert(&w, &PagePins::none(), 1, &[1u8; 50]).unwrap();
        sm.reset_profile();
        hf.rec_update(&w, &PagePins::none(), oid, &[2u8; 50])
            .unwrap();
        assert_eq!(requests(&sm), 1);
        hf.rec_update(&w, &PagePins::none(), oid, &[3u8; 80])
            .unwrap(); // grows, still fits
        assert_eq!(requests(&sm), 2);
        assert_eq!(hf.read(&sm, oid).unwrap().1, vec![3u8; 80]);
    }

    #[test]
    fn edit_pinned_overwrites_where_the_record_lies() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let (oids, page) = page_with_a_forwarded_record(&w, &hf);
        sm.reset_profile();
        // A normal record: lent under the pin, patched under the pin.
        let changed = hf
            .edit_pinned(
                &w,
                &PagePins::none(),
                &page,
                oids[5],
                |tag, body| -> Edit<'_> {
                    assert_eq!((tag, body), (7, &[5u8; 100][..]));
                    Ok(RecordEdit::Overwrite {
                        at: 10,
                        bytes: b"patch",
                    })
                },
            )
            .unwrap();
        assert!(changed);
        assert_eq!(requests(&sm), 0);
        let mut want = vec![5u8; 100];
        want[10..15].copy_from_slice(b"patch");
        assert_eq!(hf.read(&sm, oids[5]).unwrap(), (7, want));
        // A forwarded one: the closure sees the moved body, the patch
        // lands on the body's page, for the one request that finds it.
        sm.reset_profile();
        let changed = hf
            .edit_pinned(
                &w,
                &PagePins::none(),
                &page,
                oids[0],
                |tag, body| -> Edit<'_> {
                    assert_eq!((tag, body), (7, &[9u8; 600][..]));
                    Ok(RecordEdit::Overwrite {
                        at: 595,
                        bytes: b"patch",
                    })
                },
            )
            .unwrap();
        assert!(changed);
        assert_eq!(requests(&sm), 1);
        let mut want = vec![9u8; 600];
        want[595..].copy_from_slice(b"patch");
        assert_eq!(hf.read(&sm, oids[0]).unwrap(), (7, want));
        // Its neighbours were not touched.
        assert_eq!(hf.read(&sm, oids[1]).unwrap().1, vec![1u8; 100]);
        // An overwrite past the payload's end is refused, not clipped.
        let past_end = hf.edit_pinned(&w, &PagePins::none(), &page, oids[5], |_, _| -> Edit<'_> {
            Ok(RecordEdit::Overwrite {
                at: 98,
                bytes: b"patch",
            })
        });
        assert!(matches!(past_end, Err(StorageError::InvalidOid(o)) if o == oids[5]));
    }

    #[test]
    fn edit_pinned_replace_forwards_and_re_forwards() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let (oids, page) = page_with_a_forwarded_record(&w, &hf);
        let replace = |oid: Oid, payload: Vec<u8>| {
            hf.edit_pinned(&w, &PagePins::none(), &page, oid, |_, _| -> Edit<'_> {
                Ok(RecordEdit::Replace(payload))
            })
            .unwrap()
        };
        // Outgrows its (full) page: a stub is left, the OID stays good.
        assert!(replace(oids[3], vec![4u8; 700]));
        assert_eq!(hf.read(&sm, oids[3]).unwrap(), (7, vec![4u8; 700]));
        // A moved body that still fits is rewritten where it is…
        assert!(replace(oids[0], vec![6u8; 650]));
        assert_eq!(hf.read(&sm, oids[0]).unwrap(), (7, vec![6u8; 650]));
        // …and one that outgrows the page it moved to is re-forwarded.
        assert!(replace(oids[0], vec![8u8; 3500]));
        assert_eq!(hf.read(&sm, oids[0]).unwrap(), (7, vec![8u8; 3500]));
        assert_eq!(hf.count(&sm).unwrap(), 33, "chains never exceed one hop");
        // A shrinking replace stays in place.
        assert!(replace(oids[7], vec![1u8; 10]));
        assert_eq!(hf.read(&sm, oids[7]).unwrap(), (7, vec![1u8; 10]));
    }

    #[test]
    fn edit_pinned_wants_the_oids_own_page_and_passes_errors_through() {
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let other_file = HeapFile::create(&sm).unwrap();
        let (oids, page) = page_with_a_forwarded_record(&w, &hf);
        let keep = |_: u16, _: &[u8]| -> Edit<'_> { Ok(RecordEdit::Keep) };
        // Wrong page: a record of the same file that lives elsewhere.
        let elsewhere = hf
            .rec_insert(&w, &PagePins::none(), 7, &[1u8; 3000])
            .unwrap();
        assert_ne!(elsewhere.page, oids[0].page);
        assert!(matches!(
            hf.edit_pinned(&w, &PagePins::none(), &page, elsewhere, keep),
            Err(StorageError::InvalidOid(o)) if o == elsewhere
        ));
        // Wrong file: the handle's page number matches, its file does not.
        let foreign = other_file
            .rec_insert(&w, &PagePins::none(), 7, b"foreign")
            .unwrap();
        assert_eq!(foreign.page, oids[0].page);
        assert!(matches!(
            hf.edit_pinned(&w, &PagePins::none(), &page, foreign, keep),
            Err(StorageError::InvalidOid(o)) if o == foreign
        ));
        assert!(matches!(
            other_file.edit_pinned(&w, &PagePins::none(), &page, foreign, keep),
            Err(StorageError::InvalidOid(_))
        ));
        // A dead slot, and the closure's own error.
        hf.rec_delete(&w, &PagePins::none(), oids[5]).unwrap();
        assert!(hf
            .edit_pinned(&w, &PagePins::none(), &page, oids[5], keep)
            .is_err());
        let refused = hf.edit_pinned(&w, &PagePins::none(), &page, oids[6], |_, _| -> Edit<'_> {
            Err(StorageError::Corrupt("refused".into()))
        });
        assert!(matches!(refused, Err(StorageError::Corrupt(m)) if m == "refused"));
    }

    #[test]
    fn a_kept_record_is_neither_dirtied_nor_logged() {
        let sm = StorageManager::new_with_wal(
            Box::new(crate::MemDisk::new()),
            Box::new(crate::MemWalStore::new()),
            16,
        )
        .unwrap();
        let hf = HeapFile::create(&sm).unwrap();
        let (oids, _) = page_with_a_forwarded_record(&sm.apply_section(), &hf);
        sm.checkpoint().unwrap(); // every page clean and logged
        let page = sm.pool().fetch(oids[0].page_id()).unwrap();
        let moved = {
            let data = page.data();
            let stub = PageView::new(&data[..]).record(oids[0].slot).unwrap().1;
            sm.pool().fetch(Oid::from_bytes(stub).page_id()).unwrap()
        };
        let appends = sm.wal_stats().appends;
        for oid in [oids[0], oids[5]] {
            let changed = hf
                .edit_pinned(
                    &sm.apply_section(),
                    &PagePins::none(),
                    &page,
                    oid,
                    |_, _| -> Edit<'_> { Ok(RecordEdit::Keep) },
                )
                .unwrap();
            assert!(!changed);
        }
        assert!(!page.is_dirty() && !moved.is_dirty());
        assert_eq!(sm.pool().log_txn_commit().unwrap(), None, "nothing to log");
        assert_eq!(sm.wal_stats().appends, appends);
        // The same walk with a change dirties exactly the body's page.
        hf.edit_pinned(
            &sm.apply_section(),
            &PagePins::none(),
            &page,
            oids[0],
            |_, _| -> Edit<'_> { Ok(RecordEdit::Overwrite { at: 0, bytes: b"x" }) },
        )
        .unwrap();
        assert!(!page.is_dirty() && moved.is_dirty());
        assert!(sm.pool().log_txn_commit().unwrap().is_some());
        assert!(sm.wal_stats().appends > appends);
    }

    /// Beside `buffer`'s `out_of_order_frame_acquire_is_caught_in_debug`:
    /// the checker that trips there stays silent across a whole edit,
    /// the forwarded and the moving cases included, and a probe of the
    /// pool's rank shows no frame write latch is held while the closure
    /// looks at the record or after the edit returns — the latch covers
    /// the copy only.
    #[test]
    #[cfg(debug_assertions)]
    fn edit_pinned_runs_clean_under_the_lock_order_checker() {
        use crate::lockorder;
        let probe = || drop(lockorder::acquired(lockorder::POOL_CORE, false, "PoolCore"));
        let sm = sm();
        let w = sm.apply_section();
        let hf = HeapFile::create(&sm).unwrap();
        let (oids, page) = page_with_a_forwarded_record(&w, &hf);
        let edits: [fn() -> RecordEdit<'static>; 4] = [
            || RecordEdit::Keep,
            || RecordEdit::Overwrite {
                at: 3,
                bytes: b"patch",
            },
            || RecordEdit::Replace(vec![2u8; 40]),
            || RecordEdit::Replace(vec![3u8; 3000]),
        ];
        for oid in [oids[0], oids[9]] {
            for edit in edits {
                hf.edit_pinned(&w, &PagePins::none(), &page, oid, |_, _| -> Edit<'_> {
                    probe();
                    Ok(edit())
                })
                .unwrap();
                probe();
            }
            assert_eq!(hf.read(&sm, oid).unwrap(), (7, vec![3u8; 3000]));
        }
    }
}
