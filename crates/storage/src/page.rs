//! Slotted-page layout.
//!
//! Every page is 4096 bytes:
//!
//! ```text
//! +--------------------+----------------------+........+------------------+
//! | page header (40 B) | slot array (4 B/slot)|  free  | records (grow up)|
//! +--------------------+----------------------+........+------------------+
//! 0                   40                free_start   free_end          4096
//! ```
//!
//! * 40 bytes of page header leave **B = 4056** bytes for user data, the
//!   value the paper takes from the EXODUS storage manager (Figure 10).
//! * Each record costs a 4-byte slot plus a 16-byte record header, i.e.
//!   **h = 20** bytes of per-object overhead — again the paper's value. A
//!   page therefore holds `⌊B / (h + r)⌋` objects of `r` payload bytes,
//!   exactly the `O_r` of the cost model.
//! * Slot numbers are never reused for *different* objects while a page is
//!   live and the slot array never shrinks, so physical OIDs stay stable.
//! * A record that grows grows where it lies: the records between the
//!   free hole and it slide down by the growth, and it takes their place
//!   ([`PageMut::update`]). The page is compacted first only when
//!   fragmentation, not the hole, holds the room, so growing the records
//!   of a full page one after another costs no repack.
//! * Records that must move (they outgrew their page) leave a
//!   [`RecordFlags::Forward`] stub holding the target OID; the target
//!   record is marked [`RecordFlags::Moved`] so scans do not report it
//!   twice.
//! * Every write through [`PageMut`] marks the 64-byte lines it touches
//!   ([`PageMut::written`]): a page is 64 lines, one bit each of a `u64`,
//!   and a WAL delta of the page is the lines marked since its previous
//!   log record.

use crate::error::{Result, StorageError};
use crate::oid::Oid;
use std::ops::Range;

/// Total page size in bytes.
pub const PAGE_SIZE: usize = 4096;
/// Bytes reserved for the page header.
pub const PAGE_HEADER_SIZE: usize = 40;
/// Bytes available to user data per page — the paper's `B`.
pub const USER_BYTES_PER_PAGE: usize = PAGE_SIZE - PAGE_HEADER_SIZE; // 4056
/// Bytes per slot-array entry.
pub const SLOT_SIZE: usize = 4;
/// Bytes per record header stored in front of each record payload.
pub const RECORD_HEADER_SIZE: usize = 16;
/// Per-object storage overhead — the paper's `h` (slot + record header).
pub const OBJECT_OVERHEAD: usize = SLOT_SIZE + RECORD_HEADER_SIZE; // 20
/// Largest payload a single page can store.
pub const MAX_RECORD_PAYLOAD: usize = USER_BYTES_PER_PAGE - OBJECT_OVERHEAD;
/// Bytes per line of a page's write mask (64 lines a page).
pub const LINE_SIZE: usize = 64;
/// Smallest payload allocation. Every record reserves at least 8 payload
/// bytes so that it can always be replaced *in place* by a forwarding stub
/// (whose payload is one 8-byte OID) when it outgrows its page.
pub const MIN_RECORD_PAYLOAD: usize = 8;
/// The most live records a page can hold (144): each takes a slot and
/// at least a minimum allocation.
const MAX_LIVE_RECORDS: usize =
    USER_BYTES_PER_PAGE / (RECORD_HEADER_SIZE + MIN_RECORD_PAYLOAD + SLOT_SIZE);

const MAGIC: u16 = 0xF1DB;

// Header field offsets.
const OFF_MAGIC: usize = 0;
const OFF_KIND: usize = 2;
const OFF_VERSION: usize = 3;
const OFF_SLOT_COUNT: usize = 4;
const OFF_FREE_END: usize = 6;
const OFF_FRAG: usize = 8;
const OFF_LIVE: usize = 10;
const OFF_NEXT_PAGE: usize = 12;
// 16..28 hold the durability header (LSN + CRC32, below); 28..40 stay
// reserved. All of 16..40 is invisible to the slotted-page logic, so
// `B = 4056` and the paper's cost model are unaffected.

/// Byte offset of the page LSN (u64 LE): the WAL position of the last
/// commit record covering this page image. `0` = never logged.
pub const OFF_PAGE_LSN: usize = 16;
/// Byte offset of the page CRC32 (u32 LE), computed over the whole 4096
/// bytes with these four bytes zeroed. `0` = unchecksummed (legacy page);
/// a computed CRC of 0 is stored as 1.
pub const OFF_PAGE_CRC: usize = 24;

/// What a page is used for. Stored in the header so that corruption and
/// cross-use bugs are caught early.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PageKind {
    /// Unformatted page.
    Free = 0,
    /// Heap-file data page holding object records.
    Heap = 1,
    /// B⁺-tree interior node.
    BTreeInternal = 2,
    /// B⁺-tree leaf node.
    BTreeLeaf = 3,
    /// Index/file metadata page.
    Meta = 4,
}

impl PageKind {
    fn from_u8(v: u8) -> Option<PageKind> {
        Some(match v {
            0 => PageKind::Free,
            1 => PageKind::Heap,
            2 => PageKind::BTreeInternal,
            3 => PageKind::BTreeLeaf,
            4 => PageKind::Meta,
            _ => return None,
        })
    }
}

/// Per-record flags kept in the record header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum RecordFlags {
    /// An ordinary record.
    Normal = 0,
    /// A forwarding stub: the payload is the 8-byte OID of the record's new
    /// home. Reads through the original OID follow the stub.
    Forward = 1,
    /// A record that was moved here by forwarding. Physical scans skip it
    /// (it is reported through its original OID instead).
    Moved = 2,
}

impl RecordFlags {
    fn from_u8(v: u8) -> Option<RecordFlags> {
        Some(match v {
            0 => RecordFlags::Normal,
            1 => RecordFlags::Forward,
            2 => RecordFlags::Moved,
            _ => return None,
        })
    }
}

/// The 16-byte header stored in front of every record payload.
///
/// Only four bytes are semantically live; the remaining twelve are reserved
/// (a recoverable system would keep an LSN and lock metadata there) and
/// exist so the per-object overhead equals the paper's `h = 20`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecordHeader {
    /// Type tag identifying the object's type (§2.2: "every object contains
    /// a type-tag"). Figure 10 sizes it at 2 bytes.
    pub type_tag: u16,
    /// Record state.
    pub flags: RecordFlags,
}

impl RecordHeader {
    fn write(self, buf: &mut [u8], payload_len: u16) {
        buf[..RECORD_HEADER_SIZE].fill(0);
        buf[0..2].copy_from_slice(&self.type_tag.to_le_bytes());
        buf[2] = self.flags as u8;
        buf[4..6].copy_from_slice(&payload_len.to_le_bytes());
    }

    fn read(buf: &[u8]) -> Result<(RecordHeader, u16)> {
        let type_tag = u16::from_le_bytes([buf[0], buf[1]]);
        let flags = RecordFlags::from_u8(buf[2])
            .ok_or_else(|| StorageError::Corrupt(format!("bad record flags {}", buf[2])))?;
        let payload_len = u16::from_le_bytes([buf[4], buf[5]]);
        Ok((RecordHeader { type_tag, flags }, payload_len))
    }
}

/// Bytes a record with `payload_len` payload actually occupies on the page
/// (header plus the minimum-allocation rule).
fn alloc_len(payload_len: usize) -> usize {
    RECORD_HEADER_SIZE + payload_len.max(MIN_RECORD_PAYLOAD)
}

fn get_u16(data: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([data[off], data[off + 1]])
}

fn get_u32(data: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]])
}

/// Ask the CPU to start loading the cache line `byte` lies in, without
/// waiting for it: the hint of the warm pass ([`PageView::hint_slot`],
/// [`PageView::hint_record`]). Compiles to nothing off x86-64.
#[inline]
fn hint(byte: &u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults and changes no architectural state
    // (no register, no memory, no flag), whatever the address; this one
    // is a live reference besides.
    #[allow(unsafe_code)]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(byte).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = byte;
}

/// The write-mask bits of the lines that bytes `at .. at + len` lie in.
pub(crate) fn lines_of(at: usize, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let (first, last) = (at / LINE_SIZE, (at + len - 1) / LINE_SIZE);
    (u64::MAX << first) & (u64::MAX >> (63 - last))
}

/// Read-only view of a slotted page.
#[derive(Clone, Copy)]
pub struct PageView<'a> {
    data: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Wrap a raw page buffer. The buffer must be `PAGE_SIZE` bytes.
    pub fn new(data: &'a [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        PageView { data }
    }

    /// The page's kind.
    pub fn kind(&self) -> Result<PageKind> {
        PageKind::from_u8(self.data[OFF_KIND])
            .ok_or_else(|| StorageError::Corrupt(format!("bad page kind {}", self.data[OFF_KIND])))
    }

    /// Number of slot-array entries (live + free).
    pub fn slot_count(&self) -> u16 {
        get_u16(self.data, OFF_SLOT_COUNT)
    }

    /// Number of live records on the page.
    pub fn live_records(&self) -> u16 {
        get_u16(self.data, OFF_LIVE)
    }

    /// Next-page pointer used for file chaining by some page owners
    /// (`u32::MAX` = none).
    pub fn next_page(&self) -> Option<u32> {
        let v = get_u32(self.data, OFF_NEXT_PAGE);
        (v != u32::MAX).then_some(v)
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let off = PAGE_HEADER_SIZE + SLOT_SIZE * idx as usize;
        (get_u16(self.data, off), get_u16(self.data, off + 2))
    }

    fn free_end(&self) -> u16 {
        get_u16(self.data, OFF_FREE_END)
    }

    fn frag_bytes(&self) -> u16 {
        get_u16(self.data, OFF_FRAG)
    }

    /// End of the slot array == start of the free hole.
    fn free_start(&self) -> usize {
        PAGE_HEADER_SIZE + SLOT_SIZE * self.slot_count() as usize
    }

    /// Contiguous free bytes (between the slot array and the record area).
    pub fn contiguous_free(&self) -> usize {
        self.free_end() as usize - self.free_start()
    }

    /// Total reclaimable free bytes, counting fragmentation that a
    /// compaction would recover. Does not include the cost of a new slot.
    pub fn total_free(&self) -> usize {
        self.contiguous_free() + self.frag_bytes() as usize
    }

    /// Whether a record with `payload_len` bytes can be placed on this page
    /// (possibly after compaction), accounting for slot reuse.
    pub fn can_fit(&self, payload_len: usize) -> bool {
        let record = alloc_len(payload_len);
        let slot_cost = if self.has_free_slot() { 0 } else { SLOT_SIZE };
        self.total_free() >= record + slot_cost
    }

    fn has_free_slot(&self) -> bool {
        (0..self.slot_count()).any(|i| {
            let (off, len) = self.slot(i);
            off == 0 && len == 0
        })
    }

    /// Byte range of the record in `slot` (header included); `None` if
    /// the slot is empty/deleted, out of range, or reaches past the page.
    fn extent(&self, slot: u16) -> Option<Range<usize>> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        let (off, end) = (off as usize, off as usize + len as usize);
        (off != 0 && end <= PAGE_SIZE && len as usize >= RECORD_HEADER_SIZE).then_some(off..end)
    }

    /// Header and payload byte range of the record in `slot`; `None` if
    /// the slot is empty/deleted, out of range, or malformed.
    fn locate(&self, slot: u16) -> Option<(RecordHeader, Range<usize>)> {
        let extent = self.extent(slot)?;
        let start = extent.start + RECORD_HEADER_SIZE;
        let (hdr, payload_len) = RecordHeader::read(&self.data[extent.start..start]).ok()?;
        let payload = start..start + payload_len as usize;
        (payload.end <= extent.end).then_some((hdr, payload))
    }

    /// Warm pass, first sweep: ask the CPU for the page-header line and
    /// the line of `slot`'s slot-array entry, reading neither, so the
    /// misses of many pages overlap instead of following one another.
    pub fn hint_slot(&self, slot: u16) {
        hint(&self.data[OFF_SLOT_COUNT]);
        if let Some(entry) = self.data.get(PAGE_HEADER_SIZE + SLOT_SIZE * slot as usize) {
            hint(entry);
        }
    }

    /// Warm pass, second sweep: read `slot`'s entry (which the first
    /// sweep asked for) and ask for every cache line of its record: one
    /// byte every 64 and the last byte, since a frame need not start on
    /// a cache line. A slot out of range, empty, or reaching past the
    /// page gets no hint.
    pub fn hint_record(&self, slot: u16) {
        if let Some(extent) = self.extent(slot) {
            let last = extent.end - 1;
            for at in extent.step_by(LINE_SIZE).chain([last]) {
                hint(&self.data[at]);
            }
        }
    }

    /// Fetch the record in `slot`, returning its header and payload, or
    /// `None` if the slot is empty/deleted or out of range.
    pub fn record(&self, slot: u16) -> Option<(RecordHeader, &'a [u8])> {
        let (hdr, range) = self.locate(slot)?;
        Some((hdr, &self.data[range]))
    }

    /// Iterate over the live records on the page in slot order, yielding
    /// `(slot, header, payload)`.
    pub fn records(&self) -> impl Iterator<Item = (u16, RecordHeader, &'a [u8])> + '_ {
        let n = self.slot_count();
        let view = *self;
        (0..n).filter_map(move |s| view.record(s).map(|(h, p)| (s, h, p)))
    }
}

/// Mutable access to a slotted page. Every write marks the lines it
/// touches.
pub struct PageMut<'a> {
    data: &'a mut [u8],
    written: u64,
}

impl<'a> PageMut<'a> {
    /// Wrap a raw page buffer for mutation. The buffer must be `PAGE_SIZE`
    /// bytes.
    pub fn new(data: &'a mut [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        PageMut { data, written: 0 }
    }

    /// Read-only view of the same page.
    pub fn view(&self) -> PageView<'_> {
        PageView::new(self.data)
    }

    /// The lines written through this value: bit `i` covers bytes
    /// `64·i .. 64·i + 64`. A byte outside them is as it was.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Bytes `at .. at + len`, writable, their lines marked.
    fn bytes(&mut self, at: usize, len: usize) -> &mut [u8] {
        self.written |= lines_of(at, len);
        &mut self.data[at..at + len]
    }

    fn put_u16(&mut self, off: usize, v: u16) {
        self.bytes(off, 2).copy_from_slice(&v.to_le_bytes());
    }

    /// Format the page: write the header and mark the whole record area
    /// free.
    pub fn init(&mut self, kind: PageKind) {
        self.bytes(0, PAGE_SIZE).fill(0);
        self.put_u16(OFF_MAGIC, MAGIC);
        self.data[OFF_KIND] = kind as u8;
        self.data[OFF_VERSION] = 1;
        self.put_u16(OFF_FREE_END, PAGE_SIZE as u16);
        self.set_next_page(None);
    }

    /// Set the next-page pointer (`None` clears it).
    pub fn set_next_page(&mut self, next: Option<u32>) {
        let next = next.unwrap_or(u32::MAX).to_le_bytes();
        self.bytes(OFF_NEXT_PAGE, 4).copy_from_slice(&next);
    }

    fn set_slot(&mut self, idx: u16, off: u16, len: u16) {
        let o = PAGE_HEADER_SIZE + SLOT_SIZE * idx as usize;
        self.put_u16(o, off);
        self.put_u16(o + 2, len);
    }

    /// Write a record's header and payload at `off`.
    fn put_record(&mut self, off: usize, header: RecordHeader, payload: &[u8]) {
        header.write(self.bytes(off, RECORD_HEADER_SIZE), payload.len() as u16);
        self.bytes(off + RECORD_HEADER_SIZE, payload.len())
            .copy_from_slice(payload);
    }

    /// Insert a record, returning its slot number.
    ///
    /// Fails with [`StorageError::RecordTooLarge`] if the payload can never
    /// fit a page, and returns `Ok(None)` if this particular page lacks
    /// space (the caller then tries another page).
    pub fn insert(&mut self, header: RecordHeader, payload: &[u8]) -> Result<Option<u16>> {
        if payload.len() > MAX_RECORD_PAYLOAD {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: MAX_RECORD_PAYLOAD,
            });
        }
        let v = self.view();
        if !v.can_fit(payload.len()) {
            return Ok(None);
        }
        let record_len = alloc_len(payload.len());

        // Pick a slot: reuse a free one or append.
        let slot = {
            let v = self.view();
            (0..v.slot_count()).find(|&i| {
                let (off, len) = v.slot(i);
                off == 0 && len == 0
            })
        };
        let (slot, new_slot) = match slot {
            Some(s) => (s, false),
            None => (self.view().slot_count(), true),
        };

        // Ensure contiguous room (compact if fragmentation holds the space).
        let needed = record_len + if new_slot { SLOT_SIZE } else { 0 };
        if self.view().contiguous_free() < needed {
            self.compact();
        }
        debug_assert!(self.view().contiguous_free() >= needed);

        if new_slot {
            let n = self.view().slot_count();
            self.put_u16(OFF_SLOT_COUNT, n + 1);
            self.set_slot(slot, 0, 0);
        }

        let free_end = self.view().free_end() as usize;
        let off = free_end - record_len;
        self.put_record(off, header, payload);
        self.put_u16(OFF_FREE_END, off as u16);
        self.set_slot(slot, off as u16, record_len as u16);
        let live = self.view().live_records();
        self.put_u16(OFF_LIVE, live + 1);
        Ok(Some(slot))
    }

    /// Delete the record in `slot`. The slot entry becomes free (reusable),
    /// the record bytes become fragmentation.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        let v = self.view();
        if slot >= v.slot_count() {
            return Err(StorageError::Corrupt(format!("delete of bad slot {slot}")));
        }
        let (off, len) = v.slot(slot);
        if off == 0 && len == 0 {
            return Err(StorageError::Corrupt(format!(
                "delete of already-free slot {slot}"
            )));
        }
        let frag = v.frag_bytes() + len;
        self.put_u16(OFF_FRAG, frag);
        self.set_slot(slot, 0, 0);
        let live = self.view().live_records();
        self.put_u16(OFF_LIVE, live - 1);
        Ok(())
    }

    /// Replace the record in `slot` with a new header/payload.
    ///
    /// A record that shrinks or keeps its size is rewritten where it lies;
    /// the tail it gives up becomes fragmentation. A record that grows by
    /// `g` bytes grows where it lies too: the records between the free
    /// hole and it slide `g` bytes down, and it is written `g` bytes
    /// lower. The page is compacted first only if the hole is smaller
    /// than `g`, that is, only when fragmentation holds the room.
    ///
    /// Returns `Ok(true)` on success; `Ok(false)` if the page's free bytes,
    /// fragmentation included, are fewer than `g` (the caller must forward
    /// the record elsewhere). Only offsets within the page differ from a
    /// repack: what fits, and so every forward, does not.
    pub fn update(&mut self, slot: u16, header: RecordHeader, payload: &[u8]) -> Result<bool> {
        if payload.len() > MAX_RECORD_PAYLOAD {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: MAX_RECORD_PAYLOAD,
            });
        }
        let v = self.view();
        if slot >= v.slot_count() {
            return Err(StorageError::Corrupt(format!("update of bad slot {slot}")));
        }
        let (off, len) = v.slot(slot);
        if off == 0 && len == 0 {
            return Err(StorageError::Corrupt(format!("update of free slot {slot}")));
        }
        let new_len = alloc_len(payload.len());
        if new_len <= len as usize {
            // Shrink or same size: rewrite in place, tail becomes frag.
            self.put_record(off as usize, header, payload);
            if new_len < len as usize {
                let frag = self.view().frag_bytes() + (len as usize - new_len) as u16;
                self.put_u16(OFF_FRAG, frag);
                self.set_slot(slot, off, new_len as u16);
            }
            return Ok(true);
        }
        // Growing, where the record lies.
        let grow = new_len - len as usize;
        if self.view().total_free() < grow {
            return Ok(false);
        }
        if self.view().contiguous_free() < grow {
            self.compact();
        }
        let off = self.view().slot(slot).0 as usize;
        let free_end = self.view().free_end() as usize;
        let new_off = off - grow;
        // Slide the records between the hole and this one down by `grow`:
        // one run, marked once with the slot array, as compaction does.
        if free_end < off {
            self.data.copy_within(free_end..off, free_end - grow);
            let slots = PAGE_HEADER_SIZE..self.view().free_start();
            for entry in self.data[slots.clone()].chunks_exact_mut(SLOT_SIZE) {
                let o = u16::from_le_bytes([entry[0], entry[1]]);
                if o != 0 && (o as usize) < off {
                    entry[..2].copy_from_slice(&(o - grow as u16).to_le_bytes());
                }
            }
            self.written |=
                lines_of(free_end - grow, off - free_end) | lines_of(slots.start, slots.len());
        }
        self.put_record(new_off, header, payload);
        self.put_u16(OFF_FREE_END, (free_end - grow) as u16);
        self.set_slot(slot, new_off as u16, new_len as u16);
        Ok(true)
    }

    /// Bytes `range` of the payload of the record in `slot`, writable
    /// where they lie and marked as written (`None` for an empty or
    /// out-of-range slot, or a range past the payload's end).
    pub fn payload_mut(&mut self, slot: u16, range: Range<usize>) -> Option<&mut [u8]> {
        let (_, payload) = self.view().locate(slot)?;
        if range.start > range.end || range.end > payload.len() {
            return None;
        }
        Some(self.bytes(payload.start + range.start, range.len()))
    }

    /// Slide all live records to the end of the page, eliminating
    /// fragmentation. Slot numbers (and therefore OIDs) are unchanged.
    pub fn compact(&mut self) {
        let n = self.view().slot_count();
        // Gather the live records as `offset << 16 | slot` on the stack,
        // sort them by offset descending, repack from the page end.
        let mut live = [0u32; MAX_LIVE_RECORDS];
        let mut k = 0;
        for s in 0..n {
            let (off, len) = self.view().slot(s);
            if !(off == 0 && len == 0) {
                live[k] = u32::from(off) << 16 | u32::from(s);
                k += 1;
            }
        }
        live[..k].sort_unstable_by(|a, b| b.cmp(a));
        let mut dest = PAGE_SIZE;
        let mut moved_end = 0;
        for &e in &live[..k] {
            let slot = e as u16;
            let (off, len) = self.view().slot(slot);
            let off = off as usize;
            let len = len as usize;
            dest -= len;
            // A record already in place is left alone.
            if off != dest {
                moved_end = moved_end.max(dest + len);
                self.data.copy_within(off..off + len, dest);
                let at = PAGE_HEADER_SIZE + SLOT_SIZE * slot as usize;
                self.data[at..at + 2].copy_from_slice(&(dest as u16).to_le_bytes());
            }
        }
        // Every record below the first that moved moved too: one run, marked
        // once with the slot array (marking per record cost 30 % more).
        if moved_end > 0 {
            self.written |= lines_of(dest, moved_end - dest)
                | lines_of(PAGE_HEADER_SIZE, SLOT_SIZE * n as usize);
        }
        self.put_u16(OFF_FREE_END, dest as u16);
        self.put_u16(OFF_FRAG, 0);
    }

    /// Insert a forwarding stub in `slot` pointing at `target`.
    pub fn write_forward_stub(&mut self, slot: u16, type_tag: u16, target: Oid) -> Result<()> {
        let hdr = RecordHeader {
            type_tag,
            flags: RecordFlags::Forward,
        };
        let ok = self.update(slot, hdr, &target.to_bytes())?;
        if !ok {
            // A stub payload is 8 bytes; any record we are replacing is at
            // least RECORD_HEADER_SIZE long, so this cannot happen.
            return Err(StorageError::Corrupt(
                "forward stub did not fit in place of existing record".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::FileId;
    use proptest::prelude::*;

    fn fresh() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        PageMut::new(&mut buf).init(PageKind::Heap);
        buf
    }

    fn hdr(tag: u16) -> RecordHeader {
        RecordHeader {
            type_tag: tag,
            flags: RecordFlags::Normal,
        }
    }

    #[test]
    fn objects_per_page_matches_cost_model() {
        // The paper: O_r = floor(B / (h + r)). For r = 100: 4056/120 = 33.
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        let payload = [7u8; 100];
        let mut n = 0;
        while pg.insert(hdr(1), &payload).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 33);
    }

    #[test]
    fn insert_read_roundtrip() {
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        let s0 = pg.insert(hdr(5), b"hello").unwrap().unwrap();
        let s1 = pg.insert(hdr(6), b"world!").unwrap().unwrap();
        let v = pg.view();
        let (h0, p0) = v.record(s0).unwrap();
        assert_eq!(h0.type_tag, 5);
        assert_eq!(p0, b"hello");
        let (h1, p1) = v.record(s1).unwrap();
        assert_eq!(h1.type_tag, 6);
        assert_eq!(p1, b"world!");
        assert_eq!(v.live_records(), 2);
    }

    #[test]
    fn delete_frees_slot_and_space() {
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        let s0 = pg.insert(hdr(1), &[0u8; 50]).unwrap().unwrap();
        let free_before = pg.view().total_free();
        pg.delete(s0).unwrap();
        assert!(pg.view().record(s0).is_none());
        assert_eq!(
            pg.view().total_free(),
            free_before + 50 + RECORD_HEADER_SIZE
        );
        // Slot is reused by the next insert.
        let s1 = pg.insert(hdr(2), &[1u8; 10]).unwrap().unwrap();
        assert_eq!(s1, s0);
        // Double delete is an error.
        let s2 = pg.insert(hdr(3), &[2u8; 10]).unwrap().unwrap();
        pg.delete(s2).unwrap();
        assert!(pg.delete(s2).is_err());
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        let s = pg.insert(hdr(1), &[1u8; 40]).unwrap().unwrap();
        // Same size.
        assert!(pg.update(s, hdr(1), &[2u8; 40]).unwrap());
        assert_eq!(pg.view().record(s).unwrap().1, &[2u8; 40][..]);
        // Shrink.
        assert!(pg.update(s, hdr(1), &[3u8; 10]).unwrap());
        assert_eq!(pg.view().record(s).unwrap().1, &[3u8; 10][..]);
        // Grow within page.
        assert!(pg.update(s, hdr(1), &[4u8; 200]).unwrap());
        assert_eq!(pg.view().record(s).unwrap().1, &[4u8; 200][..]);
    }

    #[test]
    fn update_grow_fails_when_page_full() {
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        // Fill the page with 100-byte records.
        let mut slots = vec![];
        while let Some(s) = pg.insert(hdr(1), &[9u8; 100]).unwrap() {
            slots.push(s);
        }
        // Growing one to 300 bytes cannot fit.
        assert!(!pg.update(slots[0], hdr(1), &[1u8; 300]).unwrap());
        // Record is untouched.
        assert_eq!(pg.view().record(slots[0]).unwrap().1, &[9u8; 100][..]);
    }

    #[test]
    fn compaction_recovers_fragmentation() {
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        let mut slots = vec![];
        while let Some(s) = pg.insert(hdr(1), &[8u8; 100]).unwrap() {
            slots.push(s);
        }
        // Delete every other record: plenty of total space, all fragmented.
        for s in slots.iter().step_by(2) {
            pg.delete(*s).unwrap();
        }
        assert!(pg.view().can_fit(500));
        let s = pg.insert(hdr(2), &[5u8; 500]).unwrap();
        assert!(s.is_some(), "insert after implicit compaction");
        // Survivors unharmed.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(pg.view().record(*s).unwrap().1, &[8u8; 100][..]);
        }
    }

    #[test]
    fn record_too_large_is_an_error() {
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        let big = vec![0u8; MAX_RECORD_PAYLOAD + 1];
        assert!(matches!(
            pg.insert(hdr(1), &big),
            Err(StorageError::RecordTooLarge { .. })
        ));
        let s = pg.insert(hdr(1), &[0u8; 4]).unwrap().unwrap();
        assert!(matches!(
            pg.update(s, hdr(1), &big),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn max_payload_record_fits_alone() {
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        let big = vec![3u8; MAX_RECORD_PAYLOAD];
        let s = pg.insert(hdr(1), &big).unwrap().unwrap();
        assert_eq!(pg.view().record(s).unwrap().1, &big[..]);
        assert!(pg.insert(hdr(1), &[0u8; 1]).unwrap().is_none());
    }

    #[test]
    fn forward_stub_roundtrip() {
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        let s = pg.insert(hdr(9), &[1u8; 64]).unwrap().unwrap();
        let target = Oid::new(FileId(3), 17, 4);
        pg.write_forward_stub(s, 9, target).unwrap();
        let (h, p) = pg.view().record(s).unwrap();
        assert_eq!(h.flags, RecordFlags::Forward);
        assert_eq!(Oid::from_bytes(p), target);
    }

    #[test]
    fn records_iterator_skips_deleted() {
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        let a = pg.insert(hdr(1), b"a").unwrap().unwrap();
        let _b = pg.insert(hdr(1), b"b").unwrap().unwrap();
        let c = pg.insert(hdr(1), b"c").unwrap().unwrap();
        pg.delete(a).unwrap();
        pg.delete(c).unwrap();
        let v = pg.view();
        let all: Vec<_> = v.records().map(|(s, _, p)| (s, p.to_vec())).collect();
        assert_eq!(all, vec![(1u16, b"b".to_vec())]);
    }

    /// The lines a write marks are the lines its bytes lie in.
    #[test]
    fn lines_of_covers_the_lines_a_byte_range_touches() {
        assert_eq!(lines_of(0, 0), 0);
        assert_eq!(lines_of(0, 1), 1);
        assert_eq!(lines_of(63, 2), 0b11);
        assert_eq!(lines_of(64, 64), 0b10);
        assert_eq!(lines_of(0, PAGE_SIZE), u64::MAX);
        assert_eq!(lines_of(PAGE_SIZE - 1, 1), 1 << 63);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `PageMut` sequences on a raw page: inserts; updates
        /// that shrink, keep the size, grow in place or through a
        /// compaction (or are refused); deletes; forward stubs; payload
        /// edits; compactions; a re-format. After each operation, every
        /// byte that differs from the page before it lies in a line the
        /// operation marked.
        #[test]
        fn every_changed_byte_lies_in_a_marked_line(
            ops in proptest::collection::vec((0..20u8, 0..64usize, 0..700usize, any::<u8>()), 1..150),
        ) {
            let mut buf = fresh();
            let mut live: Vec<u16> = Vec::new();
            for (kind, pick, n, fill) in ops {
                let before = buf.clone();
                let mut pg = PageMut::new(&mut buf);
                let slot = (!live.is_empty()).then(|| live[pick % live.len()]);
                let len = slot.map_or(0, |s| pg.view().record(s).map_or(0, |(_, p)| p.len()));
                match (kind, slot) {
                    (0..=3, _) | (_, None) => {
                        if let Some(s) = pg.insert(hdr(1), &vec![fill; n]).unwrap() {
                            live.push(s);
                        }
                    }
                    (4..=5, Some(s)) => {
                        pg.update(s, hdr(2), &vec![fill; len / 2]).unwrap();
                    }
                    (6..=7, Some(s)) => {
                        pg.update(s, hdr(2), &vec![fill; len]).unwrap();
                    }
                    (8..=10, Some(s)) => {
                        pg.update(s, hdr(2), &vec![fill; len + n]).unwrap();
                    }
                    (11..=12, Some(s)) => {
                        pg.delete(s).unwrap();
                        live.retain(|&l| l != s);
                    }
                    (13, Some(s)) => {
                        pg.write_forward_stub(s, 3, Oid::new(FileId(1), n as u32, fill.into())).unwrap();
                    }
                    (14..=16, Some(s)) => {
                        let at = n % (len + 1);
                        let edit = pg.payload_mut(s, at..(at + n % 97).min(len)).unwrap();
                        edit.fill(fill);
                    }
                    (17..=18, _) => pg.compact(),
                    _ => {
                        pg.init(PageKind::Heap);
                        live.clear();
                    }
                }
                let written = pg.written();
                for (i, (a, b)) in before.iter().zip(&buf).enumerate() {
                    prop_assert!(a == b || written >> (i / LINE_SIZE) & 1 == 1,
                        "op {kind} changed byte {i} in an unmarked line");
                }
            }
        }
    }

    /// A page as its fit rules describe it: the record in each slot,
    /// `None` for a free slot.
    type Model = Vec<Option<(RecordHeader, Vec<u8>)>>;

    /// Free bytes by the model: what the slots and the live records'
    /// allocations leave of `B`.
    fn model_free(model: &Model) -> usize {
        let used: usize = model
            .iter()
            .flatten()
            .map(|(_, p)| alloc_len(p.len()))
            .sum();
        USER_BYTES_PER_PAGE - SLOT_SIZE * model.len() - used
    }

    /// Seeded random insert / grow / shrink / delete / forward-stub steps
    /// on one page, against the model: an insert lands (in the lowest
    /// free slot) iff `can_fit` says so and the model agrees, and a record
    /// grows iff `total_free` holds the growth. After every step every
    /// live record reads back as the model holds it, `total_free` and
    /// `live_records` are the model's, and every byte that changed lies in
    /// a line of `written()`.
    #[test]
    fn every_step_follows_the_fit_rules() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(0x9A6E + seed);
            let mut buf = fresh();
            let mut model: Model = Vec::new();
            for step in 0..400u16 {
                let before = buf.clone();
                let mut pg = PageMut::new(&mut buf);
                let live: Vec<u16> = (0..model.len() as u16)
                    .filter(|&s| model[s as usize].is_some())
                    .collect();
                let pick = (!live.is_empty()).then(|| live[rng.gen_range(0..live.len())]);
                let old = pick.map_or(0, |s| model[s as usize].as_ref().map_or(0, |r| r.1.len()));
                let fill = rng.gen_range(0..256u32) as u8;
                let bytes = |n: usize| (0..n).map(|i| fill ^ i as u8).collect::<Vec<u8>>();
                let kind = rng.gen_range(0..10u32);
                let what = match (kind, pick) {
                    (0..=3, _) | (_, None) => {
                        let payload = bytes(rng.gen_range(0..240usize));
                        let free_slot = model.iter().position(Option::is_none);
                        let slot_cost = if free_slot.is_some() { 0 } else { SLOT_SIZE };
                        let fits = model_free(&model) >= alloc_len(payload.len()) + slot_cost;
                        assert_eq!(
                            pg.view().can_fit(payload.len()),
                            fits,
                            "seed {seed} step {step}"
                        );
                        let got = pg.insert(hdr(step), &payload).unwrap();
                        let want = fits.then(|| free_slot.unwrap_or(model.len()) as u16);
                        assert_eq!(got, want, "seed {seed} step {step}: insert");
                        if let Some(s) = got {
                            if s as usize == model.len() {
                                model.push(None);
                            }
                            model[s as usize] = Some((hdr(step), payload));
                        }
                        "insert"
                    }
                    (4..=6, Some(s)) => {
                        let payload =
                            bytes((old + rng.gen_range(1..300usize)).min(MAX_RECORD_PAYLOAD));
                        let grow = alloc_len(payload.len()).saturating_sub(alloc_len(old));
                        let fits = model_free(&model) >= grow;
                        let got = pg.update(s, hdr(step), &payload).unwrap();
                        assert_eq!(got, fits, "seed {seed} step {step}: grow by {grow}");
                        if fits {
                            model[s as usize] = Some((hdr(step), payload));
                        }
                        "grow"
                    }
                    (7, Some(s)) => {
                        let payload = bytes(rng.gen_range(0..old + 1));
                        assert!(pg.update(s, hdr(step), &payload).unwrap());
                        model[s as usize] = Some((hdr(step), payload));
                        "shrink"
                    }
                    (8, Some(s)) => {
                        pg.delete(s).unwrap();
                        model[s as usize] = None;
                        "delete"
                    }
                    (_, Some(s)) => {
                        let target = Oid::new(FileId(2), u32::from(step), s);
                        pg.write_forward_stub(s, step, target).unwrap();
                        let stub = RecordHeader {
                            type_tag: step,
                            flags: RecordFlags::Forward,
                        };
                        model[s as usize] = Some((stub, target.to_bytes().to_vec()));
                        "stub"
                    }
                };
                let written = pg.written();
                let v = PageView::new(&buf);
                let at = format!("seed {seed} step {step} ({what})");
                assert_eq!(v.total_free(), model_free(&model), "{at}: total_free");
                let live = model.iter().flatten().count();
                assert_eq!(v.live_records() as usize, live, "{at}: live");
                assert_eq!(v.slot_count() as usize, model.len(), "{at}: slots");
                for (s, want) in model.iter().enumerate() {
                    let got = v.record(s as u16).map(|(h, p)| (h, p.to_vec()));
                    assert_eq!(&got, want, "{at}: slot {s} reads back otherwise");
                }
                for (i, (a, b)) in before.iter().zip(&buf).enumerate() {
                    assert!(
                        a == b || written >> (i / LINE_SIZE) & 1 == 1,
                        "{at}: byte {i} changed in an unmarked line"
                    );
                }
            }
        }
    }

    #[test]
    fn next_page_pointer() {
        let mut buf = fresh();
        let mut pg = PageMut::new(&mut buf);
        assert_eq!(pg.view().next_page(), None);
        pg.set_next_page(Some(42));
        assert_eq!(pg.view().next_page(), Some(42));
        pg.set_next_page(None);
        assert_eq!(pg.view().next_page(), None);
    }
}
