//! The batched visit: the one walk every sorted-OID batch takes — a
//! join step of a read (§6.2) and a propagation fan-out (§4.1.3) alike.
//!
//! [`StorageManager::visit_sorted`] splits a physically-sorted run into
//! chunks of at most [`chunk_pages`] distinct pages, pins each chunk's
//! pages with one [`BufferPool::get_pages_batch`](crate::BufferPool::get_pages_batch)
//! call, and hands the visitor every OID's items with the handle of its
//! page. Between the pin and the first visit it runs the **warm pass**:
//! two sweeps over the chunk that ask the CPU for the lines the visits
//! will read, so the page-header, slot and record misses of a whole
//! chunk overlap instead of following one another record by record.
//! Only a chunk whose pages were all resident is warmed: a chunk that
//! went to disk spends its time there, and the pages it read were just
//! copied in.
//!
//! - Sweep one hints each record's page-header line and slot line
//!   ([`PageView::hint_slot`]), reading neither.
//! - Sweep two reads each slot and hints every line of its record
//!   ([`PageView::hint_record`]); a malformed slot gets no hint.
//!
//! The pass holds one frame read latch at a time, allocates nothing,
//! makes no pool request, and holds no latch when the visitor runs: a
//! visitor may take its page's write latch.

use crate::error::StorageError;
use crate::oid::{Oid, PageId};
use crate::page::PageView;
use crate::{HeapFile, PageHandle, PagePins, StorageManager};
use std::ops::Range;

/// Pages one chunk pins at most: half the pool, so the work a visitor
/// does under the pins (a forwarded body, link pages, replica objects)
/// always has free frames, and never more than 32.
fn chunk_pages(capacity: usize) -> usize {
    (capacity / 2).clamp(1, 32)
}

/// An item of a batch [`StorageManager::visit_sorted`] walks: it names
/// the OID it is about.
pub trait BatchItem {
    /// The OID this item is about.
    fn oid(&self) -> Oid;
}

impl BatchItem for Oid {
    fn oid(&self) -> Oid {
        *self
    }
}

/// An OID with what its visit needs, e.g. the input position a read
/// answers.
impl<T> BatchItem for (Oid, T) {
    fn oid(&self) -> Oid {
        self.0
    }
}

impl StorageManager {
    /// Visit the physically-sorted `items` page by page, every page
    /// requested once: `visit(page, oid, same)` gets each distinct OID
    /// with the run of items that name it and the pinned handle of its
    /// page, in order. The pages of a chunk are warmed (see the module
    /// docs) before its first visit, and no latch is held while `visit`
    /// runs; it may use the pool. Returns the number of distinct pages
    /// the items span.
    pub fn visit_sorted<T: BatchItem, E: From<StorageError>>(
        &self,
        items: &[T],
        mut visit: impl FnMut(&PageHandle, Oid, &[T]) -> Result<(), E>,
    ) -> Result<usize, E> {
        debug_assert!(
            items.is_sorted_by_key(T::oid),
            "visit_sorted expects physical order"
        );
        let mut pages_total = 0;
        let mut chunks = oid_page_chunks(items, chunk_pages(self.pool().capacity()));
        while let Some((range, pages)) = chunks.next_chunk() {
            pages_total += pages.len();
            let (pinned, resident) = self.pool().pin_batch(pages)?;
            let chunk = &items[range];
            if resident {
                warm(&pinned, chunk);
            }
            // Both run in page order: the handle of an OID's page is the
            // current one or a later one.
            let mut handles = pinned.iter().peekable();
            for same in chunk.chunk_by(|a, b| a.oid() == b.oid()) {
                let oid = same[0].oid();
                while handles.next_if(|h| h.pid != oid.page_id()).is_some() {}
                let page = handles.peek().ok_or(StorageError::InvalidOid(oid))?;
                visit(page, oid, same)?;
            }
        }
        Ok(pages_total)
    }

    /// Read something from each of `oids` with every page requested
    /// once, on [`StorageManager::visit_sorted`]: the distinct OIDs are
    /// visited in physical order and `visit(i, type_tag, payload)` takes
    /// what input `i` needs straight from the record's bytes in the
    /// pinned page (a forwarded record's moved body). An OID named more
    /// than once is read once and visited once per position; a `None` is
    /// not visited. `visit` runs under the frame's read latch, so it must
    /// not touch the pool.
    pub fn read_batch<E: From<StorageError>>(
        &self,
        oids: impl ExactSizeIterator<Item = Option<Oid>>,
        mut visit: impl FnMut(usize, u16, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        // (OID, position) pairs, sorted: physical order, repeats adjacent.
        // The key packs the OID's fields into one `u64` in `Ord`'s order:
        // one compare, not three fields and the position.
        let mut order: Vec<(Oid, usize)> = Vec::with_capacity(oids.len());
        order.extend(oids.enumerate().filter_map(|(i, oid)| Some((oid?, i))));
        order.sort_unstable_by_key(|&(o, _)| {
            u64::from(o.file.0) << 48 | u64::from(o.page) << 16 | u64::from(o.slot)
        });
        self.visit_sorted(&order, |page, oid, same| {
            HeapFile::open(oid.file).read_pinned(
                self,
                &PagePins::none(),
                page,
                oid,
                |tag, payload| same.iter().try_for_each(|&(_, i)| visit(i, tag, payload)),
            )?
        })?;
        Ok(())
    }
}

/// The warm pass over one pinned chunk: sweep one hints every item's
/// header and slot lines, sweep two every item's record lines. One read
/// latch at a time, dropped before the next page's.
fn warm<T: BatchItem>(pinned: &[PageHandle], chunk: &[T]) {
    let sweeps: [fn(&PageView<'_>, u16); 2] = [|v, s| v.hint_slot(s), |v, s| v.hint_record(s)];
    for hint in sweeps {
        let mut oids = chunk.iter().map(T::oid).peekable();
        for page in pinned {
            let data = page.data();
            let view = PageView::new(&data[..]);
            while let Some(oid) = oids.next_if(|o| o.page_id() == page.pid) {
                hint(&view, oid.slot);
            }
        }
    }
}

/// Split a physically-sorted run of OID-bearing items into chunks of at
/// most `max_pages` **distinct** pages each. Items sharing a page
/// always land in the same chunk; `max_pages` is clamped to at least 1.
/// All chunks share one page buffer, allocated once.
pub(crate) fn oid_page_chunks<T: BatchItem>(items: &[T], max_pages: usize) -> OidPageChunks<'_, T> {
    let max_pages = max_pages.max(1);
    OidPageChunks {
        items,
        max_pages,
        start: 0,
        pages: Vec::with_capacity(max_pages.min(items.len())),
    }
}

/// The chunks of [`oid_page_chunks`], one at a time: each borrows the
/// page buffer the next one refills.
pub(crate) struct OidPageChunks<'a, T> {
    items: &'a [T],
    max_pages: usize,
    start: usize,
    pages: Vec<PageId>,
}

impl<T: BatchItem> OidPageChunks<'_, T> {
    /// The next chunk: the range of items it covers and their distinct
    /// pages, ascending.
    pub(crate) fn next_chunk(&mut self) -> Option<(Range<usize>, &[PageId])> {
        let start = self.start;
        self.pages.clear();
        let mut end = start;
        for item in &self.items[start..] {
            let pid = item.oid().page_id();
            if self.pages.last() != Some(&pid) {
                if self.pages.len() == self.max_pages {
                    break;
                }
                self.pages.push(pid);
            }
            end += 1;
        }
        self.start = end;
        (end > start).then_some((start..end, &self.pages[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PAGE_HEADER_SIZE, PAGE_SIZE, SLOT_SIZE};
    use crate::{DiskManager, FileId, IoStats, MemDisk, Result};
    use fieldrep_obs::io as obs_io;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    /// A `MemDisk` that logs every page it reads, in order.
    struct Recording {
        disk: MemDisk,
        reads: Arc<Mutex<Vec<PageId>>>,
    }

    impl DiskManager for Recording {
        fn create_file(&mut self) -> Result<FileId> {
            self.disk.create_file()
        }
        fn drop_file(&mut self, file: FileId) -> Result<()> {
            self.disk.drop_file(file)
        }
        fn allocate_page(&mut self, file: FileId) -> Result<PageId> {
            self.disk.allocate_page(file)
        }
        fn page_count(&self, file: FileId) -> Result<u32> {
            self.disk.page_count(file)
        }
        fn read_page(&mut self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
            self.reads.lock().unwrap().push(pid);
            self.disk.read_page(pid, buf)
        }
        fn read_pages(&mut self, first: PageId, bufs: &mut [&mut [u8; PAGE_SIZE]]) -> Result<()> {
            let run = (first.page..).take(bufs.len());
            let mut reads = self.reads.lock().unwrap();
            reads.extend(run.map(|page| PageId::new(first.file, page)));
            self.disk.read_pages(first, bufs)
        }
        fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
            self.disk.write_page(pid, buf)
        }
        fn sync(&mut self) -> Result<()> {
            self.disk.sync()
        }
        fn stats(&self) -> IoStats {
            self.disk.stats()
        }
        fn reset_stats(&mut self) {
            self.disk.reset_stats();
        }
    }

    /// `n` records of about 900 bytes (four a page), record `k` starting
    /// with `k` as a little-endian `u64`.
    fn keyed_records(sm: &StorageManager, n: u64) -> (HeapFile, Vec<Oid>) {
        let w = sm.apply_section();
        let hf = HeapFile::create(sm).unwrap();
        let oids = (0..n)
            .map(|k| {
                let mut payload = vec![0u8; 900];
                payload[..8].copy_from_slice(&k.to_le_bytes());
                hf.rec_insert(&w, &PagePins::none(), 7, &payload).unwrap()
            })
            .collect();
        (hf, oids)
    }

    fn key(payload: &[u8]) -> u64 {
        u64::from_le_bytes(payload[..8].try_into().unwrap())
    }

    /// The page-request sequence a batched read must keep: inputs with
    /// repeats and `None`s over more pages than one chunk holds are
    /// answered position by position, with one request per distinct page,
    /// ascending.
    #[test]
    fn read_batch_requests_each_page_once_and_answers_in_input_order() {
        let reads = Arc::new(Mutex::new(Vec::new()));
        let disk = Recording {
            disk: MemDisk::new(),
            reads: Arc::clone(&reads),
        };
        // Four frames: a chunk holds two pages.
        let sm = StorageManager::new(Box::new(disk), 4);
        // About four records a page.
        let (_, oids) = keyed_records(&sm, 24);
        let picks = [
            None,
            Some(17),
            Some(3),
            Some(3),
            None,
            Some(22),
            Some(9),
            Some(0),
            Some(17),
            Some(5),
            Some(12),
            Some(21),
            Some(8),
            Some(1),
            None,
        ];
        let input: Vec<Option<Oid>> = picks.iter().map(|p| p.map(|k| oids[k])).collect();
        let pages: BTreeSet<PageId> = input.iter().flatten().map(Oid::page_id).collect();
        let cap = chunk_pages(sm.pool().capacity());
        assert_eq!(cap, 2);
        assert!(pages.len() > 2 * cap, "three chunks or more");

        // A cold pool: every request is a miss, and a disk read.
        sm.flush_all().unwrap();
        reads.lock().unwrap().clear();
        let before = obs_io::snapshot();
        let mut got = vec![None; input.len()];
        let mut visits = 0;
        sm.read_batch(input.iter().copied(), |i, _, payload| {
            visits += 1;
            got[i] = Some(key(payload) as usize);
            Ok::<_, StorageError>(())
        })
        .unwrap();
        let io = obs_io::snapshot() - before;

        assert_eq!(got, picks, "every position answered, in input order");
        assert_eq!(visits, 12, "a repeat is visited once per position");
        assert_eq!(
            io.pool_hits + io.pool_misses,
            pages.len() as u64,
            "one request per distinct page"
        );
        let ascending: Vec<PageId> = pages.into_iter().collect();
        assert_eq!(*reads.lock().unwrap(), ascending, "in ascending order");
    }

    /// A record forwarded off its page, read inside a chunk, is its moved
    /// body: the warm pass hints the stub and the visit follows it.
    #[test]
    fn a_forwarded_record_inside_a_chunk_reads_its_moved_body() {
        let sm = StorageManager::in_memory(16);
        let (hf, oids) = keyed_records(&sm, 12);
        let mut grown = vec![0xAB; 3000];
        grown[..8].copy_from_slice(&5u64.to_le_bytes());
        hf.rec_update(&sm.apply_section(), &PagePins::none(), oids[5], &grown)
            .unwrap();
        let mut got = vec![None; oids.len()];
        sm.read_batch(oids.iter().copied().map(Some), |i, tag, payload| {
            got[i] = Some((tag, key(payload), payload.len()));
            Ok::<_, StorageError>(())
        })
        .unwrap();
        for (k, g) in got.iter().enumerate() {
            let len = if k == 5 { 3000 } else { 900 };
            assert_eq!(*g, Some((7, k as u64, len)), "record {k}");
        }
    }

    /// A slot entry rewritten to reach past the page end, and an OID whose
    /// slot is past the slot array: the warm pass hints neither and the
    /// visit is the typed error a dead slot gets, not a panic.
    #[test]
    fn a_malformed_slot_is_a_typed_error_not_a_panic() {
        let sm = StorageManager::in_memory(16);
        let (_, oids) = keyed_records(&sm, 8);
        let victim = oids[2];
        let entry = PAGE_HEADER_SIZE + SLOT_SIZE * victim.slot as usize;
        {
            let page = sm.pool().fetch(victim.page_id()).unwrap();
            let mut data = page.data_mut();
            // Offset 4090, length 900: even the record header would end
            // past byte 4096.
            for (i, b) in [0xFA, 0x0F, 0x84, 0x03].into_iter().enumerate() {
                data[entry + i] = b;
            }
        }
        let beyond = Oid::new(victim.file, victim.page, 200);
        for bad in [victim, beyond] {
            let mut others = 0;
            let res = sm.read_batch([oids[0], bad, oids[7]].map(Some).into_iter(), |_, _, _| {
                others += 1;
                Ok::<_, StorageError>(())
            });
            assert!(
                matches!(res, Err(StorageError::InvalidOid(o)) if o == bad),
                "{bad}: {res:?}"
            );
            assert_eq!(others, 1, "the visit before the bad OID ran");
        }
    }

    /// A visitor takes its own page's write latch: the warm pass holds no
    /// latch when the visitor runs (it would deadlock here if it did).
    #[test]
    fn a_visitor_may_write_its_own_page() {
        let sm = StorageManager::in_memory(16);
        let (hf, oids) = keyed_records(&sm, 12);
        let pages = sm
            .visit_sorted(&oids, |page, oid, _| {
                page.data_mut()
                    .page(|pg| pg.payload_mut(oid.slot, 8..9).map(|b| b[0] = 1))
                    .ok_or(StorageError::InvalidOid(oid))
            })
            .unwrap();
        assert_eq!(pages, 3);
        for &oid in &oids {
            assert_eq!(hf.read(&sm, oid).unwrap().1[8], 1);
        }
    }
}
