//! Redo-only crash recovery.
//!
//! [`recover`] runs before the buffer pool exists, directly against the
//! disk manager and the raw log store:
//!
//! 1. scan the log, keeping the longest valid prefix (the torn tail a
//!    crash left mid-append is discarded — it can only contain records
//!    of transactions whose `Commit` never became durable);
//! 2. collect the set of committed transaction ids;
//! 3. rebuild every page a committed transaction logged, in memory and
//!    in log order, starting at its last committed `PageImage`: the
//!    records before that image are history it already holds, and the
//!    disk copy they would patch may be one that a write-back tore after
//!    logging the image. A page the epoch never imaged starts from its
//!    disk copy, whose CRC must verify; that copy holds every change the
//!    previous epoch logged (a checkpoint flushes before it truncates),
//!    and no write-back has touched it since, because the first one in
//!    an epoch logs an image first. Each `PageDelta` patches the page;
//! 4. log the pages rebuilt on their disk copies as one committed group
//!    of images and sync it, so that a crash tearing the writes below
//!    leaves a second run an image to start from;
//! 5. write each rebuilt page **once**, stamped with the LSN of its
//!    last record (recreating files and extending them as needed — a
//!    crash can lose file metadata that was never synced), and sync the
//!    data files;
//! 6. replace the log with a durable `Checkpoint` marker one LSN above
//!    everything seen, so the next epoch's LSNs stay above every LSN
//!    stamped in a page header.
//!
//! Replay is unconditional — page-header LSNs are not consulted; the
//! log's committed records simply win. It is idempotent: images are
//! whole pages and deltas are absolute byte ranges, applied in LSN
//! order, so running recovery twice (or crashing *during* recovery)
//! converges to the same state.

use super::record::{self, scan, WalRecord};
use super::store::WalStore;
use crate::checksum;
use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::oid::{FileId, PageId};
use crate::page::PAGE_SIZE;
use fieldrep_obs::{metrics, names as obs_names};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;

/// What [`recover`] found and did.
#[derive(Clone, Copy, Default, Debug)]
pub struct RecoveryReport {
    /// Valid records scanned from the log.
    pub scanned_records: usize,
    /// Torn-tail bytes discarded.
    pub truncated_bytes: u64,
    /// Committed transactions replayed.
    pub committed_txns: usize,
    /// Pages rebuilt from the log and written back to the data files.
    pub replayed_pages: u64,
    /// LSN of the `Checkpoint` marker recovery left in the log, one
    /// above everything in the valid prefix (the next WAL epoch starts
    /// above this).
    pub last_lsn: u64,
}

/// Make sure `file` exists on `disk`, creating intermediate files if the
/// crash lost unsynced file metadata. File ids are sequential, so we
/// create until the target id appears.
fn ensure_file(disk: &mut dyn DiskManager, file: FileId) -> Result<()> {
    loop {
        match disk.page_count(file) {
            Ok(_) => return Ok(()),
            Err(StorageError::FileNotFound(_)) => {
                let created = disk.create_file()?;
                if created.0 > file.0 {
                    // The id space already moved past the target: the
                    // file was dropped after being logged. Nothing sound
                    // can be replayed into it.
                    return Err(StorageError::Corrupt(format!(
                        "recovery cannot recreate dropped file {file}"
                    )));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// The on-disk page a delta without a preceding image patches.
fn read_base(disk: &mut dyn DiskManager, page: PageId) -> Result<Box<[u8; PAGE_SIZE]>> {
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    match disk.page_count(page.file) {
        Ok(n) if page.page < n => disk.read_page(page, &mut buf)?,
        _ => {
            return Err(StorageError::Corrupt(format!(
                "recovery found a delta for {page:?} with no image in the log and no page on disk"
            )))
        }
    }
    if !checksum::verify(&buf) {
        return Err(StorageError::ChecksumMismatch(page));
    }
    Ok(buf)
}

/// Scan `store`, replay committed transactions onto `disk`, sync, and
/// start a new log epoch. See the module docs for the protocol.
pub fn recover(disk: &mut dyn DiskManager, store: &mut dyn WalStore) -> Result<RecoveryReport> {
    let bytes = store.wal_read_all()?;
    let scanned = scan(&bytes);
    let mut report = RecoveryReport {
        scanned_records: scanned.entries.len(),
        truncated_bytes: bytes.len() as u64 - scanned.valid_len,
        ..RecoveryReport::default()
    };
    let mut seen_lsn = scanned.entries.last().map(|e| e.lsn).unwrap_or(0);

    let committed: BTreeSet<u64> = scanned
        .entries
        .iter()
        .filter_map(|e| match e.rec {
            WalRecord::Commit { txn } => Some(txn),
            _ => None,
        })
        .collect();
    report.committed_txns = committed.len();

    // Where each page's replay starts: its last committed image.
    let mut start: BTreeMap<PageId, usize> = BTreeMap::new();
    let mut last_txn = 0;
    for (i, e) in scanned.entries.iter().enumerate() {
        match &e.rec {
            WalRecord::Begin { txn } => last_txn = last_txn.max(*txn),
            WalRecord::PageImage { txn, page, .. } if committed.contains(txn) => {
                start.insert(*page, i);
            }
            _ => {}
        }
    }

    let replays =
        |txn, page, i| committed.contains(&txn) && start.get(&page).is_none_or(|&s| s <= i);

    // Each logged page, rebuilt in log order: its bytes, its last
    // record's LSN, and whether it was rebuilt on its disk copy.
    let mut pages: BTreeMap<PageId, (Box<[u8; PAGE_SIZE]>, u64, bool)> = BTreeMap::new();
    for (i, e) in scanned.entries.into_iter().enumerate() {
        match e.rec {
            WalRecord::PageImage { txn, page, image } if replays(txn, page, i) => {
                pages.insert(page, (image, e.lsn, false));
            }
            WalRecord::PageDelta { txn, page, ranges } if replays(txn, page, i) => {
                let (image, lsn, _) = match pages.entry(page) {
                    Entry::Occupied(o) => o.into_mut(),
                    Entry::Vacant(v) => v.insert((read_base(disk, page)?, 0, true)),
                };
                record::apply_delta(image, &ranges);
                *lsn = e.lsn;
            }
            _ => {}
        }
    }
    // Step 4 of the module docs: the pages about to overwrite the only
    // base the log has for them go to the log whole first.
    if pages.values().any(|&(_, _, on_disk)| on_disk) {
        store.wal_truncate(scanned.valid_len)?;
        let txn = last_txn + 1;
        let mut group = Vec::new();
        record::put_begin(&mut group, seen_lsn + 1, txn);
        seen_lsn += 1;
        for (page, (image, _, on_disk)) in &pages {
            if *on_disk {
                seen_lsn += 1;
                record::put_image(&mut group, seen_lsn, txn, *page, image);
            }
        }
        seen_lsn += 1;
        record::put_commit(&mut group, seen_lsn, txn);
        store.wal_append(&group)?;
        store.wal_sync()?;
    }
    if !pages.is_empty() {
        for (page, (mut image, lsn, _)) in pages {
            ensure_file(disk, page.file)?;
            while disk.page_count(page.file)? <= page.page {
                disk.allocate_page(page.file)?;
            }
            checksum::stamp(&mut image, lsn);
            disk.write_page(page, &image)?;
            report.replayed_pages += 1;
        }
        disk.sync()?;
    }
    // Everything the log promised is on disk; start a fresh epoch whose
    // marker carries the LSN space forward.
    report.last_lsn = seen_lsn + 1;
    store.wal_truncate(0)?;
    store.wal_append(&record::encode(report.last_lsn, &WalRecord::Checkpoint))?;
    store.wal_sync()?;

    let r = metrics::registry();
    r.counter(obs_names::WAL_RECOVERIES).inc();
    r.counter(obs_names::WAL_REPLAYED_PAGES)
        .add(report.replayed_pages);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::oid::PageId;
    use crate::page::PAGE_SIZE;
    use crate::wal::store::MemWalStore;
    use crate::wal::{PageLog, Wal};

    fn img(b: u8) -> Box<[u8; PAGE_SIZE]> {
        Box::new([b; PAGE_SIZE])
    }

    #[test]
    fn committed_images_are_replayed_and_uncommitted_dropped() {
        let mut disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        let p0 = disk.allocate_page(f).unwrap();
        let p1 = disk.allocate_page(f).unwrap();

        let store = MemWalStore::new();
        let wal = Wal::new(Box::new(store.clone()), 1);
        // Committed txn covering p0.
        let t1 = wal.begin_txn();
        let committed_img = img(0xAA);
        let lsn = wal.append_commit(t1, &[(p0, &committed_img)]).unwrap();
        wal.sync_to(lsn).unwrap();
        // Uncommitted txn covering p1: append Begin+PageImage by hand,
        // no Commit (a crash between apply and commit).
        let torn_img = img(0xBB);
        let mut tail = crate::wal::record::encode(lsn + 1, &WalRecord::Begin { txn: 99 });
        tail.extend_from_slice(&crate::wal::record::encode(
            lsn + 2,
            &WalRecord::PageImage {
                txn: 99,
                page: p1,
                image: torn_img,
            },
        ));
        let mut s = store.clone();
        use crate::wal::store::WalStore as _;
        s.wal_append(&tail).unwrap();

        let mut s2 = store.clone();
        let report = recover(&mut disk, &mut s2).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.replayed_pages, 1);
        assert_eq!(report.last_lsn, lsn + 3, "one above the scanned tail");

        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p0, &mut buf).unwrap();
        assert_eq!(buf[100], 0xAA, "committed image replayed");
        assert!(crate::checksum::verify(&buf), "replayed page is stamped");
        disk.read_page(p1, &mut buf).unwrap();
        assert_eq!(buf[100], 0, "uncommitted image NOT replayed");

        let epoch = scan(&s2.wal_read_all().unwrap()).entries;
        assert_eq!(epoch.len(), 1, "log reset to the new epoch's marker");
        assert_eq!(epoch[0].rec, WalRecord::Checkpoint);
        assert_eq!(epoch[0].lsn, report.last_lsn);
        assert!(disk.stats().syncs >= 1, "data files synced");
    }

    #[test]
    fn torn_tail_is_truncated() {
        let mut disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        let p0 = disk.allocate_page(f).unwrap();
        let store = MemWalStore::new();
        let wal = Wal::new(Box::new(store.clone()), 1);
        let whole = img(0x77);
        let lsn = wal.append_commit(wal.begin_txn(), &[(p0, &whole)]).unwrap();
        wal.sync_to(lsn).unwrap();
        // Tear the log mid-frame.
        use crate::wal::store::WalStore as _;
        let mut s = store.clone();
        let full = s.wal_len().unwrap();
        s.wal_append(&[0x5A; 13]).unwrap();
        let report = recover(&mut disk, &mut s).unwrap();
        assert_eq!(report.truncated_bytes, 13);
        assert_eq!(report.replayed_pages, 1);
        let _ = full;
    }

    #[test]
    fn replay_recreates_missing_files_and_pages() {
        // The crash lost the data file entirely: replay must recreate
        // file 0 and extend it to hold page 2.
        let store = MemWalStore::new();
        let wal = Wal::new(Box::new(store.clone()), 1);
        let pid = PageId::new(FileId(0), 2);
        let image = img(0x5C);
        let lsn = wal
            .append_commit(wal.begin_txn(), &[(pid, &image)])
            .unwrap();
        wal.sync_to(lsn).unwrap();

        let mut disk = MemDisk::new(); // fresh: no files at all
        let mut s = store.clone();
        let report = recover(&mut disk, &mut s).unwrap();
        assert_eq!(report.replayed_pages, 1);
        assert_eq!(disk.page_count(FileId(0)).unwrap(), 3);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut buf).unwrap();
        assert_eq!(buf[50], 0x5C);
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        let p0 = disk.allocate_page(f).unwrap();
        let store = MemWalStore::new();
        let wal = Wal::new(Box::new(store.clone()), 1);
        let image = img(0x42);
        let lsn = wal.append_commit(wal.begin_txn(), &[(p0, &image)]).unwrap();
        wal.sync_to(lsn).unwrap();
        let saved = store.snapshot();

        let mut s = store.clone();
        recover(&mut disk, &mut s).unwrap();
        let mut first = [0u8; PAGE_SIZE];
        disk.read_page(p0, &mut first).unwrap();

        // Crash during recovery: the log is back, run it again.
        use crate::wal::store::WalStore as _;
        s.wal_truncate(0).unwrap();
        s.wal_append(&saved).unwrap();
        recover(&mut disk, &mut s).unwrap();
        let mut second = [0u8; PAGE_SIZE];
        disk.read_page(p0, &mut second).unwrap();
        assert_eq!(first, second);
    }

    /// An image and the deltas after it rebuild the page in memory:
    /// the result is the last state, written once, stamped with the
    /// last record's LSN — and an uncommitted delta is left out.
    #[test]
    fn image_then_deltas_rebuild_the_page_and_write_it_once() {
        let mut disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        let p0 = disk.allocate_page(f).unwrap();
        let store = MemWalStore::new();
        let wal = Wal::new(Box::new(store.clone()), 1);

        let v0 = img(0x10);
        let first = wal.append_commit(wal.begin_txn(), &[(p0, &v0)]).unwrap();
        let mut v1 = v0.clone();
        v1[100..110].fill(0x21);
        let mut v2 = v1.clone();
        v2[4000] = 0x32;
        let mut last = 0;
        // Lines 1 and 62 hold the changes.
        for (cur, lines) in [(&v1, 1 << 1), (&v2, 1 << 62)] {
            last = wal
                .append_pages(
                    wal.begin_txn(),
                    std::iter::once(PageLog {
                        page: p0,
                        image: cur,
                        on_disk: false,
                        base: first,
                        lines,
                    }),
                )
                .unwrap()
                .lsn;
        }
        let before = store.snapshot().len();
        assert!(
            before < 2 * PAGE_SIZE,
            "one image and two small deltas, not three images ({before} bytes)"
        );
        // A delta whose Commit never made it.
        let mut s = store.clone();
        s.wal_append(&record::encode(
            last + 1,
            &WalRecord::PageDelta {
                txn: 99,
                page: p0,
                ranges: vec![record::DeltaRange {
                    offset: 0,
                    bytes: vec![0xEE; 8],
                }],
            },
        ))
        .unwrap();

        disk.reset_stats();
        let report = recover(&mut disk, &mut s).unwrap();
        assert_eq!(report.committed_txns, 3);
        assert_eq!(report.replayed_pages, 1);
        assert_eq!(disk.stats().writes, 1, "the page is written once");
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p0, &mut buf).unwrap();
        assert!(crate::checksum::verify(&buf));
        assert_eq!(crate::checksum::read_lsn(&buf), last - 1);
        assert_eq!(buf[0], 0x10, "uncommitted delta not applied");
        assert_eq!(buf[105], 0x21);
        assert_eq!(buf[4000], 0x32);
    }

    /// A page whose only full copy in the log predates the checkpoint,
    /// and which has no disk copy, must not be logged as a delta: the
    /// log no longer holds its base. With a disk copy it is a delta.
    #[test]
    fn a_base_from_before_the_checkpoint_is_logged_as_an_image() {
        let store = MemWalStore::new();
        let wal = Wal::new(Box::new(store.clone()), 1);
        let p0 = PageId::new(FileId(0), 0);
        let v0 = img(0x10);
        let base = wal.append_commit(wal.begin_txn(), &[(p0, &v0)]).unwrap();
        wal.checkpoint_truncate().unwrap();
        assert!(wal.checkpoint_lsn() > base);
        let mut v1 = v0.clone();
        v1[7] = 0x99;
        for on_disk in [false, true] {
            wal.append_pages(
                wal.begin_txn(),
                std::iter::once(PageLog {
                    page: p0,
                    image: &v1,
                    on_disk,
                    base,
                    lines: 1,
                }),
            )
            .unwrap();
        }
        let entries = scan(&store.snapshot()).entries;
        assert!(
            matches!(&entries[2].rec, WalRecord::PageImage { image, .. } if image[7] == 0x99),
            "first record of the new epoch is a full image: {:?}",
            entries.iter().map(|e| e.lsn).collect::<Vec<_>>()
        );
        assert!(
            matches!(&entries[5].rec, WalRecord::PageDelta { .. }),
            "a page with a disk copy is a delta"
        );
    }

    /// A delta with no image before it (a log written across an LSN
    /// reset) patches the verified on-disk page; with no such page it
    /// is a clean error, not a panic.
    #[test]
    fn a_delta_without_an_image_patches_the_disk_page() {
        let mut disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        let p0 = disk.allocate_page(f).unwrap();
        let mut base = img(0x44);
        crate::checksum::stamp(&mut base, 500);
        disk.write_page(p0, &base).unwrap();

        let delta = |page| {
            let mut log = record::encode(1, &WalRecord::Begin { txn: 1 });
            log.extend_from_slice(&record::encode(
                2,
                &WalRecord::PageDelta {
                    txn: 1,
                    page,
                    ranges: vec![record::DeltaRange {
                        offset: 200,
                        bytes: vec![0x55; 4],
                    }],
                },
            ));
            log.extend_from_slice(&record::encode(3, &WalRecord::Commit { txn: 1 }));
            log
        };
        let mut s = MemWalStore::new();
        s.wal_append(&delta(p0)).unwrap();
        assert_eq!(recover(&mut disk, &mut s).unwrap().replayed_pages, 1);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p0, &mut buf).unwrap();
        assert!(crate::checksum::verify(&buf));
        assert_eq!(
            &buf[198..206],
            &[0x44, 0x44, 0x55, 0x55, 0x55, 0x55, 0x44, 0x44]
        );

        let mut s = MemWalStore::new();
        s.wal_append(&delta(PageId::new(f, 9))).unwrap();
        assert!(matches!(
            recover(&mut disk, &mut s),
            Err(StorageError::Corrupt(_))
        ));
    }

    /// A crash that tears recovery's own write of a page it rebuilt on
    /// the page's disk copy leaves a second run the image recovery
    /// logged before writing: the second run starts there, not at the
    /// torn copy.
    #[test]
    fn a_write_torn_during_recovery_is_repaired_by_a_second_run() {
        use crate::fault::{FaultDisk, FaultPlan};
        let mut disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        let p0 = disk.allocate_page(f).unwrap();
        let mut base = img(0x44);
        crate::checksum::stamp(&mut base, 500);
        disk.write_page(p0, &base).unwrap();
        // One delta on the disk copy, a change in each half of the page.
        let mut log = record::encode(1, &WalRecord::Begin { txn: 1 });
        let ranges = [(200, 0x55), (3000, 0x66)]
            .map(|(offset, b)| record::DeltaRange {
                offset,
                bytes: vec![b; 4],
            })
            .to_vec();
        let delta = WalRecord::PageDelta {
            txn: 1,
            page: p0,
            ranges,
        };
        log.extend_from_slice(&record::encode(2, &delta));
        log.extend_from_slice(&record::encode(3, &WalRecord::Commit { txn: 1 }));
        let mut s = MemWalStore::new();
        s.wal_append(&log).unwrap();

        let plan = FaultPlan {
            torn_write_at: Some(1),
            ..FaultPlan::default()
        };
        let mut disk = FaultDisk::new(disk, plan);
        assert!(recover(&mut disk, &mut s).is_err(), "the write tore");
        let report = recover(&mut disk, &mut s).unwrap();
        assert_eq!(report.replayed_pages, 1);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p0, &mut buf).unwrap();
        assert!(crate::checksum::verify(&buf));
        assert_eq!((buf[199], buf[200], buf[3003]), (0x44, 0x55, 0x66));
        let epoch = scan(&s.wal_read_all().unwrap()).entries;
        assert_eq!(epoch.len(), 1, "and the log is a fresh epoch");
    }

    /// Format pin: a log laid out byte by byte the way the image-only
    /// engine wrote it (`Begin / PageImage / Commit`, kinds 1–3) replays.
    #[test]
    fn a_legacy_image_only_log_still_replays() {
        use record::frame;
        let txn = 5u64.to_le_bytes();
        let mut log = frame(&[&[1u8][..], &10u64.to_le_bytes(), &txn].concat());
        log.extend_from_slice(&frame(
            &[
                &[2u8][..],
                &11u64.to_le_bytes(),
                &txn,
                &0u16.to_le_bytes(),
                &1u32.to_le_bytes(),
                &[0x6Bu8; PAGE_SIZE],
            ]
            .concat(),
        ));
        log.extend_from_slice(&frame(&[&[3u8][..], &12u64.to_le_bytes(), &txn].concat()));

        let mut disk = MemDisk::new();
        let mut s = MemWalStore::new();
        s.wal_append(&log).unwrap();
        let report = recover(&mut disk, &mut s).unwrap();
        assert_eq!(report.scanned_records, 3);
        assert_eq!(report.replayed_pages, 1);
        assert_eq!(report.last_lsn, 13);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(FileId(0), 1), &mut buf).unwrap();
        assert_eq!(buf[3000], 0x6B);
        assert_eq!(crate::checksum::read_lsn(&buf), 11);
    }
}
