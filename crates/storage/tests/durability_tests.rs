//! End-to-end durability tests: checksum verification through the
//! buffer pool, and WAL-backed crash survival at the storage level.

use fieldrep_storage::{
    checksum, BufferPool, FaultDisk, FaultPlan, FileDisk, FileId, FileWalStore, HeapFile, MemDisk,
    MemWalStore, PageId, PagePins, StorageError, StorageManager, PAGE_SIZE,
};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fieldrep-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Flip one byte of `page` in the raw on-disk file `f<N>.pages`.
fn corrupt_byte(dir: &Path, file: u64, page: u64, offset: u64) {
    let path = dir.join(format!("f{file}.pages"));
    let mut bytes = std::fs::read(&path).unwrap();
    let at = (page * PAGE_SIZE as u64 + offset) as usize;
    bytes[at] ^= 0xFF;
    std::fs::write(&path, bytes).unwrap();
}

#[test]
fn corrupt_page_surfaces_as_checksum_mismatch_through_the_pool() {
    let dir = temp_dir("crc");
    let oid;
    {
        let sm = StorageManager::new(Box::new(FileDisk::open(&dir).unwrap()), 8);
        let hf = HeapFile::create(&sm).unwrap();
        oid = hf
            .rec_insert(
                &sm.apply_section(),
                &PagePins::none(),
                7,
                b"precious payload",
            )
            .unwrap();
        sm.flush_all().unwrap();
    }
    // Flip a data byte behind the engine's back.
    corrupt_byte(&dir, 0, 0, 100);
    let sm = StorageManager::new(Box::new(FileDisk::open(&dir).unwrap()), 8);
    let hf = HeapFile::open(fieldrep_storage::FileId(0));
    let err = hf.read(&sm, oid).unwrap_err();
    assert!(
        matches!(err, StorageError::ChecksumMismatch(_)),
        "expected a clean checksum error, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_page_is_caught_on_the_batched_read_path() {
    let dir = temp_dir("crc-batch");
    let mut pids = Vec::new();
    {
        let sm = StorageManager::new(Box::new(FileDisk::open(&dir).unwrap()), 16);
        let hf = HeapFile::create(&sm).unwrap();
        // Fill several pages so a batched run exists.
        for i in 0..600u32 {
            hf.rec_insert(
                &sm.apply_section(),
                &PagePins::none(),
                1,
                &i.to_le_bytes().repeat(8),
            )
            .unwrap();
        }
        let pages = sm.page_count(fieldrep_storage::FileId(0)).unwrap();
        assert!(pages >= 3, "need a multi-page run, got {pages}");
        for p in 0..pages {
            pids.push(fieldrep_storage::PageId::new(
                fieldrep_storage::FileId(0),
                p,
            ));
        }
        sm.flush_all().unwrap();
    }
    corrupt_byte(&dir, 0, 1, 2000); // second page of the run
    let sm = StorageManager::new(Box::new(FileDisk::open(&dir).unwrap()), 16);
    let err = match sm.pool().get_pages_batch(&pids) {
        Ok(_) => panic!("batched read over a corrupt page must fail"),
        Err(e) => e,
    };
    assert!(
        matches!(err, StorageError::ChecksumMismatch(p) if p.page == 1),
        "batched read must name the corrupt page, got: {err}"
    );
    // The pool stays usable: the undamaged first page still reads.
    sm.pool().fetch(pids[0]).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed single-page read rolls back like a batch's run: the page is
/// not left resident, a second fetch goes back to the disk instead of
/// serving the bad frame, and a one-frame pool still serves other pages.
/// Both failures still count the fetch as a miss.
#[test]
fn a_failed_single_page_read_rolls_back_like_a_batch() {
    let (p0, p1) = (PageId::new(FileId(0), 0), PageId::new(FileId(0), 1));
    // Two pages, marked 0xA0 and 0xA1 at byte 100, written back.
    let write_two = |bp: &BufferPool| {
        let f = bp.create_file().unwrap();
        for mark in [0xA0, 0xA1] {
            bp.new_page(f).unwrap().1.data_mut()[100] = mark;
        }
        bp.flush_all().unwrap();
    };
    let mark = |bp: &BufferPool, pid| bp.fetch(pid).map(|h| h.data()[100]);

    // A checksum mismatch, on every attempt: each one reads the disk.
    let dir = temp_dir("crc-single");
    write_two(&BufferPool::new(Box::new(FileDisk::open(&dir).unwrap()), 4));
    corrupt_byte(&dir, 0, 1, 2000);
    let bp = BufferPool::new(Box::new(FileDisk::open(&dir).unwrap()), 1);
    for attempt in 1..=2 {
        match mark(&bp, p1) {
            Err(StorageError::ChecksumMismatch(p)) => assert_eq!(p, p1),
            Err(e) => panic!("attempt {attempt}: wrong error {e}"),
            Ok(_) => panic!("attempt {attempt}: a corrupt page must not be served"),
        }
        assert_eq!(bp.pool_stats().resident, 0, "attempt {attempt}");
        let prof = bp.io_profile();
        assert_eq!((prof.disk.reads, prof.pool_misses), (attempt, attempt));
    }
    assert_eq!(mark(&bp, p0).unwrap(), 0xA0, "the one frame serves page 0");
    let _ = std::fs::remove_dir_all(&dir);

    // An injected read error, once: the retry reads the right bytes.
    let disk = FaultDisk::new(
        MemDisk::new(),
        FaultPlan {
            read_error_at: Some(1),
            ..FaultPlan::default()
        },
    );
    let bp = BufferPool::new(Box::new(disk), 1);
    write_two(&bp);
    assert!(matches!(mark(&bp, p1), Err(StorageError::Io(_))));
    assert_eq!(bp.pool_stats().resident, 0);
    assert_eq!(bp.io_profile().pool_misses, 1);
    assert_eq!(mark(&bp, p1).unwrap(), 0xA1, "the retry re-reads page 1");
    assert_eq!(mark(&bp, p0).unwrap(), 0xA0, "and the one frame moves on");
    let prof = bp.io_profile();
    assert_eq!((prof.disk.reads, prof.pool_misses), (2, 3));
}

#[test]
fn checkpoint_then_reopen_needs_no_replay() {
    let store = MemWalStore::new();
    let disk_probe;
    {
        let sm = StorageManager::new_with_wal(Box::new(MemDisk::new()), Box::new(store.clone()), 8)
            .unwrap();
        let hf = HeapFile::create(&sm).unwrap();
        hf.rec_insert(&sm.apply_section(), &PagePins::none(), 1, b"checkpointed")
            .unwrap();
        sm.checkpoint().unwrap();
        assert_eq!(sm.wal_stats().last_lsn, sm.wal_stats().durable_lsn);
        disk_probe = sm.wal_stats().last_lsn;
    }
    assert!(disk_probe >= 1);
    // The log was truncated at checkpoint: a fresh open replays nothing.
    let sm2 =
        StorageManager::new_with_wal(Box::new(MemDisk::new()), Box::new(store.clone()), 8).unwrap();
    let r = sm2.recovery_report();
    assert_eq!(r.replayed_pages, 0, "clean shutdown leaves nothing to redo");
    // Only the checkpoint marker survives in the scanned prefix.
    assert!(r.scanned_records <= 1);
}

/// Regression test for the LSN space restarting below the LSNs already
/// stamped in page headers: recovery used to leave an *empty* log, so
/// the open after a recovery (or after any clean open) started again at
/// LSN 1. The image-or-delta rule compares page-header LSNs with the
/// log's epoch marker, so the space must only ever rise.
#[test]
fn lsn_space_never_regresses_across_reopens() {
    let dir = temp_dir("lsn");
    let open = || {
        StorageManager::new_with_wal(
            Box::new(FileDisk::open(&dir).unwrap()),
            Box::new(FileWalStore::open(&dir).unwrap()),
            8,
        )
        .unwrap()
    };
    let mut floor;
    {
        let sm = open();
        let hf = HeapFile::create(&sm).unwrap();
        hf.rec_insert(
            &sm.apply_section(),
            &PagePins::none(),
            1,
            b"committed, never checkpointed",
        )
        .unwrap();
        let wal = sm.wal().unwrap();
        let lsn = {
            let _apply = wal.apply_lock();
            sm.pool().log_txn_commit().unwrap().unwrap()
        };
        wal.sync_to(lsn).unwrap();
        floor = sm.wal_stats().last_lsn;
        // Dropped without a checkpoint: the next open replays the log.
    }
    for reopen in 0..3 {
        let sm = open();
        assert_eq!(
            sm.recovery_report().replayed_pages,
            u64::from(reopen == 0),
            "only the first reopen has anything to redo"
        );
        let last = sm.wal_stats().last_lsn;
        assert!(
            last >= floor,
            "reopen {reopen}: LSN space fell from {floor} to {last}"
        );
        for page in 0..sm.page_count(FileId(0)).unwrap() {
            let h = sm.pool().fetch(PageId::new(FileId(0), page)).unwrap();
            let stamped = checksum::read_lsn(&h.data());
            assert!(
                stamped <= last && stamped <= sm.wal().unwrap().checkpoint_lsn(),
                "reopen {reopen}: page {page} is stamped {stamped}, above the log's {last}"
            );
        }
        floor = last;
    }
    let _ = std::fs::remove_dir_all(&dir);
}
