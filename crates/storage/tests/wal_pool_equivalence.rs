//! The log rebuilds what the pool holds. Seeded heap work runs through a
//! WAL-attached pool much smaller than the data: inserts, updates that
//! shrink, grow, compact and move records, in-place overwrites, deletes,
//! and re-formats of whole pages, with commits, evictions and the odd
//! checkpoint in between. Recovery of the log onto the disk as the last
//! checkpoint left it must then give every page exactly as the pool has
//! it — so every byte a write changed lies in a line it marked.

use fieldrep_storage::page::{OFF_PAGE_CRC, OFF_PAGE_LSN};
use fieldrep_storage::wal::{record, recover, WalRecord};
use fieldrep_storage::{
    DiskManager, FileId, HeapFile, MemDisk, MemWalStore, Oid, PageId, PageKind, PagePins,
    RecordEdit, RecordFlags, RecordHeader, StorageError, StorageManager, PAGE_SIZE,
};
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

type Page = Box<[u8; PAGE_SIZE]>;

/// Every page of `file`, as the pool has it.
fn pages(sm: &StorageManager, file: FileId) -> Vec<Page> {
    (0..sm.page_count(file).unwrap())
        .map(|p| Box::new(**sm.pool().fetch(PageId::new(file, p)).unwrap().data()))
        .collect()
}

/// Log what the pool has not, as one commit, and make it durable.
fn commit(sm: &StorageManager) {
    let wal = sm.wal().unwrap();
    let lsn = {
        let _apply = wal.apply_lock();
        sm.pool().log_txn_commit().unwrap()
    };
    if let Some(lsn) = lsn {
        wal.sync_to(lsn).unwrap();
    }
}

fn run(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let store = MemWalStore::new();
    let sm = StorageManager::new_with_wal(Box::new(MemDisk::new()), Box::new(store.clone()), 16)
        .unwrap();
    let hf = HeapFile::create(&sm).unwrap();
    let raw = sm.create_file().unwrap();
    let files = [hf.file, raw];
    sm.checkpoint().unwrap();
    let mut image: Vec<Vec<Page>> = vec![Vec::new(); files.len()];
    let mut oids: Vec<Oid> = Vec::new();
    let mut uncommitted = 0;
    for _ in 0..500 {
        let pick = |rng: &mut StdRng, oids: &[Oid]| oids[rng.gen_range(0..oids.len())];
        match rng.gen_range(0..10u32) {
            0..=2 => {
                let payload = vec![rng.next_u32() as u8; rng.gen_range(1..1200)];
                oids.push(
                    hf.rec_insert(&sm.apply_section(), &PagePins::none(), 1, &payload)
                        .unwrap(),
                );
            }
            3..=4 if !oids.is_empty() => {
                let payload = vec![rng.next_u32() as u8; rng.gen_range(1..1500)];
                hf.rec_update(
                    &sm.apply_section(),
                    &PagePins::none(),
                    pick(&mut rng, &oids),
                    &payload,
                )
                .unwrap();
            }
            5..=6 if !oids.is_empty() => {
                let oid = pick(&mut rng, &oids);
                let len = hf.read(&sm, oid).unwrap().1.len();
                let at = rng.gen_range(0..len);
                let bytes = vec![rng.next_u32() as u8; rng.gen_range(1..(len - at).min(100) + 1)];
                let page = sm.pool().fetch(oid.page_id()).unwrap();
                hf.edit_pinned(&sm.apply_section(), &PagePins::none(), page, oid, |_, _| {
                    Ok::<_, StorageError>(RecordEdit::Overwrite { at, bytes: &bytes })
                })
                .unwrap();
            }
            7 if !oids.is_empty() => {
                let oid = oids.swap_remove(rng.gen_range(0..oids.len()));
                hf.rec_delete(&sm.apply_section(), &PagePins::none(), oid)
                    .unwrap();
            }
            8 => {
                // A whole page formatted again, over whatever it held.
                let n = sm.page_count(raw).unwrap();
                let page = if n < 4 {
                    sm.pool().new_page(raw).unwrap().1
                } else {
                    sm.pool()
                        .fetch(PageId::new(raw, rng.gen_range(0..n)))
                        .unwrap()
                };
                let header = RecordHeader {
                    type_tag: 2,
                    flags: RecordFlags::Normal,
                };
                let payload = vec![rng.next_u32() as u8; rng.gen_range(1..2000)];
                page.data_mut().page(|pg| {
                    pg.init(PageKind::Heap);
                    pg.insert(header, &payload).unwrap();
                });
            }
            _ => {}
        }
        uncommitted += 1;
        if uncommitted >= 2 || rng.gen_bool(0.4) {
            commit(&sm);
            uncommitted = 0;
        }
        if rng.gen_range(0..80) == 0 {
            commit(&sm);
            sm.checkpoint().unwrap();
            image = files.iter().map(|&f| pages(&sm, f)).collect();
        }
    }
    commit(&sm);
    assert!(
        sm.io_profile().evictions > 0,
        "seed {seed}: nothing evicted"
    );
    let deltas = record::scan(&store.snapshot())
        .entries
        .iter()
        .filter(|e| matches!(e.rec, WalRecord::PageDelta { .. }))
        .count();
    assert!(deltas > 0, "seed {seed}: no page was delta-logged");

    let mut disk = MemDisk::new();
    for (&file, pages) in files.iter().zip(&image) {
        assert_eq!(disk.create_file().unwrap(), file);
        for page in pages {
            let pid = disk.allocate_page(file).unwrap();
            disk.write_page(pid, page).unwrap();
        }
    }
    recover(&mut disk, &mut store.clone()).unwrap();
    // The durability header aside: recovery stamps it afresh.
    let header = OFF_PAGE_LSN..OFF_PAGE_CRC + 4;
    for file in files {
        let want = pages(&sm, file);
        assert_eq!(disk.page_count(file).unwrap() as usize, want.len());
        for (p, want) in want.iter().enumerate() {
            let mut got = [0u8; PAGE_SIZE];
            disk.read_page(PageId::new(file, p as u32), &mut got)
                .unwrap();
            got[header.clone()].copy_from_slice(&want[header.clone()]);
            if let Some(at) = (0..PAGE_SIZE).find(|&i| got[i] != want[i]) {
                panic!("seed {seed}: page {file:?}/{p} differs from the pool at byte {at}");
            }
        }
    }
}

#[test]
fn recovery_onto_the_last_checkpoint_gives_every_page_the_pool_holds() {
    for seed in 0..8 {
        run(seed);
    }
}
