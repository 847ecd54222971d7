//! Storage-layer edge cases: buffer-pool behaviour under pressure, tiny
//! records and forwarding stubs, I/O accounting, error formatting.

use fieldrep_storage::{
    HeapFile, IoStats, StorageError, StorageManager, MAX_RECORD_PAYLOAD, MIN_RECORD_PAYLOAD,
    PAGE_SIZE,
};

#[test]
fn tiny_records_can_always_be_forwarded() {
    // Records smaller than a forwarding stub (8-byte payload) must still
    // be forwardable — the MIN_RECORD_PAYLOAD reservation guarantees it.
    let sm = StorageManager::in_memory(64);
    let hf = HeapFile::create(&sm).unwrap();
    let mut oids = Vec::new();
    // Fill a page with 1-byte records.
    loop {
        let oid = hf.rec_insert(&sm.apply_section(), 1, &[7u8]).unwrap();
        if oid.page > 0 {
            break;
        }
        oids.push(oid);
    }
    // Grow every page-0 record far beyond the page: each needs a stub.
    for &oid in &oids {
        hf.rec_update(&sm.apply_section(), oid, &[9u8; 300])
            .unwrap();
    }
    for &oid in &oids {
        assert_eq!(hf.read(&sm, oid).unwrap().1, vec![9u8; 300]);
    }
    const _: () = assert!(MIN_RECORD_PAYLOAD >= 8);
}

#[test]
fn zero_length_payload_roundtrip() {
    let sm = StorageManager::in_memory(16);
    let hf = HeapFile::create(&sm).unwrap();
    let oid = hf.rec_insert(&sm.apply_section(), 3, &[]).unwrap();
    assert_eq!(hf.read(&sm, oid).unwrap(), (3, vec![]));
    hf.rec_update(&sm.apply_section(), oid, &[]).unwrap();
    assert_eq!(hf.read(&sm, oid).unwrap().1, Vec::<u8>::new());
    hf.rec_delete(&sm.apply_section(), oid).unwrap();
}

#[test]
fn max_payload_roundtrip_through_heap() {
    let sm = StorageManager::in_memory(16);
    let hf = HeapFile::create(&sm).unwrap();
    let big = vec![0x5A; MAX_RECORD_PAYLOAD];
    let oid = hf.rec_insert(&sm.apply_section(), 2, &big).unwrap();
    assert_eq!(hf.read(&sm, oid).unwrap().1, big);
    // One byte more is rejected cleanly.
    let too_big = vec![0u8; MAX_RECORD_PAYLOAD + 1];
    assert!(matches!(
        hf.rec_insert(&sm.apply_section(), 2, &too_big),
        Err(StorageError::RecordTooLarge { .. })
    ));
}

#[test]
fn per_query_io_accounting_with_cold_pool() {
    let sm = StorageManager::in_memory(256);
    let hf = HeapFile::create(&sm).unwrap();
    // 10 pages of 100-byte records.
    let mut oids = Vec::new();
    for _ in 0..330 {
        oids.push(hf.rec_insert(&sm.apply_section(), 1, &[1u8; 100]).unwrap());
    }
    sm.flush_all().unwrap();
    sm.reset_profile();

    // Read one record from each of 10 pages: exactly 10 physical reads.
    for p in 0..10u32 {
        let oid = oids.iter().find(|o| o.page == p).unwrap();
        hf.read(&sm, *oid).unwrap();
    }
    let prof = sm.io_profile();
    assert_eq!(prof.pages_read(), 10);
    assert_eq!(prof.pool_misses, 10);
    assert_eq!(prof.pages_written(), 0);

    // Re-reading is free (buffered).
    for p in 0..10u32 {
        let oid = oids.iter().find(|o| o.page == p).unwrap();
        hf.read(&sm, *oid).unwrap();
    }
    let prof = sm.io_profile();
    assert_eq!(prof.pages_read(), 10, "second pass came from the pool");
    assert_eq!(prof.pool_hits, 10);

    // Updating 5 records on one page then flushing writes exactly 1 page.
    sm.reset_profile();
    for oid in oids.iter().filter(|o| o.page == 3).take(5) {
        hf.rec_update(&sm.apply_section(), *oid, &[2u8; 100])
            .unwrap();
    }
    sm.flush_all().unwrap();
    let prof = sm.io_profile();
    assert_eq!(prof.pages_written(), 1);
}

#[test]
fn pool_thrashing_still_correct() {
    // A 4-frame pool over a 40-page file: heavy eviction, no data loss.
    let sm = StorageManager::in_memory(4);
    let hf = HeapFile::create(&sm).unwrap();
    let mut oids = Vec::new();
    for i in 0..1320u32 {
        oids.push(
            hf.rec_insert(&sm.apply_section(), 1, &i.to_le_bytes().repeat(25))
                .unwrap(),
        );
    }
    for (i, oid) in oids.iter().enumerate().step_by(31) {
        let (_, body) = hf.read(&sm, *oid).unwrap();
        assert_eq!(body, (i as u32).to_le_bytes().repeat(25));
    }
    let prof = sm.io_profile();
    assert!(prof.evictions > 0, "the pool actually thrashed");
}

#[test]
fn error_messages_are_informative() {
    let sm = StorageManager::in_memory(8);
    let hf = HeapFile::create(&sm).unwrap();
    let oid = hf.rec_insert(&sm.apply_section(), 1, b"x").unwrap();
    hf.rec_delete(&sm.apply_section(), oid).unwrap();
    let err = hf.read(&sm, oid).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("does not name a live record"), "{msg}");

    let stats = IoStats::default();
    assert_eq!(
        format!("{stats}"),
        "reads=0 (calls=0) writes=0 allocs=0 syncs=0"
    );
}

#[test]
fn interleaved_files_do_not_interfere() {
    let sm = StorageManager::in_memory(64);
    let a = HeapFile::create(&sm).unwrap();
    let b = HeapFile::create(&sm).unwrap();
    let mut pairs = Vec::new();
    for i in 0..500u32 {
        let oa = a
            .rec_insert(&sm.apply_section(), 1, &i.to_le_bytes())
            .unwrap();
        let ob = b
            .rec_insert(&sm.apply_section(), 2, &(i * 2).to_le_bytes())
            .unwrap();
        pairs.push((oa, ob, i));
    }
    sm.drop_file(a.file).unwrap();
    // B survives A's destruction fully intact.
    for (_, ob, i) in &pairs {
        assert_eq!(b.read(&sm, *ob).unwrap().1, (i * 2).to_le_bytes());
    }
    assert_eq!(b.count(&sm).unwrap(), 500);
}

#[test]
fn page_size_constants_consistent() {
    assert_eq!(PAGE_SIZE, 4096);
    const _: () = assert!(MAX_RECORD_PAYLOAD < PAGE_SIZE);
}
