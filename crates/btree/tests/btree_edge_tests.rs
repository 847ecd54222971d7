//! B⁺-tree edge-case tests: deep trees, emptied leaves, pathological key
//! shapes, and mixed workloads.

use fieldrep_btree::{keys, BTreeIndex, Entry};
use fieldrep_storage::{FileId, Oid, StorageManager};

fn sm() -> StorageManager {
    StorageManager::in_memory(2048)
}

fn oid(n: u32) -> Oid {
    Oid::new(FileId(7), n / 32, (n % 32) as u16)
}

#[test]
fn incremental_growth_to_height_three() {
    let sm = sm();
    let w = sm.apply_section();
    let idx = BTreeIndex::create(&w).unwrap();
    // Long keys force low fanout, so height 3 arrives quickly.
    let key = |i: i64| {
        let mut k = vec![0xAB; 100];
        k.extend_from_slice(&keys::encode_i64(i));
        k
    };
    let n = 4000i64;
    for i in 0..n {
        idx.insert(&w, &key(i * 7 % n), oid(i as u32)).unwrap();
    }
    assert!(idx.height(&sm).unwrap() >= 3, "forced a deep tree");
    assert_eq!(idx.entry_count(&sm).unwrap(), n as u64);
    // Everything still findable.
    for i in (0..n).step_by(97) {
        assert_eq!(idx.lookup(&sm, &key(i)).unwrap().len(), 1, "key {i}");
    }
    // Full scan sorted and complete.
    let all = idx.scan_all(&sm).unwrap();
    assert_eq!(all.len(), n as usize);
    assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
}

#[test]
fn range_scan_across_emptied_leaves() {
    let sm = sm();
    let w = sm.apply_section();
    let entries: Vec<Entry> = (0..5000i64)
        .map(|i| (keys::encode_i64(i).to_vec(), oid(i as u32)))
        .collect();
    let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
    // Empty out a band of keys in the middle (several whole leaves).
    for i in 1000..3000i64 {
        assert!(idx.delete(&w, &keys::encode_i64(i), oid(i as u32)).unwrap());
    }
    // A range spanning the hole sees exactly the survivors.
    let hits = idx
        .range(&sm, &keys::encode_i64(500), &keys::encode_i64(3499))
        .unwrap();
    assert_eq!(hits.len(), 500 + 500); // 500..999 and 3000..3499
    assert_eq!(keys::decode_i64(&hits[0].0), 500);
    assert_eq!(keys::decode_i64(&hits.last().unwrap().0), 3499);
}

#[test]
fn many_duplicates_span_leaves() {
    let sm = sm();
    let w = sm.apply_section();
    let idx = BTreeIndex::create(&w).unwrap();
    // 2000 entries under ONE user key: duplicates must span many leaves
    // and still come back complete and OID-sorted.
    let key = keys::encode_i64(42);
    for i in 0..2000u32 {
        idx.insert(&w, &key, oid(i)).unwrap();
    }
    let hits = idx.lookup(&sm, &key).unwrap();
    assert_eq!(hits.len(), 2000);
    assert!(hits.windows(2).all(|w| w[0] < w[1]));
    // Neighbouring keys are unaffected.
    assert!(idx.lookup(&sm, &keys::encode_i64(41)).unwrap().is_empty());
    assert!(idx.lookup(&sm, &keys::encode_i64(43)).unwrap().is_empty());
    // Delete a specific (key, oid) out of the middle.
    assert!(idx.delete(&w, &key, oid(1000)).unwrap());
    assert_eq!(idx.lookup(&sm, &key).unwrap().len(), 1999);
}

#[test]
fn empty_range_and_reversed_bounds() {
    let sm = sm();
    let w = sm.apply_section();
    let entries: Vec<Entry> = (0..100i64)
        .map(|i| (keys::encode_i64(i * 10).to_vec(), oid(i as u32)))
        .collect();
    let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
    // Range strictly between keys.
    assert!(idx
        .range(&sm, &keys::encode_i64(11), &keys::encode_i64(19))
        .unwrap()
        .is_empty());
    // Range below and above all keys.
    assert!(idx
        .range(&sm, &keys::encode_i64(-100), &keys::encode_i64(-1))
        .unwrap()
        .is_empty());
    assert!(idx
        .range(&sm, &keys::encode_i64(10_000), &keys::encode_i64(20_000))
        .unwrap()
        .is_empty());
    // Inverted bounds: empty, not an error.
    assert!(idx
        .range(&sm, &keys::encode_i64(500), &keys::encode_i64(100))
        .unwrap()
        .is_empty());
}

#[test]
fn mixed_string_lengths() {
    let sm = sm();
    let w = sm.apply_section();
    let idx = BTreeIndex::create(&w).unwrap();
    let names = ["a", "ab", "abc", "b", "ba", "z", "zz", ""];
    for (i, n) in names.iter().enumerate() {
        idx.insert(&w, &keys::encode_bytes(n.as_bytes()), oid(i as u32))
            .unwrap();
    }
    let all = idx.scan_all(&sm).unwrap();
    let decoded: Vec<String> = all
        .iter()
        .map(|(k, _)| String::from_utf8(keys::decode_bytes(k).0).unwrap())
        .collect();
    let mut want: Vec<String> = names.iter().map(std::string::ToString::to_string).collect();
    want.sort();
    assert_eq!(decoded, want);
    // Prefix range: all keys starting at or after "a" and at most "b".
    let hits = idx
        .range(&sm, &keys::encode_bytes(b"a"), &keys::encode_bytes(b"b"))
        .unwrap();
    assert_eq!(hits.len(), 4); // "a", "ab", "abc", "b"
}

#[test]
fn reinsert_after_delete() {
    let sm = sm();
    let w = sm.apply_section();
    let idx = BTreeIndex::create(&w).unwrap();
    let key = keys::encode_i64(5);
    for round in 0..50 {
        idx.insert(&w, &key, oid(round)).unwrap();
        assert!(idx.delete(&w, &key, oid(round)).unwrap());
    }
    assert_eq!(idx.entry_count(&sm).unwrap(), 0);
    idx.insert(&w, &key, oid(999)).unwrap();
    assert_eq!(idx.lookup(&sm, &key).unwrap(), vec![oid(999)]);
}

#[test]
fn bulk_load_partial_fill_leaves_insert_room() {
    let sm = sm();
    let w = sm.apply_section();
    let entries: Vec<Entry> = (0..10_000i64)
        .map(|i| (keys::encode_i64(i * 2).to_vec(), oid(i as u32)))
        .collect();
    // 70% fill: the classic setting for trees that keep growing.
    let idx = BTreeIndex::bulk_load(&w, &entries, 0.7).unwrap();
    let pages_before = idx.pages(&sm).unwrap();
    // Odd keys squeeze between the evens; with 30% slack, few splits.
    for i in 0..2000i64 {
        idx.insert(&w, &keys::encode_i64(i * 2 + 1), oid(100_000 + i as u32))
            .unwrap();
    }
    let all = idx.scan_all(&sm).unwrap();
    assert_eq!(all.len(), 12_000);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    let pages_after = idx.pages(&sm).unwrap();
    assert!(
        pages_after - pages_before < 30,
        "70% fill should absorb inserts with few new pages ({pages_before} → {pages_after})"
    );
}

#[test]
fn full_fill_bulk_load_splits_on_insert() {
    let sm = sm();
    let w = sm.apply_section();
    let entries: Vec<Entry> = (0..5000i64)
        .map(|i| (keys::encode_i64(i * 2).to_vec(), oid(i as u32)))
        .collect();
    let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
    // Inserting into packed leaves must split, not corrupt.
    for i in 0..500i64 {
        idx.insert(&w, &keys::encode_i64(i * 20 + 1), oid(50_000 + i as u32))
            .unwrap();
    }
    let all = idx.scan_all(&sm).unwrap();
    assert_eq!(all.len(), 5500);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn range_windows_at_every_alignment_to_leaf_boundaries() {
    let sm = sm();
    let w = sm.apply_section();
    let entries: Vec<Entry> = (0..2000i64)
        .map(|i| (keys::encode_i64(i * 3).to_vec(), oid(i as u32)))
        .collect();
    let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
    assert!(idx.pages(&sm).unwrap() > 10, "several leaves");
    // ~155 entries per leaf: 500 consecutive 20-key windows start before,
    // on, straddling and after at least three leaf boundaries, with bounds
    // on stored keys and between them.
    for first in 0..500i64 {
        for (lo, hi) in [(first * 3, first * 3 + 57), (first * 3 - 1, first * 3 + 58)] {
            let hits = idx
                .range(&sm, &keys::encode_i64(lo), &keys::encode_i64(hi))
                .unwrap();
            let got: Vec<i64> = hits.iter().map(|(k, _)| keys::decode_i64(k)).collect();
            let want: Vec<i64> = (first..first + 20).map(|i| i * 3).collect();
            assert_eq!(got, want, "window [{lo}, {hi}]");
            assert_eq!(hits[0].1, oid(first as u32));
        }
    }
    // `hi` below the first entry; `lo` below it and `hi` inside.
    assert!(idx
        .range(&sm, &keys::encode_i64(-50), &keys::encode_i64(-1))
        .unwrap()
        .is_empty());
    let hits = idx
        .range(&sm, &keys::encode_i64(-50), &keys::encode_i64(6))
        .unwrap();
    assert_eq!(hits.len(), 3);
}

#[test]
fn point_range_over_duplicates_spanning_leaves() {
    let sm = sm();
    let w = sm.apply_section();
    let idx = BTreeIndex::create(&w).unwrap();
    // 100-byte keys: ~34 entries per leaf, so 50 duplicates of one user
    // key necessarily continue into the next leaf.
    let key = |i: i64| {
        let mut k = vec![0xCD; 100];
        k.extend_from_slice(&keys::encode_i64(i));
        k
    };
    for i in 0..200i64 {
        idx.insert(&w, &key(i), oid(i as u32)).unwrap();
    }
    for d in (0..50u32).rev() {
        idx.insert(&w, &key(77), oid(1000 + d)).unwrap();
    }
    let hits = idx.range(&sm, &key(77), &key(77)).unwrap();
    assert_eq!(hits.len(), 51);
    assert!(hits.iter().all(|(k, _)| *k == key(77)));
    assert!(hits.windows(2).all(|w| w[0].1 < w[1].1), "OID order");
    assert_eq!(
        idx.lookup(&sm, &key(77)).unwrap(),
        hits.iter().map(|(_, o)| *o).collect::<Vec<_>>()
    );
    let mut visited = 0;
    idx.for_each_in_range(&sm, &key(77), &key(77), |k, _| {
        assert_eq!(k, key(77));
        visited += 1;
    })
    .unwrap();
    assert_eq!(visited, 51);
}

#[test]
fn hostile_node_page_is_a_typed_error_not_a_panic() {
    use fieldrep_storage::{PageId, PageKind, PageMut, StorageError};
    let sm = sm();
    let w = sm.apply_section();
    let entries: Vec<Entry> = (0..1000i64)
        .map(|i| (keys::encode_i64(i).to_vec(), oid(i as u32)))
        .collect();
    let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
    assert_eq!(idx.height(&sm).unwrap(), 2);
    // Page 1 is the first leaf a bulk load writes (0 is the root): turn
    // it into something else.
    let leaf = sm.pool().fetch(PageId::new(idx.file, 1)).unwrap();
    let saved = leaf.data().to_vec();
    PageMut::new(leaf.data_mut().whole_mut()).init(PageKind::Heap);
    let key = keys::encode_i64(3);
    assert!(matches!(
        idx.range(&sm, &key, &key),
        Err(StorageError::Corrupt(_))
    ));
    assert!(matches!(
        idx.lookup(&sm, &key),
        Err(StorageError::Corrupt(_))
    ));
    assert!(matches!(idx.scan_all(&sm), Err(StorageError::Corrupt(_))));
    assert!(matches!(
        idx.delete(&w, &key, oid(3)),
        Err(StorageError::Corrupt(_))
    ));
    assert!(matches!(
        idx.insert(&w, &key, oid(9999)),
        Err(StorageError::Corrupt(_))
    ));
    // An entry count running past the page.
    leaf.data_mut().whole_mut().copy_from_slice(&saved);
    leaf.data_mut().whole_mut()[40..42].copy_from_slice(&u16::MAX.to_le_bytes());
    assert!(matches!(idx.scan_all(&sm), Err(StorageError::Corrupt(_))));
    // Restored, the tree answers again.
    leaf.data_mut().whole_mut().copy_from_slice(&saved);
    assert_eq!(idx.scan_all(&sm).unwrap().len(), 1000);
}

/// FNV-1a over every page of the index file, in page order.
fn file_fingerprint(sm: &StorageManager, idx: &BTreeIndex) -> (u32, u64) {
    let pages = idx.pages(sm).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in 0..pages {
        let page = sm
            .pool()
            .fetch(fieldrep_storage::PageId::new(idx.file, p))
            .unwrap();
        for &b in page.data().iter() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (pages, h)
}

#[test]
fn file_bytes_match_the_owned_node_implementation() {
    // The node format and the split decisions are those of the
    // implementation that parsed every node into an owned `Node`; the
    // page placement is today's layout: the root at page 0, no meta page,
    // a split root's left half on a new page. A layout change re-records
    // the pin, and files of an older layout are rewritten to this one by
    // `BTreeIndex::upgrade`.
    let sm = sm();
    let w = sm.apply_section();
    let idx = BTreeIndex::create(&w).unwrap();
    let key = |i: u32| {
        keys::encode_bytes(format!("k{}", i.wrapping_mul(2_654_435_761) % 5000).as_bytes())
    };
    for i in 0..6000u32 {
        idx.insert(&w, &key(i), oid(i)).unwrap();
    }
    for i in (0..6000u32).step_by(3) {
        assert!(idx.delete(&w, &key(i), oid(i)).unwrap());
    }
    for i in 6000..6500u32 {
        idx.insert(&w, &key(i), oid(i)).unwrap();
    }
    let all = idx.scan_all(&sm).unwrap();
    assert_eq!(all.len(), 4500);
    assert!(all
        .windows(2)
        .all(|w| (&w[0].0, w[0].1) < (&w[1].0, w[1].1)));
    assert_eq!(idx.height(&sm).unwrap(), 2);
    assert_eq!(file_fingerprint(&sm, &idx), (61, 4_934_225_561_788_985_684));
}

/// Pool requests (hits and misses) made by `f`.
fn requests_during<R>(sm: &StorageManager, f: impl FnOnce() -> R) -> (u64, R) {
    sm.reset_profile();
    let out = f();
    let io = sm.io_profile();
    (io.pool_hits + io.pool_misses, out)
}

#[test]
fn a_descent_requests_one_page_per_level() {
    let sm = sm();
    let w = sm.apply_section();
    let entries: Vec<Entry> = (0..100_000i64)
        .map(|i| (keys::encode_i64(i * 2).to_vec(), oid(i as u32)))
        .collect();
    let idx = BTreeIndex::bulk_load(&w, &entries, 0.9).unwrap();
    let height = u64::from(idx.height(&sm).unwrap());
    assert_eq!(height, 3);
    // A lookup: the root, the internal level, one leaf.
    let (n, hits) = requests_during(&sm, || idx.lookup(&sm, &keys::encode_i64(5000)).unwrap());
    assert_eq!((n, hits.len()), (height, 1));
    // A range over ~140 entries per leaf crosses into further leaves,
    // one request each.
    let (n, hits) = requests_during(&sm, || {
        idx.range(&sm, &keys::encode_i64(0), &keys::encode_i64(999))
            .unwrap()
    });
    assert_eq!(hits.len(), 500);
    let leaves = n - (height - 1);
    assert!((4..=5).contains(&leaves), "{leaves} leaves for 500 entries");
    // An insert and a delete that split nothing: each page once.
    let (n, ()) = requests_during(&sm, || {
        idx.insert(&w, &keys::encode_i64(5001), oid(1_000_000))
            .unwrap();
    });
    assert_eq!(n, height, "insert");
    let (n, found) = requests_during(&sm, || {
        idx.delete(&w, &keys::encode_i64(5001), oid(1_000_000))
            .unwrap()
    });
    assert_eq!((n, found), (height, true), "delete");
    let (n, found) = requests_during(&sm, || {
        idx.delete(&w, &keys::encode_i64(5001), oid(1_000_000))
            .unwrap()
    });
    assert_eq!((n, found), (height, false), "delete of a missing entry");
}

#[test]
fn a_child_pointer_cycle_is_corrupt_not_a_hang() {
    use fieldrep_btree::node::{NodeView, Payload};
    use fieldrep_storage::{PageId, StorageError};
    let sm = sm();
    let w = sm.apply_section();
    let entries: Vec<Entry> = (0..1000i64)
        .map(|i| (keys::encode_i64(i).to_vec(), oid(i as u32)))
        .collect();
    let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
    assert_eq!(idx.height(&sm).unwrap(), 2);
    // Every child of the root points back at the root.
    let root = sm.pool().fetch(PageId::new(idx.file, 0)).unwrap();
    let mut node = NodeView::new(&root.data()[..]).unwrap().to_node().unwrap();
    for (_, payload) in &mut node.entries {
        *payload = Payload::Child(0);
    }
    node.serialize(root.data_mut().whole_mut());
    let key = keys::encode_i64(3);
    let cycle = |r: Result<(), StorageError>| {
        assert!(
            matches!(&r, Err(StorageError::Corrupt(m)) if m.contains("cycles")),
            "{r:?}"
        );
    };
    cycle(idx.lookup(&sm, &key).map(drop));
    cycle(idx.scan_all(&sm).map(drop));
    cycle(idx.height(&sm).map(drop));
    cycle(idx.entry_count(&sm).map(drop));
    cycle(idx.insert(&w, &key, oid(5000)));
    cycle(idx.delete(&w, &key, oid(3)).map(drop));
}

#[test]
fn a_leaf_chain_cycle_is_corrupt_not_a_hang() {
    use fieldrep_btree::node::NodeView;
    use fieldrep_storage::{PageId, StorageError};
    let sm = sm();
    let w = sm.apply_section();
    let entries: Vec<Entry> = (0..1000i64)
        .map(|i| (keys::encode_i64(i).to_vec(), oid(i as u32)))
        .collect();
    let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
    // The first leaf (page 1) names itself as its successor.
    let leaf = sm.pool().fetch(PageId::new(idx.file, 1)).unwrap();
    let last = {
        let node = NodeView::new(&leaf.data()[..]).unwrap().to_node().unwrap();
        let (comp, _) = node.entries.last().unwrap().clone();
        comp[..comp.len() - 8].to_vec()
    };
    leaf.data_mut().page(|pg| pg.set_next_page(Some(1)));
    drop(leaf);
    let cycle = |r: Result<(), StorageError>| {
        assert!(
            matches!(&r, Err(StorageError::Corrupt(m)) if m.contains("cycles")),
            "{r:?}"
        );
    };
    cycle(idx.lookup(&sm, &last).map(drop));
    let (lo, hi) = (keys::encode_i64(0), keys::encode_i64(999));
    cycle(idx.range(&sm, &lo, &hi).map(drop));
    cycle(idx.scan_all(&sm).map(drop));
    cycle(idx.entry_count(&sm).map(drop));
    // A key inside the leaf never leaves it.
    assert_eq!(idx.lookup(&sm, &keys::encode_i64(0)).unwrap(), [oid(0)]);
}

#[test]
fn a_file_with_a_meta_page_is_upgraded_once_in_place() {
    use fieldrep_storage::{PageId, PageKind, PageMut, StorageError};
    let sm = sm();
    let w = sm.apply_section();
    for n in [100i64, 20_000] {
        let entries: Vec<Entry> = (0..n)
            .map(|i| (keys::encode_i64(i * 3).to_vec(), oid(i as u32)))
            .collect();
        let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
        let height = idx.height(&sm).unwrap();
        // The older layout: page 0 a meta page naming the root (u32 at
        // byte 40), the height (u16 at 44) and the entry count (u64 at
        // 46); the root on a page of its own.
        let page0 = sm.pool().fetch(PageId::new(idx.file, 0)).unwrap();
        let (root_pid, old_root) = sm.pool().new_page(idx.file).unwrap();
        old_root
            .data_mut()
            .whole_mut()
            .copy_from_slice(&page0.data()[..]);
        {
            let mut data = page0.data_mut();
            let data = data.whole_mut();
            data.fill(0);
            PageMut::new(data).init(PageKind::Meta);
            data[40..44].copy_from_slice(&root_pid.page.to_le_bytes());
            data[44..46].copy_from_slice(&height.to_le_bytes());
            data[46..54].copy_from_slice(&(n as u64).to_le_bytes());
        }
        assert!(matches!(idx.scan_all(&sm), Err(StorageError::Corrupt(_))));
        assert!(idx.upgrade(&w).unwrap(), "rewritten");
        assert!(!idx.upgrade(&w).unwrap(), "once");
        assert_eq!(idx.height(&sm).unwrap(), height);
        assert_eq!(idx.entry_count(&sm).unwrap(), n as u64);
        assert_eq!(idx.scan_all(&sm).unwrap(), entries);
        let (lo, hi) = (keys::encode_i64(30), keys::encode_i64(59));
        assert_eq!(idx.range(&sm, &lo, &hi).unwrap(), entries[10..20].to_vec());
        // It grows like a tree built in today's layout.
        for i in 0..2000i64 {
            idx.insert(&w, &keys::encode_i64(i * 3 + 1), oid(100_000 + i as u32))
                .unwrap();
        }
        assert_eq!(idx.entry_count(&sm).unwrap(), n as u64 + 2000);
    }
}
