//! Property tests: the slotted page and the heap file must behave like an
//! in-memory map from handle → payload under arbitrary operation sequences
//! (DESIGN.md invariant 4).

use fieldrep_storage::{
    HeapFile, PageKind, PageMut, PagePins, RecordFlags, RecordHeader, StorageManager, PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum PageOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
}

fn page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        3 => proptest::collection::vec(any::<u8>(), 0..300).prop_map(PageOp::Insert),
        1 => (0..64usize).prop_map(PageOp::Delete),
        2 => ((0..64usize), proptest::collection::vec(any::<u8>(), 0..300))
            .prop_map(|(i, p)| PageOp::Update(i, p)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random insert/delete/update sequences on one page track a model map.
    #[test]
    fn slotted_page_matches_model(ops in proptest::collection::vec(page_op(), 1..120)) {
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut pg = PageMut::new(&mut buf);
        pg.init(PageKind::Heap);
        let hdr = RecordHeader { type_tag: 7, flags: RecordFlags::Normal };

        // model: slot -> payload
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        let mut live: Vec<u16> = Vec::new();

        for op in ops {
            match op {
                PageOp::Insert(p) => {
                    if let Some(slot) = pg.insert(hdr, &p).unwrap() {
                        prop_assert!(!model.contains_key(&slot), "slot reused while live");
                        model.insert(slot, p);
                        live.push(slot);
                    } else {
                        // A refusal must mean the page truly lacks room.
                        prop_assert!(!pg.view().can_fit(p.len()));
                    }
                }
                PageOp::Delete(i) => {
                    if live.is_empty() { continue; }
                    let slot = live.remove(i % live.len());
                    pg.delete(slot).unwrap();
                    model.remove(&slot);
                }
                PageOp::Update(i, p) => {
                    if live.is_empty() { continue; }
                    let slot = live[i % live.len()];
                    if pg.update(slot, hdr, &p).unwrap() {
                        model.insert(slot, p);
                    }
                    // A false return leaves the record unchanged; model keeps old.
                }
            }
            // Full check after every op.
            let v = pg.view();
            prop_assert_eq!(v.live_records() as usize, model.len());
            for (&slot, payload) in &model {
                let (h, got) = v.record(slot).unwrap();
                prop_assert_eq!(h.type_tag, 7);
                prop_assert_eq!(got, &payload[..]);
            }
        }
    }
}

#[derive(Clone, Debug)]
enum HeapOp {
    Insert(u8, u16), // fill byte, length
    Delete(usize),
    Update(usize, u8, u16), // fill byte, new length (may force forwarding)
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        3 => (any::<u8>(), 1..400u16).prop_map(|(b, l)| HeapOp::Insert(b, l)),
        1 => (0..1000usize).prop_map(HeapOp::Delete),
        3 => ((0..1000usize), any::<u8>(), 1..1500u16).prop_map(|(i, b, l)| HeapOp::Update(i, b, l)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Heap files keep OIDs stable (through forwarding) and scans complete.
    #[test]
    fn heap_file_matches_model(ops in proptest::collection::vec(heap_op(), 1..150)) {
        let sm = StorageManager::in_memory(256);
        let hf = HeapFile::create(&sm).unwrap();
        let mut model: Vec<(fieldrep_storage::Oid, Vec<u8>)> = Vec::new();

        for op in ops {
            match op {
                HeapOp::Insert(b, l) => {
                    let payload = vec![b; l as usize];
                    let oid = hf.rec_insert(&sm.apply_section(), &PagePins::none(), 9, &payload).unwrap();
                    model.push((oid, payload));
                }
                HeapOp::Delete(i) => {
                    if model.is_empty() { continue; }
                    let (oid, _) = model.remove(i % model.len());
                    hf.rec_delete(&sm.apply_section(), &PagePins::none(), oid).unwrap();
                    prop_assert!(hf.read(&sm, oid).is_err());
                }
                HeapOp::Update(i, b, l) => {
                    if model.is_empty() { continue; }
                    let idx = i % model.len();
                    let payload = vec![b; l as usize];
                    let oid = model[idx].0;
                    hf.rec_update(&sm.apply_section(), &PagePins::none(), oid, &payload).unwrap();
                    model[idx].1 = payload;
                }
            }
        }

        // Point reads.
        for (oid, payload) in &model {
            let (tag, got) = hf.read(&sm, *oid).unwrap();
            prop_assert_eq!(tag, 9);
            prop_assert_eq!(&got, payload);
        }
        // Scan sees exactly the live set, each once.
        let mut seen: HashMap<fieldrep_storage::Oid, Vec<u8>> = HashMap::new();
        let mut scan = hf.scan(&sm).unwrap();
        while let Some((oid, tag, body)) = scan.next_record().unwrap() {
            prop_assert_eq!(tag, 9);
            prop_assert!(seen.insert(oid, body).is_none());
        }
        prop_assert_eq!(seen.len(), model.len());
        for (oid, payload) in &model {
            prop_assert_eq!(&seen[oid], payload);
        }

        // Cold restart: flush, then everything still reads back.
        sm.flush_all().unwrap();
        for (oid, payload) in &model {
            prop_assert_eq!(&hf.read(&sm, *oid).unwrap().1, payload);
        }
    }
}
