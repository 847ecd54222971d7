//! Property test: the B⁺-tree must agree with a sorted in-memory model
//! under random insert/delete/range workloads (DESIGN.md invariant 5).

use fieldrep_btree::{keys::encode_i64, BTreeIndex};
use fieldrep_storage::{FileId, Oid, StorageManager};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Clone, Debug)]
enum Op {
    Insert(i16, u16),
    Delete(usize),
    Range(i16, i16),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<i16>(), any::<u16>()).prop_map(|(k, o)| Op::Insert(k, o)),
        2 => (0..4096usize).prop_map(Op::Delete),
        1 => (any::<i16>(), any::<i16>()).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

fn mkoid(o: u16) -> Oid {
    Oid::new(FileId(3), o as u32, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn btree_matches_sorted_model(ops in proptest::collection::vec(op(), 1..400)) {
        let sm = StorageManager::in_memory(1024);
        let w = sm.apply_section();
        let idx = BTreeIndex::create(&w).unwrap();
        // model: set of (key, oid-number)
        let mut model: BTreeSet<(i16, u16)> = BTreeSet::new();

        for op in ops {
            match op {
                Op::Insert(k, o) => {
                    if model.insert((k, o)) {
                        idx.insert(&w, &encode_i64(k as i64), mkoid(o)).unwrap();
                    } else {
                        prop_assert!(idx.insert(&w, &encode_i64(k as i64), mkoid(o)).is_err());
                    }
                }
                Op::Delete(i) => {
                    if model.is_empty() { continue; }
                    let pick = *model.iter().nth(i % model.len()).unwrap();
                    model.remove(&pick);
                    prop_assert!(idx.delete(&w, &encode_i64(pick.0 as i64), mkoid(pick.1)).unwrap());
                    prop_assert!(!idx.delete(&w, &encode_i64(pick.0 as i64), mkoid(pick.1)).unwrap());
                }
                Op::Range(lo, hi) => {
                    let got = idx.range(&sm, &encode_i64(lo as i64), &encode_i64(hi as i64)).unwrap();
                    let want: Vec<(i16, u16)> = model.range((lo, 0)..=(hi, u16::MAX)).copied().collect();
                    prop_assert_eq!(got.len(), want.len());
                    for ((gk, go), (wk, wo)) in got.iter().zip(&want) {
                        prop_assert_eq!(fieldrep_btree::keys::decode_i64(gk), *wk as i64);
                        prop_assert_eq!(*go, mkoid(*wo));
                    }
                }
            }
        }

        prop_assert_eq!(idx.entry_count(&sm).unwrap(), model.len() as u64);
        // Full scan equals full model.
        let all = idx.scan_all(&sm).unwrap();
        prop_assert_eq!(all.len(), model.len());
        for ((gk, go), (wk, wo)) in all.iter().zip(model.iter()) {
            prop_assert_eq!(fieldrep_btree::keys::decode_i64(gk), *wk as i64);
            prop_assert_eq!(*go, mkoid(*wo));
        }
    }
}
