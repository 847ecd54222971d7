//! Property test: the borrowed [`NodeView`] reads a node page exactly as
//! the owned [`Node`] it was serialized from — same entries, same routing,
//! same range scan — over random leaves and internal nodes
//! (variable-length keys, duplicate user keys ordered by OID, empty leaves,
//! single-entry internals, probe keys below the first min-key as after
//! deletes).

use fieldrep_btree::node::{Node, NodeView, Payload};
use fieldrep_storage::{FileId, Oid, PAGE_SIZE};
use proptest::prelude::*;

/// Short keys over a three-letter alphabet: prefixes and duplicates are
/// the common case, not the rare one.
fn key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0..3u8, 0..6)
}

fn mkoid(o: u16) -> Oid {
    Oid::new(FileId(2), u32::from(o), o % 7)
}

/// A node with sorted, unique keys. Leaf keys are composite (user key
/// followed by the OID), so equal user keys order by OID.
fn node(is_leaf: bool, raw: Vec<(Vec<u8>, u16)>, next: Option<u32>) -> Node {
    let mut node = Node::new(is_leaf);
    for (mut k, o) in raw {
        let payload = if is_leaf {
            k.extend_from_slice(&mkoid(o).to_bytes());
            Payload::Rid(mkoid(o))
        } else {
            Payload::Child(u32::from(o))
        };
        node.entries.push((k, payload));
    }
    node.entries.sort_by(|a, b| a.0.cmp(&b.0));
    node.entries.dedup_by(|a, b| a.0 == b.0);
    node.next_leaf = if is_leaf { next } else { None };
    node
}

/// The owned node's routing rule, as `Node::route` had it: the last entry
/// whose key is ≤ `key`, or the first entry if `key` precedes all.
fn route_owned(node: &Node, key: &[u8]) -> (usize, u32) {
    let idx = node
        .entries
        .partition_point(|(k, _)| k.as_slice() <= key)
        .saturating_sub(1);
    match node.entries[idx].1 {
        Payload::Child(c) => (idx, c),
        Payload::Rid(_) => panic!("internal node holds child payloads"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn view_copies_out_the_node_it_was_serialized_from(
        is_leaf in any::<bool>(),
        raw in proptest::collection::vec((key(), any::<u16>()), 0..80),
        next in proptest::option::of(1..9999u32),
    ) {
        let node = node(is_leaf, raw, next);
        let mut page = vec![0u8; PAGE_SIZE];
        node.serialize(&mut page);
        let back = NodeView::new(&page).unwrap().to_node().unwrap();
        prop_assert_eq!(back.is_leaf, node.is_leaf);
        prop_assert_eq!(back.next_leaf, node.next_leaf);
        prop_assert_eq!(back.entries, node.entries);
    }

    #[test]
    fn view_routes_like_the_owned_node(
        raw in proptest::collection::vec((key(), any::<u16>()), 1..80),
        probes in proptest::collection::vec(key(), 1..20),
    ) {
        let node = node(false, raw, None);
        let mut page = vec![0u8; PAGE_SIZE];
        node.serialize(&mut page);
        let view = NodeView::new(&page).unwrap();
        for probe in probes {
            prop_assert_eq!(view.route(&probe).unwrap(), route_owned(&node, &probe));
        }
    }

    #[test]
    fn view_range_scans_like_the_owned_leaf(
        raw in proptest::collection::vec((key(), 0..4u16), 0..80),
        next in proptest::option::of(1..9999u32),
        probes in proptest::collection::vec((key(), key()), 1..20),
    ) {
        let node = node(true, raw, next);
        let mut page = vec![0u8; PAGE_SIZE];
        node.serialize(&mut page);
        let view = NodeView::new(&page).unwrap();
        for (lo, mut hi) in probes {
            // An inclusive upper bound on a user key covers all its OIDs.
            hi.extend_from_slice(&[0xFF; 8]);
            for lo in [Some(lo.as_slice()), None] {
                let from = lo.map_or(0, |lo| node.lower_bound(lo));
                let want: Vec<_> = node.entries[from..]
                    .iter()
                    .take_while(|(k, _)| k.as_slice() <= hi.as_slice())
                    .map(|(k, p)| (k.clone(), *p))
                    .collect();
                let ran_out = from + want.len() == node.entries.len();
                let mut got = Vec::new();
                let more = view
                    .visit_range(lo, &hi, |k, oid| got.push((k.to_vec(), Payload::Rid(oid))))
                    .unwrap();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(more, if ran_out { node.next_leaf } else { None });
            }
        }
    }
}
