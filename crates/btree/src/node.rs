//! On-page B⁺-tree node format.
//!
//! Reads never materialise a node: [`NodeView`] borrows the page bytes
//! (under the frame's read latch) and routes or scans them in place, so a
//! search allocates nothing per entry. Only a node that is about to be
//! *mutated* — the leaf of an insert or delete, and the nodes on a split
//! path — is copied out into an owned [`Node`] ([`NodeView::to_node`]),
//! changed, and serialized back. The view is the only decoder, so there is
//! one set of bounds checks: a page that is not a well-formed node is a
//! [`StorageError::Corrupt`], never a panic.
//!
//! A node page reuses the common 40-byte page header (the page kind
//! distinguishes internal from leaf; the header's next-page field chains
//! leaves left-to-right), followed by:
//!
//! ```text
//! offset 40: entry count (u16)
//! offset 42: entries, each  [klen u16 | key bytes | payload]
//! ```
//!
//! * Internal payload: a 4-byte child page number. Entry keys are the
//!   minimum key of the child's subtree ("min-key" routing), so entry `i`
//!   routes all search keys in `[key_i, key_{i+1})`.
//! * Leaf payload: an 8-byte [`Oid`].
//!
//! Entries are variable-length and carry no offset directory, so a search
//! within a node is a forward walk comparing keys in place.
//!
//! All keys in a tree are unique because the index layer appends the OID
//! to the user key; duplicates of a user key therefore order by OID.

use fieldrep_storage::{Oid, PageKind, PageMut, PageView, Result, StorageError, PAGE_SIZE};

/// Byte offset of the entry count within a node page.
const OFF_COUNT: usize = 40;
/// Byte offset where entries begin.
const OFF_ENTRIES: usize = 42;
/// Maximum total bytes of serialized entries per node.
pub const NODE_CAPACITY: usize = PAGE_SIZE - OFF_ENTRIES;

/// Payload carried by a node entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Payload {
    /// Child page number (internal nodes).
    Child(u32),
    /// Record OID (leaf nodes).
    Rid(Oid),
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::Child(_) => 4,
            Payload::Rid(_) => 8,
        }
    }
}

/// Serialized size of one entry.
pub fn entry_size(key: &[u8], payload: &Payload) -> usize {
    2 + key.len() + payload.len()
}

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("btree node: {what}"))
}

/// A borrowed view of a node page: the header fields decoded, the entries
/// left where they are.
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'a> {
    is_leaf: bool,
    count: usize,
    next_leaf: Option<u32>,
    /// The entry area (everything after the entry count).
    body: &'a [u8],
}

impl<'a> NodeView<'a> {
    /// View a page buffer as a node. Fails on a page that is not a B⁺-tree
    /// node; entries are bounds-checked as they are walked.
    pub fn new(data: &'a [u8]) -> Result<NodeView<'a>> {
        let body = data
            .get(OFF_ENTRIES..)
            .ok_or_else(|| corrupt("short page"))?;
        let page = PageView::new(data);
        let is_leaf = match page.kind()? {
            PageKind::BTreeLeaf => true,
            PageKind::BTreeInternal => false,
            other => return Err(corrupt(&format!("page kind is {other:?}"))),
        };
        Ok(NodeView {
            is_leaf,
            count: u16::from_le_bytes([data[OFF_COUNT], data[OFF_COUNT + 1]]) as usize,
            next_leaf: page.next_page(),
            body,
        })
    }

    /// Whether the node is a leaf (its page kind says so).
    pub fn is_leaf(&self) -> bool {
        self.is_leaf
    }

    /// The next leaf in the chain (leaves only).
    pub fn next_leaf(&self) -> Option<u32> {
        self.next_leaf
    }

    /// The entries in key order, borrowed from the page. An entry whose
    /// length runs past the page yields `Corrupt` and ends the walk.
    pub fn entries(&self) -> Entries<'a> {
        Entries {
            rest: self.body,
            left: self.count,
            payload_len: if self.is_leaf { 8 } else { 4 },
        }
    }

    /// For internal nodes: the slot and child to descend into for `key` —
    /// the last entry whose key is ≤ `key`, or the first entry if `key`
    /// precedes all (min-keys may be stale-low after deletions, which is
    /// harmless).
    pub fn route(&self, key: &[u8]) -> Result<(usize, u32)> {
        if self.is_leaf {
            return Err(corrupt("leaf where an internal node was expected"));
        }
        let mut pick = None;
        for (i, entry) in self.entries().enumerate() {
            let (k, payload) = entry?;
            if i > 0 && k > key {
                break;
            }
            pick = Some((i, child_of(payload)));
        }
        pick.ok_or_else(|| corrupt("empty internal node"))
    }

    /// For leaves: call `f(key, oid)` for each entry from the first with
    /// key ≥ `lo` (from the first entry when `lo` is `None`) while keys stay
    /// ≤ `hi`. `lo` is not compared again once an entry has passed it, and
    /// the walk stops at the first key > `hi`. Returns the leaf the range
    /// continues in: the next one in the chain, unless such a key was seen.
    pub fn visit_range(
        &self,
        mut lo: Option<&[u8]>,
        hi: &[u8],
        mut f: impl FnMut(&[u8], Oid),
    ) -> Result<Option<u32>> {
        if !self.is_leaf {
            return Err(corrupt("internal node where a leaf was expected"));
        }
        for entry in self.entries() {
            let (k, payload) = entry?;
            if lo.is_some_and(|lo| k < lo) {
                continue;
            }
            lo = None;
            if k > hi {
                return Ok(None);
            }
            f(k, Oid::from_bytes(payload));
        }
        Ok(self.next_leaf)
    }

    /// Copy the node out for mutation.
    pub fn to_node(&self) -> Result<Node> {
        let mut entries = Vec::with_capacity(self.count);
        for entry in self.entries() {
            let (k, payload) = entry?;
            let payload = if self.is_leaf {
                Payload::Rid(Oid::from_bytes(payload))
            } else {
                Payload::Child(child_of(payload))
            };
            entries.push((k.to_vec(), payload));
        }
        Ok(Node {
            is_leaf: self.is_leaf,
            entries,
            next_leaf: self.next_leaf,
        })
    }
}

/// Decode an internal entry's payload (always 4 bytes, see [`Entries`]).
fn child_of(payload: &[u8]) -> u32 {
    u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]])
}

/// Forward walk over a node's entries: `(key, payload bytes)`, the payload
/// 8 bytes (an OID) in a leaf and 4 (a child page) in an internal node.
#[derive(Clone, Debug)]
pub struct Entries<'a> {
    rest: &'a [u8],
    left: usize,
    payload_len: usize,
}

impl<'a> Iterator for Entries<'a> {
    type Item = Result<(&'a [u8], &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let entry = self.rest.split_first_chunk::<2>().and_then(|(klen, rest)| {
            let klen = u16::from_le_bytes(*klen) as usize;
            let (key, rest) = rest.split_at_checked(klen)?;
            let (payload, rest) = rest.split_at_checked(self.payload_len)?;
            self.rest = rest;
            Some((key, payload))
        });
        if entry.is_none() {
            self.left = 0;
        }
        Some(entry.ok_or_else(|| corrupt("entry runs past the page")))
    }
}

/// An owned, parsed B⁺-tree node.
#[derive(Clone, Debug)]
pub struct Node {
    /// True for leaves, false for internal nodes.
    pub is_leaf: bool,
    /// Sorted entries.
    pub entries: Vec<(Vec<u8>, Payload)>,
    /// Next leaf (leaves only).
    pub next_leaf: Option<u32>,
}

impl Node {
    /// A fresh empty node.
    pub fn new(is_leaf: bool) -> Node {
        Node {
            is_leaf,
            entries: Vec::new(),
            next_leaf: None,
        }
    }

    /// Total serialized size of the entries.
    pub fn used_bytes(&self) -> usize {
        self.entries.iter().map(|(k, p)| entry_size(k, p)).sum()
    }

    /// Serialize the node into a page buffer (formats the page).
    pub fn serialize(&self, data: &mut [u8]) {
        debug_assert!(self.used_bytes() <= NODE_CAPACITY, "node overflow");
        let mut pg = PageMut::new(data);
        pg.init(if self.is_leaf {
            PageKind::BTreeLeaf
        } else {
            PageKind::BTreeInternal
        });
        pg.set_next_page(self.next_leaf);
        data[OFF_COUNT..OFF_COUNT + 2].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        let mut off = OFF_ENTRIES;
        for (key, payload) in &self.entries {
            data[off..off + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
            off += 2;
            data[off..off + key.len()].copy_from_slice(key);
            off += key.len();
            match payload {
                Payload::Rid(oid) => {
                    data[off..off + 8].copy_from_slice(&oid.to_bytes());
                    off += 8;
                }
                Payload::Child(c) => {
                    data[off..off + 4].copy_from_slice(&c.to_le_bytes());
                    off += 4;
                }
            }
        }
    }

    /// Index of the first entry with key ≥ `key` (binary search).
    pub fn lower_bound(&self, key: &[u8]) -> usize {
        self.entries.partition_point(|(k, _)| k.as_slice() < key)
    }

    /// Split roughly in half by bytes; returns the new right sibling.
    /// `self` keeps the left half.
    pub fn split(&mut self) -> Node {
        let total = self.used_bytes();
        let mut acc = 0;
        let mut cut = self.entries.len();
        for (i, (k, p)) in self.entries.iter().enumerate() {
            acc += entry_size(k, p);
            if acc >= total / 2 {
                cut = i + 1;
                break;
            }
        }
        // Keep at least one entry on each side.
        let cut = cut.clamp(1, self.entries.len() - 1);
        let right_entries = self.entries.split_off(cut);
        Node {
            is_leaf: self.is_leaf,
            entries: right_entries,
            next_leaf: self.next_leaf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldrep_storage::FileId;

    fn oid(n: u32) -> Oid {
        Oid::new(FileId(1), n, 0)
    }

    fn parse(page: &[u8]) -> Result<Node> {
        NodeView::new(page)?.to_node()
    }

    #[test]
    fn leaf_roundtrip() {
        let mut n = Node::new(true);
        n.entries.push((b"alpha".to_vec(), Payload::Rid(oid(1))));
        n.entries.push((b"beta".to_vec(), Payload::Rid(oid(2))));
        n.next_leaf = Some(7);
        let mut page = vec![0u8; PAGE_SIZE];
        n.serialize(&mut page);
        let back = parse(&page).unwrap();
        assert!(back.is_leaf);
        assert_eq!(back.entries, n.entries);
        assert_eq!(back.next_leaf, Some(7));
    }

    #[test]
    fn internal_roundtrip_and_route() {
        let mut n = Node::new(false);
        n.entries.push((b"".to_vec(), Payload::Child(10)));
        n.entries.push((b"m".to_vec(), Payload::Child(20)));
        n.entries.push((b"t".to_vec(), Payload::Child(30)));
        let mut page = vec![0u8; PAGE_SIZE];
        n.serialize(&mut page);
        let back = NodeView::new(&page).unwrap();
        assert_eq!(back.route(b"a").unwrap(), (0, 10));
        assert_eq!(back.route(b"m").unwrap(), (1, 20));
        assert_eq!(back.route(b"n").unwrap(), (1, 20));
        assert_eq!(back.route(b"z").unwrap(), (2, 30));
        // Keys preceding the first entry still route to the first child.
        let mut n2 = Node::new(false);
        n2.entries.push((b"g".to_vec(), Payload::Child(5)));
        n2.serialize(&mut page);
        assert_eq!(NodeView::new(&page).unwrap().route(b"a").unwrap(), (0, 5));
    }

    #[test]
    fn split_halves_by_bytes() {
        let mut n = Node::new(true);
        for i in 0..100u32 {
            n.entries
                .push((format!("key{i:04}").into_bytes(), Payload::Rid(oid(i))));
        }
        n.next_leaf = Some(99);
        let right = n.split();
        assert!(!n.entries.is_empty() && !right.entries.is_empty());
        assert_eq!(n.entries.len() + right.entries.len(), 100);
        assert!(n.entries.last().unwrap().0 < right.entries[0].0);
        // Left kept ~half the bytes.
        let l = n.used_bytes() as f64;
        let r = right.used_bytes() as f64;
        assert!((l / (l + r) - 0.5).abs() < 0.1);
        // Right inherits the next pointer.
        assert_eq!(right.next_leaf, Some(99));
    }

    #[test]
    fn capacity_check() {
        let mut n = Node::new(true);
        let key = vec![7u8; 30];
        let e = entry_size(&key, &Payload::Rid(oid(0)));
        let mut added = 0;
        while n.used_bytes() + e <= NODE_CAPACITY {
            n.entries.push((key.clone(), Payload::Rid(oid(added))));
            added += 1;
        }
        assert_eq!(added as usize, NODE_CAPACITY / e);
        let mut page = vec![0u8; PAGE_SIZE];
        n.serialize(&mut page); // must not panic
        assert_eq!(parse(&page).unwrap().entries.len(), added as usize);
    }

    fn corrupt_msg<T: std::fmt::Debug>(r: Result<T>) -> String {
        match r {
            Err(StorageError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn hostile_pages_are_typed_errors() {
        // Not a node at all: a heap page, and an unformatted one.
        let mut page = vec![0u8; PAGE_SIZE];
        assert!(NodeView::new(&page).is_err());
        assert!(parse(&page).is_err());
        PageMut::new(&mut page).init(PageKind::Heap);
        assert!(corrupt_msg(NodeView::new(&page)).contains("page kind"));
        assert!(NodeView::new(&page[..10]).is_err());

        // Entry count running past the page.
        let mut leaf = Node::new(true);
        leaf.entries.push((b"k".to_vec(), Payload::Rid(oid(1))));
        leaf.serialize(&mut page);
        page[OFF_COUNT..OFF_COUNT + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let view = NodeView::new(&page).unwrap();
        let walked: Vec<_> = view.entries().collect();
        assert!(walked.len() < u16::MAX as usize, "walk ends at the error");
        assert!(corrupt_msg(walked.into_iter().collect::<Result<Vec<_>>>()).contains("past"));
        assert!(view.visit_range(None, &[0xFF; 9], |_, _| {}).is_err());
        assert!(view.to_node().is_err());

        // A klen running past the page.
        leaf.serialize(&mut page);
        page[OFF_ENTRIES..OFF_ENTRIES + 2].copy_from_slice(&5000u16.to_le_bytes());
        assert!(parse(&page).is_err());

        // Leaf where an internal node is expected, and the reverse.
        leaf.serialize(&mut page);
        let view = NodeView::new(&page).unwrap();
        assert!(corrupt_msg(view.route(b"k")).contains("leaf"));
        let mut internal = Node::new(false);
        internal.entries.push((b"".to_vec(), Payload::Child(3)));
        internal.serialize(&mut page);
        let view = NodeView::new(&page).unwrap();
        assert!(corrupt_msg(view.visit_range(None, b"z", |_, _| {})).contains("internal"));
        // An internal node with no entries routes nowhere.
        Node::new(false).serialize(&mut page);
        assert!(corrupt_msg(NodeView::new(&page).unwrap().route(b"k")).contains("empty"));
    }
}
