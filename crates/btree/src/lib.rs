//! # fieldrep-btree
//!
//! A B⁺-tree index manager over the `fieldrep-storage` page layer.
//!
//! The paper's evaluation assumes B⁺-tree indexes on the selection fields
//! of `R` and `S` (§6.2: "read and update queries always access R and S
//! through the indexes on field_r and field_s"), and §3.3.4 builds indexes
//! directly on replicated path values. This crate provides both, plus the
//! index components needed by the Gemstone-style path-index baseline.
//!
//! Design notes:
//!
//! * Keys are raw byte strings compared lexicographically; the [`keys`]
//!   module supplies order-preserving, prefix-free encoders for integers,
//!   floats and strings.
//! * Every stored key is made unique by appending the 8-byte OID of the
//!   indexed record, so duplicate user keys are supported and deletes are
//!   exact.
//! * Leaves are chained left-to-right for range scans.
//! * Deletion is lazy (no rebalancing): emptied leaves are skipped by
//!   scans and reclaimed only on rebuild. Real systems (e.g. PostgreSQL)
//!   make the same trade-off; the workloads of the paper never shrink
//!   indexes.
//! * [`BTreeIndex::bulk_load`] builds a tree bottom-up from sorted input,
//!   which is how the benchmark harness creates its 10⁴–5·10⁵-entry
//!   indexes, and how *clustered* indexes are produced (the heap file is
//!   written in key order first, then bulk-loaded).

pub mod keys;
pub mod node;

use fieldrep_obs::{metrics, names as obs_names, Span};
use fieldrep_storage::{
    ApplySection, FileId, Oid, PageId, PageKind, PageMut, Result, StorageError, StorageManager,
};
use node::{entry_size, Node, NodeView, Payload, NODE_CAPACITY};
use std::sync::{Arc, OnceLock};

/// Process-wide count of B⁺-tree node splits (`btree.splits`).
fn split_counter() -> &'static Arc<metrics::Counter> {
    static SPLITS: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    SPLITS.get_or_init(|| metrics::registry().counter(obs_names::BTREE_SPLITS))
}

/// Offsets within the meta page (page 0 of the index file).
const OFF_ROOT: usize = 40;
const OFF_HEIGHT: usize = 44;
const OFF_COUNT: usize = 46;

/// A B⁺-tree index stored in its own file. The handle is a plain file id;
/// all state lives on pages. The operations that write take an
/// [`ApplySection`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BTreeIndex {
    /// The index file. Page 0 is the meta page; the rest are nodes.
    pub file: FileId,
}

/// One `(user key, oid)` index entry.
pub type Entry = (Vec<u8>, Oid);

fn composite(key: &[u8], oid: Oid) -> Vec<u8> {
    let mut k = Vec::with_capacity(key.len() + 8);
    k.extend_from_slice(key);
    k.extend_from_slice(&oid.to_bytes());
    k
}

impl BTreeIndex {
    /// Create an empty index (meta page + one empty leaf as root).
    pub fn create(w: &ApplySection<'_>) -> Result<BTreeIndex> {
        let file = w.create_file()?;
        let (meta_pid, meta) = w.pool().new_page(file)?;
        debug_assert_eq!(meta_pid.page, 0);
        let (root_pid, root) = w.pool().new_page(file)?;
        Node::new(true).serialize(root.data_mut().whole_mut());
        {
            let mut data = meta.data_mut();
            PageMut::new(data.whole_mut()).init(PageKind::Meta);
            write_meta(data.whole_mut(), root_pid.page, 1, 0);
        }
        Ok(BTreeIndex { file })
    }

    /// Wrap an existing index file id (e.g. recorded in the catalog).
    pub fn open(file: FileId) -> BTreeIndex {
        BTreeIndex { file }
    }

    fn meta(&self, sm: &StorageManager) -> Result<(u32, u16, u64)> {
        let h = sm.pool().fetch(PageId::new(self.file, 0))?;
        let data = h.data();
        Ok(read_meta(&data[..]))
    }

    fn set_meta(&self, sm: &StorageManager, root: u32, height: u16, count: u64) -> Result<()> {
        let h = sm.pool().fetch(PageId::new(self.file, 0))?;
        write_meta(h.data_mut().whole_mut(), root, height, count);
        Ok(())
    }

    /// Number of entries in the index.
    pub fn entry_count(&self, sm: &StorageManager) -> Result<u64> {
        Ok(self.meta(sm)?.2)
    }

    /// Height of the tree (1 = root is a leaf).
    pub fn height(&self, sm: &StorageManager) -> Result<u16> {
        Ok(self.meta(sm)?.1)
    }

    /// Run `f` over a borrowed view of node `page`, under its frame's read
    /// latch. `f` must not call back into the pool: the latch is held.
    fn with_node<R>(
        &self,
        sm: &StorageManager,
        page: u32,
        f: impl FnOnce(NodeView<'_>) -> Result<R>,
    ) -> Result<R> {
        let h = sm.pool().fetch(PageId::new(self.file, page))?;
        let data = h.data();
        f(NodeView::new(&data[..])?)
    }

    /// Copy node `page` out for mutation.
    fn load_node(&self, sm: &StorageManager, page: u32) -> Result<Node> {
        self.with_node(sm, page, |n| n.to_node())
    }

    /// Descend from the root to the leaf whose key range holds `comp`,
    /// routing in place on each internal page.
    fn find_leaf(&self, sm: &StorageManager, root: u32, height: u16, comp: &[u8]) -> Result<u32> {
        let mut page = root;
        for _ in 1..height {
            page = self.with_node(sm, page, |n| n.route(comp))?.1;
        }
        Ok(page)
    }

    fn store_node(&self, sm: &StorageManager, page: u32, node: &Node) -> Result<()> {
        let h = sm.pool().fetch(PageId::new(self.file, page))?;
        node.serialize(h.data_mut().whole_mut());
        Ok(())
    }

    fn alloc_node(&self, sm: &StorageManager, node: &Node) -> Result<u32> {
        let (pid, h) = sm.pool().new_page(self.file)?;
        node.serialize(h.data_mut().whole_mut());
        Ok(pid.page)
    }

    /// Insert `(key, oid)`. Duplicate user keys are allowed; the exact
    /// `(key, oid)` pair must be unique (inserting it twice is an error
    /// surfaced as `Corrupt`, because the replication engine relies on
    /// exact-once index maintenance).
    pub fn insert(&self, w: &ApplySection<'_>, key: &[u8], oid: Oid) -> Result<()> {
        let _span = Span::enter(obs_names::BTREE_INSERT);
        let comp = composite(key, oid);
        let (root, height, count) = self.meta(w)?;
        if let Some((sep, right_page)) = self.insert_rec(w, root, height, &comp, oid)? {
            // Root split: make a new root above.
            let old_root_min = self.min_key_of(w, root)?;
            let mut new_root = Node::new(false);
            new_root.entries.push((old_root_min, Payload::Child(root)));
            new_root.entries.push((sep, Payload::Child(right_page)));
            let new_root_page = self.alloc_node(w, &new_root)?;
            self.set_meta(w, new_root_page, height + 1, count + 1)?;
        } else {
            self.set_meta(w, root, height, count + 1)?;
        }
        Ok(())
    }

    fn min_key_of(&self, sm: &StorageManager, page: u32) -> Result<Vec<u8>> {
        self.with_node(sm, page, |n| {
            let first = n.entries().next().transpose()?;
            Ok(first.map(|(k, _)| k.to_vec()).unwrap_or_default())
        })
    }

    /// Recursive insert into the node at `level` (1 = leaf); returns
    /// `Some((min_key_of_new_right, new_page))` if this node split. Internal
    /// nodes are routed in place and copied out only when a child split
    /// hands them a separator to take.
    fn insert_rec(
        &self,
        sm: &StorageManager,
        page: u32,
        level: u16,
        comp: &[u8],
        oid: Oid,
    ) -> Result<Option<(Vec<u8>, u32)>> {
        let mut node = if level > 1 {
            let (slot, child) = self.with_node(sm, page, |n| n.route(comp))?;
            let Some((sep, right)) = self.insert_rec(sm, child, level - 1, comp, oid)? else {
                return Ok(None);
            };
            let mut node = self.load_node(sm, page)?;
            node.entries.insert(slot + 1, (sep, Payload::Child(right)));
            node
        } else {
            let mut node = self.load_node(sm, page)?;
            debug_assert!(node.is_leaf);
            let idx = node.lower_bound(comp);
            if node
                .entries
                .get(idx)
                .is_some_and(|(k, _)| k.as_slice() == comp)
            {
                return Err(StorageError::Corrupt(format!(
                    "duplicate (key, oid) insert into index {}",
                    self.file
                )));
            }
            node.entries.insert(idx, (comp.to_vec(), Payload::Rid(oid)));
            node
        };
        if node.used_bytes() <= NODE_CAPACITY {
            self.store_node(sm, page, &node)?;
            return Ok(None);
        }
        // Split.
        split_counter().inc();
        let mut right = node.split();
        let sep = right.entries[0].0.clone();
        let right_page = self.alloc_node(sm, &right)?;
        if node.is_leaf {
            right.next_leaf = node.next_leaf;
            node.next_leaf = Some(right_page);
            // `right` was serialized before the next_leaf fix-up; rewrite it.
            self.store_node(sm, right_page, &right)?;
        }
        self.store_node(sm, page, &node)?;
        Ok(Some((sep, right_page)))
    }

    /// Delete the exact `(key, oid)` entry. Returns `true` if it existed.
    pub fn delete(&self, w: &ApplySection<'_>, key: &[u8], oid: Oid) -> Result<bool> {
        let comp = composite(key, oid);
        let (root, height, count) = self.meta(w)?;
        let page = self.find_leaf(w, root, height, &comp)?;
        let mut leaf = self.load_node(w, page)?;
        debug_assert!(leaf.is_leaf);
        let idx = leaf.lower_bound(&comp);
        if leaf
            .entries
            .get(idx)
            .is_some_and(|(k, _)| k.as_slice() == comp)
        {
            leaf.entries.remove(idx);
            self.store_node(w, page, &leaf)?;
            self.set_meta(w, root, height, count - 1)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// All OIDs stored under exactly `key`, in OID order.
    pub fn lookup(&self, sm: &StorageManager, key: &[u8]) -> Result<Vec<Oid>> {
        let _span = Span::enter(obs_names::BTREE_LOOKUP);
        let mut out = Vec::new();
        self.for_each_in_range(sm, key, key, |_, oid| out.push(oid))?;
        Ok(out)
    }

    /// All `(key, oid)` entries with `lo ≤ key ≤ hi` (user keys, both
    /// inclusive), in key order.
    pub fn range(&self, sm: &StorageManager, lo: &[u8], hi: &[u8]) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        self.for_each_in_range(sm, lo, hi, |key, oid| out.push((key.to_vec(), oid)))?;
        Ok(out)
    }

    /// Visit every entry with `lo ≤ key ≤ hi` (user keys, both inclusive)
    /// in key order, as `f(user_key, oid)`, without materialising nodes or
    /// keys: each page is searched in place and `user_key` borrows from it.
    ///
    /// `f` runs while the leaf's frame is read-latched, so it must not call
    /// back into the storage manager (a fetch may need that very frame, or
    /// wait on the pool behind a writer that is waiting for this latch).
    /// Collect what is needed and act on it after the call returns.
    pub fn for_each_in_range(
        &self,
        sm: &StorageManager,
        lo: &[u8],
        hi: &[u8],
        mut f: impl FnMut(&[u8], Oid),
    ) -> Result<()> {
        let span = Span::enter(obs_names::BTREE_RANGE);
        let lo_comp = composite(lo, Oid::new(FileId(0), 0, 0));
        let mut hi_comp = hi.to_vec();
        hi_comp.extend_from_slice(&[0xFF; 8]);

        let (root, height, _) = self.meta(sm)?;
        let mut next = Some(self.find_leaf(sm, root, height, &lo_comp)?);
        // Only the first leaf can hold keys below `lo`; emptied
        // (lazily-deleted) leaves fall through to their successor.
        let mut lo = Some(lo_comp.as_slice());
        let mut entries = 0usize;
        while let Some(page) = next {
            next = self.with_node(sm, page, |leaf| {
                leaf.visit_range(lo, &hi_comp, |comp, oid| {
                    entries += 1;
                    f(&comp[..comp.len().saturating_sub(8)], oid);
                })
            })?;
            lo = None;
        }
        span.note("entries", entries);
        Ok(())
    }

    /// Every entry in the index, in key order.
    pub fn scan_all(&self, sm: &StorageManager) -> Result<Vec<Entry>> {
        self.range(sm, &[], &[0xFF; 64])
    }

    /// Build an index bottom-up from entries sorted by `(key, oid)`.
    ///
    /// `fill` is the leaf/internal fill factor in `(0, 1]`; the benchmark
    /// harness uses 1.0 for static files (the paper's sets never grow
    /// during an experiment).
    pub fn bulk_load(w: &ApplySection<'_>, entries: &[Entry], fill: f64) -> Result<BTreeIndex> {
        let span = Span::enter(obs_names::BTREE_BULK_LOAD);
        span.note("entries", entries.len());
        assert!(fill > 0.0 && fill <= 1.0, "bad fill factor");
        debug_assert!(
            entries
                .windows(2)
                .all(|w| composite(&w[0].0, w[0].1) < composite(&w[1].0, w[1].1)),
            "bulk_load input must be sorted by (key, oid) and unique"
        );
        let index = BTreeIndex::create(w)?;
        if entries.is_empty() {
            return Ok(index);
        }
        let budget = (((NODE_CAPACITY as f64) * fill) as usize).min(NODE_CAPACITY);

        // Build leaves.
        let mut leaf_nodes: Vec<Node> = Vec::new();
        let mut cur = Node::new(true);
        for (key, oid) in entries {
            let comp = composite(key, *oid);
            let sz = entry_size(&comp, &Payload::Rid(*oid));
            if !cur.entries.is_empty() && cur.used_bytes() + sz > budget {
                leaf_nodes.push(std::mem::replace(&mut cur, Node::new(true)));
            }
            cur.entries.push((comp, Payload::Rid(*oid)));
        }
        leaf_nodes.push(cur);

        // Allocate leaf pages, chain them, record min keys.
        let mut pages = Vec::with_capacity(leaf_nodes.len());
        for _ in 0..leaf_nodes.len() {
            let (pid, _h) = w.pool().new_page(index.file)?;
            pages.push(pid.page);
        }
        let mut level: Vec<(Vec<u8>, u32)> = Vec::with_capacity(leaf_nodes.len());
        for (i, mut n) in leaf_nodes.into_iter().enumerate() {
            n.next_leaf = pages.get(i + 1).copied();
            index.store_node(w, pages[i], &n)?;
            level.push((n.entries[0].0.clone(), pages[i]));
        }

        // Build internal levels until one node remains.
        let mut height = 1u16;
        while level.len() > 1 {
            let below = std::mem::take(&mut level);
            let mut nodes: Vec<Node> = Vec::new();
            let mut cur = Node::new(false);
            for (min_key, page) in below {
                let sz = entry_size(&min_key, &Payload::Child(page));
                if !cur.entries.is_empty() && cur.used_bytes() + sz > budget {
                    nodes.push(std::mem::replace(&mut cur, Node::new(false)));
                }
                cur.entries.push((min_key, Payload::Child(page)));
            }
            nodes.push(cur);
            for n in nodes {
                let page = index.alloc_node(w, &n)?;
                level.push((n.entries[0].0.clone(), page));
            }
            height += 1;
        }
        let root = level[0].1;
        index.set_meta(w, root, height, entries.len() as u64)?;
        Ok(index)
    }

    /// Number of pages in the index file.
    pub fn pages(&self, sm: &StorageManager) -> Result<u32> {
        sm.page_count(self.file)
    }
}

fn write_meta(data: &mut [u8], root: u32, height: u16, count: u64) {
    data[OFF_ROOT..OFF_ROOT + 4].copy_from_slice(&root.to_le_bytes());
    data[OFF_HEIGHT..OFF_HEIGHT + 2].copy_from_slice(&height.to_le_bytes());
    data[OFF_COUNT..OFF_COUNT + 8].copy_from_slice(&count.to_le_bytes());
}

fn read_meta(data: &[u8]) -> (u32, u16, u64) {
    let root = u32::from_le_bytes(data[OFF_ROOT..OFF_ROOT + 4].try_into().unwrap());
    let height = u16::from_le_bytes(data[OFF_HEIGHT..OFF_HEIGHT + 2].try_into().unwrap());
    let count = u64::from_le_bytes(data[OFF_COUNT..OFF_COUNT + 8].try_into().unwrap());
    (root, height, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use keys::encode_i64;

    fn sm() -> StorageManager {
        StorageManager::in_memory(512)
    }

    fn oid(n: u32) -> Oid {
        Oid::new(FileId(9), n / 64, (n % 64) as u16)
    }

    #[test]
    fn empty_index() {
        let sm = sm();
        let w = sm.apply_section();
        let idx = BTreeIndex::create(&w).unwrap();
        assert_eq!(idx.entry_count(&sm).unwrap(), 0);
        assert_eq!(idx.height(&sm).unwrap(), 1);
        assert!(idx.lookup(&sm, &encode_i64(5)).unwrap().is_empty());
        assert!(idx.scan_all(&sm).unwrap().is_empty());
    }

    #[test]
    fn insert_lookup_small() {
        let sm = sm();
        let w = sm.apply_section();
        let idx = BTreeIndex::create(&w).unwrap();
        for i in 0..100i64 {
            idx.insert(&w, &encode_i64(i), oid(i as u32)).unwrap();
        }
        assert_eq!(idx.entry_count(&sm).unwrap(), 100);
        for i in 0..100i64 {
            assert_eq!(
                idx.lookup(&sm, &encode_i64(i)).unwrap(),
                vec![oid(i as u32)]
            );
        }
        assert!(idx.lookup(&sm, &encode_i64(100)).unwrap().is_empty());
    }

    #[test]
    fn inserts_cause_splits_and_stay_sorted() {
        let sm = sm();
        let w = sm.apply_section();
        let idx = BTreeIndex::create(&w).unwrap();
        // Insert in a scrambled order to exercise splits everywhere.
        let n: i64 = 5000;
        let mut order: Vec<i64> = (0..n).collect();
        for i in 0..order.len() {
            let j = (i * 2654435761) % order.len();
            order.swap(i, j);
        }
        for &i in &order {
            idx.insert(&w, &encode_i64(i), oid(i as u32)).unwrap();
        }
        assert!(idx.height(&sm).unwrap() >= 2, "tree actually split");
        let all = idx.scan_all(&sm).unwrap();
        assert_eq!(all.len(), n as usize);
        for (i, (k, o)) in all.iter().enumerate() {
            assert_eq!(keys::decode_i64(k), i as i64);
            assert_eq!(*o, oid(i as u32));
        }
    }

    #[test]
    fn duplicate_user_keys() {
        let sm = sm();
        let w = sm.apply_section();
        let idx = BTreeIndex::create(&w).unwrap();
        for i in 0..50u32 {
            idx.insert(&w, &encode_i64(7), oid(i)).unwrap();
        }
        let hits = idx.lookup(&sm, &encode_i64(7)).unwrap();
        assert_eq!(hits.len(), 50);
        let mut sorted = hits.clone();
        sorted.sort();
        assert_eq!(hits, sorted, "duplicates come back in OID order");
        // Exact duplicate (key, oid) is rejected.
        assert!(idx.insert(&w, &encode_i64(7), oid(3)).is_err());
    }

    #[test]
    fn range_scan_inclusive() {
        let sm = sm();
        let w = sm.apply_section();
        let idx = BTreeIndex::create(&w).unwrap();
        for i in 0..1000i64 {
            idx.insert(&w, &encode_i64(i * 2), oid(i as u32)).unwrap();
        }
        let hits = idx.range(&sm, &encode_i64(100), &encode_i64(200)).unwrap();
        // Even keys 100..=200 → 51 entries.
        assert_eq!(hits.len(), 51);
        assert_eq!(keys::decode_i64(&hits[0].0), 100);
        assert_eq!(keys::decode_i64(&hits.last().unwrap().0), 200);
        // Bounds that fall between keys.
        let hits = idx.range(&sm, &encode_i64(101), &encode_i64(103)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(keys::decode_i64(&hits[0].0), 102);
    }

    #[test]
    fn delete_exact_entries() {
        let sm = sm();
        let w = sm.apply_section();
        let idx = BTreeIndex::create(&w).unwrap();
        for i in 0..2000i64 {
            idx.insert(&w, &encode_i64(i), oid(i as u32)).unwrap();
        }
        for i in (0..2000i64).step_by(2) {
            assert!(idx.delete(&w, &encode_i64(i), oid(i as u32)).unwrap());
        }
        assert_eq!(idx.entry_count(&sm).unwrap(), 1000);
        assert!(!idx.delete(&w, &encode_i64(0), oid(0)).unwrap());
        for i in (1..2000i64).step_by(2) {
            assert_eq!(idx.lookup(&sm, &encode_i64(i)).unwrap().len(), 1);
        }
        for i in (0..2000i64).step_by(2) {
            assert!(idx.lookup(&sm, &encode_i64(i)).unwrap().is_empty());
        }
        // Delete with the right key but wrong oid.
        assert!(!idx.delete(&w, &encode_i64(1), oid(999_999)).unwrap());
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let sm = sm();
        let w = sm.apply_section();
        let entries: Vec<Entry> = (0..20_000i64)
            .map(|i| (encode_i64(i).to_vec(), oid(i as u32)))
            .collect();
        let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
        assert_eq!(idx.entry_count(&sm).unwrap(), 20_000);
        let all = idx.scan_all(&sm).unwrap();
        assert_eq!(all.len(), 20_000);
        for (i, (k, o)) in all.iter().enumerate() {
            assert_eq!(keys::decode_i64(k), i as i64);
            assert_eq!(*o, oid(i as u32));
        }
        // Point lookups and deletes work on a bulk-loaded tree.
        assert_eq!(idx.lookup(&sm, &encode_i64(12_345)).unwrap().len(), 1);
        assert!(idx.delete(&w, &encode_i64(12_345), oid(12_345)).unwrap());
        assert!(idx.lookup(&sm, &encode_i64(12_345)).unwrap().is_empty());
        // Inserts after bulk load still split correctly.
        for i in 0..100u32 {
            idx.insert(&w, &encode_i64(50_000), oid(1_000_000 + i))
                .unwrap();
        }
        assert_eq!(idx.lookup(&sm, &encode_i64(50_000)).unwrap().len(), 100);
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let sm = sm();
        let w = sm.apply_section();
        let idx = BTreeIndex::bulk_load(&w, &[], 1.0).unwrap();
        assert_eq!(idx.entry_count(&sm).unwrap(), 0);
        let one = vec![(encode_i64(1).to_vec(), oid(1))];
        let idx = BTreeIndex::bulk_load(&w, &one, 1.0).unwrap();
        assert_eq!(idx.lookup(&sm, &encode_i64(1)).unwrap(), vec![oid(1)]);
    }

    #[test]
    fn string_keys() {
        let sm = sm();
        let w = sm.apply_section();
        let idx = BTreeIndex::create(&w).unwrap();
        let names = ["delta", "alpha", "charlie", "bravo", "echo"];
        for (i, n) in names.iter().enumerate() {
            idx.insert(&w, &keys::encode_bytes(n.as_bytes()), oid(i as u32))
                .unwrap();
        }
        let all = idx.scan_all(&sm).unwrap();
        let decoded: Vec<String> = all
            .iter()
            .map(|(k, _)| String::from_utf8(keys::decode_bytes(k).0).unwrap())
            .collect();
        assert_eq!(decoded, vec!["alpha", "bravo", "charlie", "delta", "echo"]);
    }

    #[test]
    fn fanout_is_high_for_short_keys() {
        // The paper uses m = 350. With 8-byte integer keys + 8-byte OID
        // suffixes our leaf fanout is 4054/26 ≈ 155 and internal fanout
        // 4054/22 ≈ 184 — same order of magnitude; the analytical model
        // keeps the paper's m = 350.
        let sm = sm();
        let w = sm.apply_section();
        let entries: Vec<Entry> = (0..100_000i64)
            .map(|i| (encode_i64(i).to_vec(), oid(i as u32)))
            .collect();
        let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
        assert!(idx.height(&sm).unwrap() <= 3);
    }
}
