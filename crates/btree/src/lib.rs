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
//! * The root stays at page 0 of the index file, so a descent needs no
//!   directory page: a lookup, insert or delete of a tree of height `h`
//!   requests `h` pages (plus the further leaves a range crosses), the
//!   paper's `⌈log_m N⌉`. Files written when page 0 was a meta page are
//!   brought to this layout by [`BTreeIndex::upgrade`].
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
    ApplySection, FileId, Oid, PageHandle, PageId, PageKind, PageView, Result, StorageError,
    StorageManager,
};
use node::{entry_size, Node, NodeView, Payload, NODE_CAPACITY};
use std::sync::{Arc, OnceLock};

/// Process-wide count of B⁺-tree node splits (`btree.splits`).
fn split_counter() -> &'static Arc<metrics::Counter> {
    static SPLITS: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    SPLITS.get_or_init(|| metrics::registry().counter(obs_names::BTREE_SPLITS))
}

/// The root's page. The root never moves: when it splits, its left half
/// moves to a new page as its right half does, and page 0 becomes the
/// internal node above the two. So a descent starts at a known page and
/// pays one request per level, the paper's `⌈log_m N⌉`.
const ROOT: u32 = 0;

/// The deepest descent a tree can need. Each level multiplies the entries
/// below it by the node fanout, so no index comes near it; a descent that
/// goes deeper is following a cycle of child pointers.
const MAX_HEIGHT: u16 = 64;

/// A B⁺-tree index stored in its own file. The handle is a plain file id;
/// all state lives on pages. The operations that write take an
/// [`ApplySection`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BTreeIndex {
    /// The index file. Page 0 holds the root node.
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

/// Copy the node on the page `h` holds out for mutation.
fn copy_node(h: &PageHandle) -> Result<Node> {
    let data = h.data();
    NodeView::new(&data[..])?.to_node()
}

/// Pack `entries`, in order, into nodes of at most `budget` entry bytes.
fn pack(
    entries: impl Iterator<Item = (Vec<u8>, Payload)>,
    is_leaf: bool,
    budget: usize,
) -> Vec<Node> {
    let mut nodes = Vec::new();
    let mut cur = Node::new(is_leaf);
    for (key, payload) in entries {
        let sz = entry_size(&key, &payload);
        if !cur.entries.is_empty() && cur.used_bytes() + sz > budget {
            nodes.push(std::mem::replace(&mut cur, Node::new(is_leaf)));
        }
        cur.entries.push((key, payload));
    }
    nodes.push(cur);
    nodes
}

impl BTreeIndex {
    /// Create an empty index: one empty leaf, the root, at page 0.
    pub fn create(w: &ApplySection<'_>) -> Result<BTreeIndex> {
        let index = BTreeIndex {
            file: w.create_file()?,
        };
        let root = index.alloc_node(w, &Node::new(true))?;
        debug_assert_eq!(root, ROOT);
        Ok(index)
    }

    /// Wrap an existing index file id (e.g. recorded in the catalog).
    pub fn open(file: FileId) -> BTreeIndex {
        BTreeIndex { file }
    }

    /// Bring an index file written before the root was fixed at page 0 to
    /// today's layout, in place. Such a file's page 0 is a meta page that
    /// names the root's page (a `u32` at byte 40); the root node is copied
    /// onto page 0, and its old page is left behind, unreferenced. Returns
    /// whether the file was rewritten. This is the one reader of
    /// [`PageKind::Meta`].
    pub fn upgrade(&self, w: &ApplySection<'_>) -> Result<bool> {
        let page0 = w.pool().fetch(PageId::new(self.file, ROOT))?;
        let root = {
            let data = page0.data();
            if PageView::new(&data[..]).kind()? != PageKind::Meta {
                return Ok(false);
            }
            u32::from_le_bytes([data[40], data[41], data[42], data[43]])
        };
        if root == ROOT {
            return Err(StorageError::Corrupt(format!(
                "index {}: its meta page names itself as the root",
                self.file
            )));
        }
        let node = copy_node(&w.pool().fetch(PageId::new(self.file, root))?)?;
        node.serialize(page0.data_mut().whole_mut());
        Ok(true)
    }

    /// Number of entries in the index: a walk of the leaf chain.
    pub fn entry_count(&self, sm: &StorageManager) -> Result<u64> {
        let mut count = 0u64;
        self.walk_leaves(sm, &[], |leaf| {
            count = leaf.entries().try_fold(count, |n, e| e.map(|_| n + 1))?;
            Ok(leaf.next_leaf())
        })?;
        Ok(count)
    }

    /// Height of the tree (1 = root is a leaf): a descent to the first
    /// leaf.
    pub fn height(&self, sm: &StorageManager) -> Result<u16> {
        let mut height = 1;
        self.descend(sm, &[], |_, _| height += 1)?;
        Ok(height)
    }

    /// Descend from the root to the leaf whose key range holds `comp`,
    /// routing in place on each internal page, and return the leaf's
    /// handle: each page on the way is requested once, the leaf included.
    /// `on_internal(page, slot)` sees each internal node, root first, with
    /// the slot it routed through.
    fn descend(
        &self,
        sm: &StorageManager,
        comp: &[u8],
        mut on_internal: impl FnMut(u32, usize),
    ) -> Result<PageHandle> {
        let mut page = ROOT;
        for _ in 0..MAX_HEIGHT {
            let h = sm.pool().fetch(PageId::new(self.file, page))?;
            let route = {
                let data = h.data();
                let node = NodeView::new(&data[..])?;
                if node.is_leaf() {
                    None
                } else {
                    Some(node.route(comp)?)
                }
            };
            let Some((slot, child)) = route else {
                return Ok(h);
            };
            on_internal(page, slot);
            page = child;
        }
        Err(StorageError::Corrupt(format!(
            "index {}: a descent passed {MAX_HEIGHT} levels (a child pointer cycles)",
            self.file
        )))
    }

    /// Walk the leaf chain from the leaf whose key range holds `from`.
    /// `visit` runs on each leaf under its frame's read latch and returns
    /// the leaf to go on to, or `None` to stop. The first leaf is visited
    /// under the descent's own request. A walk that follows more links
    /// than the file has pages has come back to a leaf it visited: the
    /// chain cycles, and the walk is `Corrupt` rather than endless.
    fn walk_leaves(
        &self,
        sm: &StorageManager,
        from: &[u8],
        mut visit: impl FnMut(NodeView<'_>) -> Result<Option<u32>>,
    ) -> Result<()> {
        let mut h = self.descend(sm, from, |_, _| {})?;
        // Links left to follow; counted once the walk leaves its first
        // leaf, which most walks never do.
        let mut links: Option<u32> = None;
        loop {
            let next = {
                let data = h.data();
                visit(NodeView::new(&data[..])?)?
            };
            let Some(page) = next else {
                return Ok(());
            };
            let left = match &mut links {
                Some(left) => left,
                None => links.insert(sm.page_count(self.file)?),
            };
            if *left == 0 {
                return Err(StorageError::Corrupt(format!(
                    "index {}: a leaf walk outran the file's pages (a leaf chain cycles)",
                    self.file
                )));
            }
            *left -= 1;
            h = sm.pool().fetch(PageId::new(self.file, page))?;
        }
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

    /// Write `node` back through `h`, the handle of its page, splitting it
    /// if it has outgrown the page. The right half of a split goes to a new
    /// page, and its separator and page are returned for the parent to
    /// take. A split root hands nothing up: its left half moves to a new
    /// page too, and the root's page becomes the internal node above both.
    fn write_node(
        &self,
        sm: &StorageManager,
        h: &PageHandle,
        mut node: Node,
    ) -> Result<Option<(Vec<u8>, u32)>> {
        if node.used_bytes() <= NODE_CAPACITY {
            node.serialize(h.data_mut().whole_mut());
            return Ok(None);
        }
        split_counter().inc();
        let right = node.split();
        let sep = right.entries[0].0.clone();
        let (right_pid, right_h) = sm.pool().new_page(self.file)?;
        if node.is_leaf {
            // `split` gave `right` the old successor.
            node.next_leaf = Some(right_pid.page);
        }
        right.serialize(right_h.data_mut().whole_mut());
        if h.pid.page != ROOT {
            node.serialize(h.data_mut().whole_mut());
            return Ok(Some((sep, right_pid.page)));
        }
        let left = self.alloc_node(sm, &node)?;
        let mut root = Node::new(false);
        root.entries
            .push((node.entries[0].0.clone(), Payload::Child(left)));
        root.entries.push((sep, Payload::Child(right_pid.page)));
        root.serialize(h.data_mut().whole_mut());
        Ok(None)
    }

    /// Insert `(key, oid)`. Duplicate user keys are allowed; the exact
    /// `(key, oid)` pair must be unique (inserting it twice is an error
    /// surfaced as `Corrupt`, because the replication engine relies on
    /// exact-once index maintenance). An insert that splits nothing
    /// requests each page on its descent once and writes the leaf through
    /// the descent's handle.
    pub fn insert(&self, w: &ApplySection<'_>, key: &[u8], oid: Oid) -> Result<()> {
        let _span = Span::enter(obs_names::BTREE_INSERT);
        let comp = composite(key, oid);
        // The internal nodes above the leaf, root first, with the slot
        // each routed through: where a split's separator goes.
        let mut path: Vec<(u32, usize)> = Vec::new();
        let leaf = self.descend(w, &comp, |page, slot| path.push((page, slot)))?;
        let mut node = copy_node(&leaf)?;
        let Err(idx) = node.entries.binary_search_by(|(k, _)| k[..].cmp(&comp)) else {
            return Err(StorageError::Corrupt(format!(
                "duplicate (key, oid) insert into index {}",
                self.file
            )));
        };
        node.entries.insert(idx, (comp, Payload::Rid(oid)));
        let mut split = self.write_node(w, &leaf, node)?;
        drop(leaf);
        for (page, slot) in path.into_iter().rev() {
            let Some((sep, right)) = split else { break };
            let h = w.pool().fetch(PageId::new(self.file, page))?;
            let mut node = copy_node(&h)?;
            node.entries.insert(slot + 1, (sep, Payload::Child(right)));
            split = self.write_node(w, &h, node)?;
        }
        debug_assert!(split.is_none(), "the root takes its own split");
        Ok(())
    }

    /// Delete the exact `(key, oid)` entry. Returns `true` if it existed.
    /// Each page on the descent is requested once; the leaf is written
    /// through the descent's handle.
    pub fn delete(&self, w: &ApplySection<'_>, key: &[u8], oid: Oid) -> Result<bool> {
        let comp = composite(key, oid);
        let leaf = self.descend(w, &comp, |_, _| {})?;
        let mut node = copy_node(&leaf)?;
        let Ok(idx) = node.entries.binary_search_by(|(k, _)| k[..].cmp(&comp)) else {
            return Ok(false);
        };
        node.entries.remove(idx);
        node.serialize(leaf.data_mut().whole_mut());
        Ok(true)
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
        // Only the first leaf can hold keys below `lo`; emptied
        // (lazily-deleted) leaves fall through to their successor.
        let mut lo = Some(lo_comp.as_slice());
        let mut entries = 0usize;
        self.walk_leaves(sm, &lo_comp, |leaf| {
            leaf.visit_range(lo.take(), &hi_comp, |comp, oid| {
                entries += 1;
                f(&comp[..comp.len().saturating_sub(8)], oid);
            })
        })?;
        span.note("entries", entries);
        Ok(())
    }

    /// Every entry in the index, in key order.
    pub fn scan_all(&self, sm: &StorageManager) -> Result<Vec<Entry>> {
        self.range(sm, &[], &[0xFF; 64])
    }

    /// Build an index bottom-up from entries sorted by `(key, oid)`.
    /// Leaves take pages 1, 2, … in key order, each level above takes the
    /// pages after the one below, and the top node goes to the root's
    /// page, 0.
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
        let leaves = entries
            .iter()
            .map(|(key, oid)| (composite(key, *oid), Payload::Rid(*oid)));
        let mut nodes = pack(leaves, true, budget);
        loop {
            let pages: Vec<u32> = if nodes.len() == 1 {
                vec![ROOT]
            } else {
                nodes
                    .iter()
                    .map(|_| Ok(w.pool().new_page(index.file)?.0.page))
                    .collect::<Result<_>>()?
            };
            let mut level = Vec::with_capacity(nodes.len());
            for (i, mut n) in nodes.into_iter().enumerate() {
                if n.is_leaf {
                    n.next_leaf = pages.get(i + 1).copied();
                }
                index.store_node(w, pages[i], &n)?;
                level.push((n.entries[0].0.clone(), Payload::Child(pages[i])));
            }
            if level.len() == 1 {
                return Ok(index);
            }
            nodes = pack(level.into_iter(), false, budget);
        }
    }

    /// Number of pages in the index file.
    pub fn pages(&self, sm: &StorageManager) -> Result<u32> {
        sm.page_count(self.file)
    }
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
