//! # fieldrep-pathindex
//!
//! Path-index implementations for the §3.3.4 / §7.2 comparison:
//!
//! * [`ReplicatedPathIndex`] — the paper's proposal: replicate the path,
//!   then `build btree on Emp1.dept.org.name` over the replicated values
//!   stored in the source objects. An associative lookup traverses **one**
//!   B⁺-tree and maps values directly to source objects.
//! * [`GemstonePathIndex`] — the \[Maie86a\] design the paper compares
//!   against: the inverted path is kept as a chain of *index components*,
//!   each a B⁺-tree. A lookup on an n-hop path traverses **n + 1**
//!   B⁺-trees (for `Emp1.dept.org.name`: values→ORG, ORG→DEPT,
//!   DEPT→EMP), roughly doubling I/O per level but needing no replicated
//!   data. Its advantage (noted in §7.2) is associative access to the
//!   links themselves, which we expose as
//!   [`GemstonePathIndex::component_lookup`].

use fieldrep_btree::BTreeIndex;
use fieldrep_catalog::IndexKind;
use fieldrep_core::{value_key, Database, DbError};
use fieldrep_model::Value;
use fieldrep_storage::Oid;

/// Result alias.
pub type Result<T> = std::result::Result<T, DbError>;

/// The paper's replicated-value path index: a thin wrapper that creates
/// (and queries) a B⁺-tree over in-place replicated values.
pub struct ReplicatedPathIndex {
    tree: BTreeIndex,
    /// The dotted path this index serves.
    pub path: String,
}

impl ReplicatedPathIndex {
    /// Build over an already-replicated in-place path (see
    /// `Database::replicate`).
    pub fn build(db: &mut Database, dotted_path: &str) -> Result<ReplicatedPathIndex> {
        let idx = db.create_index(dotted_path, IndexKind::Unclustered)?;
        let file = db.catalog().index(idx).file;
        Ok(ReplicatedPathIndex {
            tree: BTreeIndex::open(file),
            path: dotted_path.to_string(),
        })
    }

    /// Source objects whose path value equals `v` — one B⁺-tree
    /// traversal.
    pub fn lookup(&self, db: &mut Database, v: &Value) -> Result<Vec<Oid>> {
        Ok(self.tree.lookup(db.sm(), &value_key(v))?)
    }

    /// Source objects whose path value lies in `[lo, hi]`.
    pub fn range(&self, db: &mut Database, lo: &Value, hi: &Value) -> Result<Vec<Oid>> {
        Ok(self
            .tree
            .range(db.sm(), &value_key(lo), &value_key(hi))?
            .into_iter()
            .map(|(_, o)| o)
            .collect())
    }
}

/// A Gemstone-style multi-component path index \[Maie86a\].
///
/// `components[0]` maps terminal field values to terminal-object OIDs;
/// `components[i]` (i ≥ 1) maps an object OID at distance `i − 1` from
/// the terminal to the OIDs of the objects referencing it along the
/// path. Lookups chain through all components.
pub struct GemstonePathIndex {
    /// Ref-field hops of the indexed path.
    hops: Vec<usize>,
    terminal_field: usize,
    components: Vec<BTreeIndex>,
    /// The dotted path this index serves.
    pub path: String,
}

impl GemstonePathIndex {
    /// Build the component trees from the current database state.
    ///
    /// Unlike [`ReplicatedPathIndex`], no replication path is required:
    /// this is the alternative that *avoids* storing replicated values.
    pub fn build(db: &mut Database, dotted_path: &str) -> Result<GemstonePathIndex> {
        let resolved = db.catalog().resolve_path_str(dotted_path)?;
        if resolved.hops.is_empty() {
            return Err(DbError::Unsupported(
                "a path index needs at least one reference hop".into(),
            ));
        }
        let terminal_field = resolved.terminal_fields[0];
        let set = db.catalog().set(resolved.set).clone();

        // Walk every source chain once, collecting component entries.
        let n = resolved.hops.len();
        // entries[0]: (terminal value key, terminal oid)
        // entries[i≥1]: (target oid key, member oid)
        let mut entries: Vec<Vec<(Vec<u8>, Oid)>> = vec![Vec::new(); n + 1];
        let sources = db.scan_set(&set.name)?;
        for src in sources {
            let mut chain = vec![src];
            let mut cur = src;
            let mut complete = true;
            for &hop in &resolved.hops {
                let obj = db.get(cur)?;
                match &obj.values[hop] {
                    Value::Ref(o) if !o.is_null() => {
                        chain.push(*o);
                        cur = *o;
                    }
                    _ => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue;
            }
            let terminal = *chain.last().unwrap();
            let tobj = db.get(terminal)?;
            entries[0].push((value_key(&tobj.values[terminal_field]), terminal));
            // Component i ≥ 1 inverts hop n−i.
            for i in 1..=n {
                let target = chain[n - i + 1];
                let member = chain[n - i];
                entries[i].push((target.to_bytes().to_vec(), member));
            }
        }

        let components = db.apply_and_commit(|_, w| {
            let mut components = Vec::with_capacity(n + 1);
            for mut es in entries {
                es.sort();
                es.dedup();
                components.push(BTreeIndex::bulk_load(w, &es, 1.0)?);
            }
            Ok(components)
        })?;
        Ok(GemstonePathIndex {
            hops: resolved.hops,
            terminal_field,
            components,
            path: dotted_path.to_string(),
        })
    }

    /// Number of B⁺-trees a lookup traverses (`hops + 1`).
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Source objects whose path value equals `v` — traverses every
    /// component tree (the cost the paper contrasts with its own design).
    pub fn lookup(&self, db: &mut Database, v: &Value) -> Result<Vec<Oid>> {
        let mut frontier: Vec<Oid> = self.components[0].lookup(db.sm(), &value_key(v))?;
        for comp in &self.components[1..] {
            let mut next = Vec::new();
            for oid in &frontier {
                next.extend(comp.lookup(db.sm(), &oid.to_bytes())?);
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        Ok(frontier)
    }

    /// The §7.2 advantage of the Gemstone design: associative access to a
    /// single component, e.g. "which DEPT objects (with OIDs in `[lo,
    /// hi]`) are referenced along the path" — without touching the data
    /// sets. `component` 0 is the value component; `i ≥ 1` inverts hop
    /// `hops − i`.
    pub fn component_lookup(
        &self,
        db: &mut Database,
        component: usize,
        lo: &[u8],
        hi: &[u8],
    ) -> Result<Vec<(Vec<u8>, Oid)>> {
        Ok(self.components[component].range(db.sm(), lo, hi)?)
    }

    /// Incremental maintenance: re-index one source object after its
    /// chain changed. The Gemstone design must touch up to `n + 1` trees;
    /// implemented as delete-old + insert-new per changed component
    /// entry.
    pub fn reindex_source(
        &self,
        db: &mut Database,
        old_chain: &[Option<Oid>],
        old_terminal_value: Option<&Value>,
        new_chain: &[Option<Oid>],
        new_terminal_value: Option<&Value>,
    ) -> Result<()> {
        let n = self.hops.len();
        let entry = |chain: &[Option<Oid>], i: usize| -> Option<(Vec<u8>, Oid)> {
            let target = chain.get(n - i + 1).copied().flatten()?;
            let member = chain.get(n - i).copied().flatten()?;
            Some((target.to_bytes().to_vec(), member))
        };
        db.apply_and_commit(|_, w| {
            for i in 1..=n {
                let old = entry(old_chain, i);
                let new = entry(new_chain, i);
                if old == new {
                    continue;
                }
                if let Some((k, m)) = old {
                    self.components[i].delete(w, &k, m)?;
                }
                if let Some((k, m)) = new {
                    // Shared entries may already exist (another source keeps
                    // the same link pair); tolerate duplicates.
                    let _ = self.components[i].insert(w, &k, m);
                }
            }
            // Terminal value component.
            let old_t = old_chain.last().copied().flatten();
            let new_t = new_chain.last().copied().flatten();
            if old_t != new_t
                || old_terminal_value.map(value_key) != new_terminal_value.map(value_key)
            {
                if let (Some(t), Some(v)) = (old_t, old_terminal_value) {
                    self.components[0].delete(w, &value_key(v), t)?;
                }
                if let (Some(t), Some(v)) = (new_t, new_terminal_value) {
                    let _ = self.components[0].insert(w, &value_key(v), t);
                }
            }
            Ok(())
        })
    }

    /// Field index of the terminal value within the terminal type.
    pub fn terminal_field(&self) -> usize {
        self.terminal_field
    }
}
