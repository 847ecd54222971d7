//! # fieldrep-catalog
//!
//! The schema catalog: type definitions, named sets, indexes, and — the
//! part specific to this paper — the registry of **replication paths**,
//! their **links** (with the §4.1.4 prefix-sharing rules) and the
//! **replica groups** of separate replication.
//!
//! The catalog is an in-memory structure owned by the database engine. A
//! production system would store it in catalog sets; persistence of the
//! catalog is outside the paper's scope (its §6 evaluation uses a fixed
//! schema), so we keep the substrate simple and documented.

pub mod defs;
pub mod error;
pub mod persist;

pub use defs::{
    GroupDef, GroupId, IndexDef, IndexId, IndexKind, IndexTarget, LinkDef, LinkId, PathId,
    Propagation, RepPathDef, SetDef, SetId, Strategy,
};
pub use error::{CatalogError, Result};

use fieldrep_model::{FieldType, PathExpr, TypeDef, TypeId};
use fieldrep_storage::{FileId, StorageManager};
use std::collections::HashMap;

/// A resolved projection/replication path: schema-checked hops plus a
/// terminal field list.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedPath {
    /// The source set.
    pub set: SetId,
    /// Ref-field indexes for each hop.
    pub hops: Vec<usize>,
    /// Types along the path (`hops.len() + 1` entries).
    pub node_types: Vec<TypeId>,
    /// Terminal field indexes (singleton unless the path ends in `all`).
    pub terminal_fields: Vec<usize>,
    /// True if the path ended in the keyword `all`.
    pub is_all: bool,
}

/// Outcome of removing a replication path ([`Catalog::remove_path`]).
#[derive(Clone, Debug)]
pub struct RemovedPath {
    /// The removed path's definition.
    pub path: RepPathDef,
    /// Links whose refcount hit zero: their IDs are free for reuse and
    /// their link files / annotations should be dismantled.
    pub freed_links: Vec<LinkDef>,
    /// The replica group, if this was its last path: its `S'` file,
    /// anchors and replica refs should be dismantled.
    pub dropped_group: Option<GroupDef>,
}

/// Outcome of declaring a replication path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeclaredReplication {
    /// The new path's id.
    pub path: PathId,
    /// For separate replication: the group the path reads through.
    pub group: Option<GroupId>,
    /// True if the path extended an *existing* group with new fields, in
    /// which case the engine must re-materialise that group's replica
    /// objects.
    pub group_extended: bool,
}

/// The catalog.
#[derive(Default)]
pub struct Catalog {
    types: Vec<TypeDef>,
    type_names: HashMap<String, TypeId>,
    sets: Vec<SetDef>,
    set_names: HashMap<String, SetId>,
    indexes: Vec<IndexDef>,
    links: Vec<Option<LinkDef>>,    // indexed by LinkId-1; None = freed
    paths: Vec<Option<RepPathDef>>, // indexed by PathId; None = dropped
    groups: Vec<Option<GroupDef>>,  // indexed by GroupId; None = dropped
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    // ---------------------------------------------------------------- types

    /// Register a type definition (`define type`). Reference targets must
    /// already be defined, or name the type itself (self-references).
    pub fn define_type(&mut self, def: TypeDef) -> Result<TypeId> {
        if self.type_names.contains_key(&def.name) {
            return Err(CatalogError::Duplicate(def.name.clone()));
        }
        for f in &def.fields {
            if let FieldType::Ref(target) = &f.ftype {
                if *target != def.name && !self.type_names.contains_key(target) {
                    return Err(CatalogError::UnknownType(target.clone()));
                }
            }
        }
        let id = TypeId(self.types.len() as u16);
        self.type_names.insert(def.name.clone(), id);
        self.types.push(def);
        Ok(id)
    }

    /// The definition of `id`.
    pub fn type_def(&self, id: TypeId) -> &TypeDef {
        &self.types[id.0 as usize]
    }

    /// Look up a type by name.
    pub fn type_id(&self, name: &str) -> Result<TypeId> {
        self.type_names
            .get(name)
            .copied()
            .ok_or_else(|| CatalogError::UnknownType(name.into()))
    }

    /// The type a ref field points at.
    pub fn ref_target(&self, owner: TypeId, field_idx: usize) -> Result<TypeId> {
        let def = self.type_def(owner);
        match &def.fields[field_idx].ftype {
            FieldType::Ref(t) => self.type_id(t),
            _ => Err(CatalogError::NotARef {
                type_name: def.name.clone(),
                field: def.fields[field_idx].name.clone(),
            }),
        }
    }

    // ----------------------------------------------------------------- sets

    /// Register a named set (`create Emp1 : {own ref EMP}`) stored in
    /// `file`.
    pub fn create_set(&mut self, name: &str, type_name: &str, file: FileId) -> Result<SetId> {
        if self.set_names.contains_key(name) {
            return Err(CatalogError::Duplicate(name.into()));
        }
        let elem_type = self.type_id(type_name)?;
        let id = SetId(self.sets.len() as u16);
        self.sets.push(SetDef {
            id,
            name: name.into(),
            elem_type,
            file,
        });
        self.set_names.insert(name.into(), id);
        Ok(id)
    }

    /// The definition of set `id`.
    pub fn set(&self, id: SetId) -> &SetDef {
        &self.sets[id.0 as usize]
    }

    /// Look up a set by name.
    pub fn set_id(&self, name: &str) -> Result<SetId> {
        self.set_names
            .get(name)
            .copied()
            .ok_or_else(|| CatalogError::UnknownSet(name.into()))
    }

    /// All sets.
    pub fn sets(&self) -> &[SetDef] {
        &self.sets
    }

    /// All sets whose element type is `t`.
    pub fn sets_of_type(&self, t: TypeId) -> impl Iterator<Item = &SetDef> + '_ {
        self.sets.iter().filter(move |s| s.elem_type == t)
    }

    // -------------------------------------------------------------- indexes

    /// Register an index.
    pub fn declare_index(
        &mut self,
        set: SetId,
        target: IndexTarget,
        kind: IndexKind,
        file: FileId,
    ) -> Result<IndexId> {
        if let IndexTarget::Field(idx) = target {
            let t = self.set(set).elem_type;
            if idx >= self.type_def(t).fields.len() {
                return Err(CatalogError::Invalid(format!(
                    "field index {idx} out of range for indexed set"
                )));
            }
        }
        let id = IndexId(self.indexes.len() as u16);
        self.indexes.push(IndexDef {
            id,
            set,
            target,
            kind,
            file,
        });
        Ok(id)
    }

    /// The definition of index `id`.
    #[allow(clippy::should_implement_trait)] // catalog lookup, not ops::Index
    pub fn index(&self, id: IndexId) -> &IndexDef {
        &self.indexes[id.0 as usize]
    }

    /// All indexes on `set`.
    pub fn indexes_on(&self, set: SetId) -> impl Iterator<Item = &IndexDef> + '_ {
        self.indexes.iter().filter(move |i| i.set == set)
    }

    /// Every index in the catalog (the transaction layer uses this to
    /// decide whether B-tree maintenance needs serializing).
    pub fn indexes(&self) -> impl Iterator<Item = &IndexDef> + '_ {
        self.indexes.iter()
    }

    /// Find an index on a specific base field of `set`.
    pub fn index_on_field(&self, set: SetId, field_idx: usize) -> Option<&IndexDef> {
        self.indexes
            .iter()
            .find(|i| i.set == set && i.target == IndexTarget::Field(field_idx))
    }

    /// Find an index on the replicated values of a path.
    pub fn index_on_path(&self, path: PathId) -> Option<&IndexDef> {
        self.indexes
            .iter()
            .find(|i| i.target == IndexTarget::ReplicatedPath(path))
    }

    // ------------------------------------------------------ path resolution

    /// Resolve a dotted path expression against the schema.
    pub fn resolve_path(&self, expr: &PathExpr) -> Result<ResolvedPath> {
        let set = self.set_id(&expr.set)?;
        self.resolve_segments(set, expr.segments.iter().map(String::as_str))
    }

    /// Resolve `dotted`, a path relative to `set` (`"dept.name"`), straight
    /// from the text: what a query plans each statement, without building
    /// a [`PathExpr`]. An empty or unknown segment is an unknown field.
    pub fn resolve_relative(&self, set: SetId, dotted: &str) -> Result<ResolvedPath> {
        self.resolve_segments(set, dotted.split('.'))
    }

    /// Resolve `segments`, the reference attributes from `set`'s element
    /// type then the terminal, against the schema.
    fn resolve_segments<'s>(
        &self,
        set: SetId,
        segments: impl Iterator<Item = &'s str>,
    ) -> Result<ResolvedPath> {
        let mut cur_type = self.set(set).elem_type;
        let mut hops = Vec::new();
        let mut node_types = vec![cur_type];
        let mut segments = segments.peekable();
        let mut terminal = "";
        while let Some(seg) = segments.next() {
            if segments.peek().is_none() {
                terminal = seg;
                break;
            }
            let def = self.type_def(cur_type);
            let idx = def
                .field_index(seg)
                .ok_or_else(|| CatalogError::UnknownField {
                    type_name: def.name.clone(),
                    field: seg.into(),
                })?;
            let target = self.ref_target(cur_type, idx)?;
            hops.push(idx);
            cur_type = target;
            node_types.push(cur_type);
        }

        let def = self.type_def(cur_type);
        let (terminal_fields, is_all) = if terminal == "all" {
            let fields: Vec<usize> = def
                .fields
                .iter()
                .enumerate()
                .filter(|(_, f)| !matches!(f.ftype, FieldType::Pad(_)))
                .map(|(i, _)| i)
                .collect();
            (fields, true)
        } else {
            let idx = def
                .field_index(terminal)
                .ok_or_else(|| CatalogError::UnknownField {
                    type_name: def.name.clone(),
                    field: terminal.into(),
                })?;
            (vec![idx], false)
        };

        Ok(ResolvedPath {
            set,
            hops,
            node_types,
            terminal_fields,
            is_all,
        })
    }

    /// Convenience: parse then resolve.
    pub fn resolve_path_str(&self, s: &str) -> Result<ResolvedPath> {
        let expr = PathExpr::parse(s)?;
        self.resolve_path(&expr)
    }

    // ---------------------------------------------------------------- links

    fn find_link(&self, set: SetId, prefix: &[usize], collapsed: bool) -> Option<LinkId> {
        self.links
            .iter()
            .flatten()
            .find(|l| l.set == set && l.prefix == prefix && l.collapsed == collapsed)
            .map(|l| l.id)
    }

    fn alloc_link(
        &mut self,
        set: SetId,
        prefix: Vec<usize>,
        src_type: TypeId,
        dst_type: TypeId,
        file: FileId,
        collapsed: bool,
    ) -> Result<LinkId> {
        // Reuse a freed slot if any ("link IDs which are not in use can be
        // reused", §4.2).
        let slot = self.links.iter().position(Option::is_none);
        let slot = match slot {
            Some(s) => s,
            None => {
                if self.links.len() >= 255 {
                    return Err(CatalogError::LinkIdsExhausted);
                }
                self.links.push(None);
                self.links.len() - 1
            }
        };
        let id = LinkId((slot + 1) as u8); // link ids start at 1
        let level = prefix.len() - 1;
        self.links[slot] = Some(LinkDef {
            id,
            set,
            prefix,
            src_type,
            dst_type,
            file,
            level,
            refcount: 0,
            collapsed,
        });
        Ok(id)
    }

    /// The definition of link `id`.
    pub fn link(&self, id: LinkId) -> &LinkDef {
        self.links[(id.0 - 1) as usize]
            .as_ref()
            .expect("live link id")
    }

    /// All live links.
    pub fn links(&self) -> impl Iterator<Item = &LinkDef> + '_ {
        self.links.iter().flatten()
    }

    // ---------------------------------------------------------- replication

    /// Declare `replicate <path>` with the given strategy. Creates (or
    /// shares) the links of the inverted path and, for separate
    /// replication, the replica group. New link/replica files are
    /// allocated from `sm`.
    pub fn declare_replication(
        &mut self,
        expr: &PathExpr,
        strategy: Strategy,
        sm: &StorageManager,
    ) -> Result<DeclaredReplication> {
        self.declare_replication_with(expr, strategy, Propagation::Eager, sm)
    }

    /// As [`Catalog::declare_replication`], choosing eager or deferred
    /// value propagation (§8).
    pub fn declare_replication_with(
        &mut self,
        expr: &PathExpr,
        strategy: Strategy,
        propagation: Propagation,
        sm: &StorageManager,
    ) -> Result<DeclaredReplication> {
        self.declare_replication_full(expr, strategy, propagation, false, sm)
    }

    /// Full-control declaration, including §4.3.3 *collapsed* inverted
    /// paths (supported for 2-level in-place paths: the two links are
    /// fused into one tagged link from the terminal set directly to the
    /// sources).
    pub fn declare_replication_full(
        &mut self,
        expr: &PathExpr,
        strategy: Strategy,
        propagation: Propagation,
        collapsed: bool,
        sm: &StorageManager,
    ) -> Result<DeclaredReplication> {
        let resolved = self.resolve_path(expr)?;
        if resolved.hops.is_empty() {
            return Err(CatalogError::NotAReferencePath(expr.to_string()));
        }
        if self.paths.iter().flatten().any(|p| {
            p.set == resolved.set
                && p.hops == resolved.hops
                && p.terminal_fields == resolved.terminal_fields
        }) {
            return Err(CatalogError::Duplicate(expr.to_string()));
        }

        if collapsed {
            if strategy != Strategy::InPlace {
                return Err(CatalogError::Invalid(
                    "collapsed inverted paths require the in-place strategy".into(),
                ));
            }
            if resolved.hops.len() != 2 {
                return Err(CatalogError::Invalid(format!(
                    "collapsed inverted paths support exactly 2 levels (got {})",
                    resolved.hops.len()
                )));
            }
        }

        // Links: in-place inverts every hop (collapsed: one fused link);
        // separate all but the last (§5.2: an n-level path needs an
        // (n−1)-level inverted path).
        let mut links = Vec::new();
        if collapsed {
            let prefix = resolved.hops.clone();
            let id = match self.find_link(resolved.set, &prefix, true) {
                Some(id) => id,
                None => {
                    let file = sm.create_file()?;
                    self.alloc_link(
                        resolved.set,
                        prefix,
                        resolved.node_types[0],
                        *resolved.node_types.last().unwrap(),
                        file,
                        true,
                    )?
                }
            };
            self.links[(id.0 - 1) as usize].as_mut().unwrap().refcount += 1;
            links.push(id);
        } else {
            let n_links = match strategy {
                Strategy::InPlace => resolved.hops.len(),
                Strategy::Separate => resolved.hops.len() - 1,
            };
            for level in 0..n_links {
                let prefix = resolved.hops[..=level].to_vec();
                let id = match self.find_link(resolved.set, &prefix, false) {
                    Some(id) => id,
                    None => {
                        let file = sm.create_file()?;
                        self.alloc_link(
                            resolved.set,
                            prefix,
                            resolved.node_types[level],
                            resolved.node_types[level + 1],
                            file,
                            false,
                        )?
                    }
                };
                let slot = (id.0 - 1) as usize;
                self.links[slot].as_mut().unwrap().refcount += 1;
                links.push(id);
            }
        }

        // Group (separate only).
        let path_id = PathId(self.paths.len() as u16);
        let (group, group_extended) = match strategy {
            Strategy::InPlace => (None, false),
            Strategy::Separate => {
                let existing = self
                    .groups
                    .iter_mut()
                    .flatten()
                    .find(|g| g.set == resolved.set && g.hops == resolved.hops);
                match existing {
                    Some(g) => {
                        let mut extended = false;
                        for f in &resolved.terminal_fields {
                            if !g.fields.contains(f) {
                                g.fields.push(*f);
                                extended = true;
                            }
                        }
                        g.fields.sort_unstable();
                        g.paths.push(path_id);
                        (Some(g.id), extended)
                    }
                    None => {
                        let file = sm.create_file()?;
                        let id = GroupId(self.groups.len() as u16);
                        let mut fields = resolved.terminal_fields.clone();
                        fields.sort_unstable();
                        self.groups.push(Some(GroupDef {
                            id,
                            set: resolved.set,
                            hops: resolved.hops.clone(),
                            terminal_type: *resolved.node_types.last().unwrap(),
                            fields,
                            paths: vec![path_id],
                            file,
                        }));
                        (Some(id), false)
                    }
                }
            }
        };

        self.paths.push(Some(RepPathDef {
            id: path_id,
            expr: expr.clone(),
            expr_text: expr.to_string(),
            set: resolved.set,
            hops: resolved.hops,
            node_types: resolved.node_types,
            terminal_fields: resolved.terminal_fields,
            strategy,
            propagation,
            collapsed,
            links,
            group,
        }));

        Ok(DeclaredReplication {
            path: path_id,
            group,
            group_extended,
        })
    }

    /// The definition of replication path `id`.
    ///
    /// # Panics
    /// Panics if the path was dropped.
    pub fn path(&self, id: PathId) -> &RepPathDef {
        self.paths[id.0 as usize].as_ref().expect("live path id")
    }

    /// All live replication paths.
    pub fn paths(&self) -> impl Iterator<Item = &RepPathDef> + '_ {
        self.paths.iter().flatten()
    }

    /// All live replication paths originating at `set`.
    pub fn paths_from(&self, set: SetId) -> impl Iterator<Item = &RepPathDef> + '_ {
        self.paths.iter().flatten().filter(move |p| p.set == set)
    }

    /// The definition of replica group `id`.
    ///
    /// # Panics
    /// Panics if the group was dropped.
    pub fn group(&self, id: GroupId) -> &GroupDef {
        self.groups[id.0 as usize].as_ref().expect("live group id")
    }

    /// The replica group separate `path` reads through: an error, not a
    /// panic, when the path names none or a dropped one.
    pub fn group_of(&self, path: &RepPathDef) -> Result<&GroupDef> {
        path.group
            .and_then(|g| self.groups.get(g.0 as usize)?.as_ref())
            .ok_or_else(|| {
                CatalogError::Invalid(format!("path {} has no live replica group", path.id))
            })
    }

    /// All live replica groups.
    pub fn groups(&self) -> impl Iterator<Item = &GroupDef> + '_ {
        self.groups.iter().flatten()
    }

    /// Remove a replication path: decrement its links' refcounts (freeing
    /// link IDs whose refcount hits zero — the §4.2 reuse), and detach it
    /// from its replica group (dropping the group when it was the last
    /// path). Returns the freed links and the dropped group, if any, so
    /// the engine can dismantle their physical structures.
    pub fn remove_path(&mut self, id: PathId) -> Result<RemovedPath> {
        let slot = self
            .paths
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or_else(|| CatalogError::Invalid(format!("path {id} is not live")))?;
        // Refuse if an index is built over it.
        if self
            .indexes
            .iter()
            .any(|i| i.target == IndexTarget::ReplicatedPath(id))
        {
            // Put it back; the operation failed.
            self.paths[id.0 as usize] = Some(slot);
            return Err(CatalogError::Invalid(format!(
                "path {id} still has an index built on its replicated values"
            )));
        }

        let mut freed_links = Vec::new();
        for lid in &slot.links {
            let l = self.links[(lid.0 - 1) as usize]
                .as_mut()
                .expect("path holds live links");
            l.refcount -= 1;
            if l.refcount == 0 {
                freed_links.push(self.links[(lid.0 - 1) as usize].take().unwrap());
            }
        }

        let mut dropped_group = None;
        if let Some(gid) = slot.group {
            let g = self.groups[gid.0 as usize]
                .as_mut()
                .expect("path holds a live group");
            g.paths.retain(|p| *p != id);
            if g.paths.is_empty() {
                dropped_group = self.groups[gid.0 as usize].take();
            }
        }

        Ok(RemovedPath {
            path: slot,
            freed_links,
            dropped_group,
        })
    }

    /// In-place paths whose *terminal* link is `link` and whose replicated
    /// fields include `field_idx` — i.e. the paths that must propagate
    /// when that field of a linked object is updated (§4.1.3: "the
    /// presence of link ID 1 in a DEPT object D indicates … if either
    /// D.budget, D.name, or D.org is updated, that update has to be
    /// propagated").
    pub fn inplace_paths_terminating_at(
        &self,
        link: LinkId,
        field_idx: usize,
    ) -> impl Iterator<Item = &RepPathDef> + '_ {
        self.paths.iter().flatten().filter(move |p| {
            p.strategy == Strategy::InPlace
                && p.links.last() == Some(&link)
                && p.terminal_fields.contains(&field_idx)
        })
    }

    /// Paths for which `link` inverts some hop `i` and whose hop `i+1` is
    /// the ref field `field_idx` — the paths affected when that reference
    /// attribute of a linked intermediate object changes (§4.1.2, and
    /// §5.2's `D2.org` example for separate replication).
    pub fn paths_with_intermediate(
        &self,
        link: LinkId,
        field_idx: usize,
    ) -> impl Iterator<Item = &RepPathDef> + '_ {
        self.paths.iter().flatten().filter(move |p| {
            p.links
                .iter()
                .position(|l| *l == link)
                .is_some_and(|lvl| p.hops.get(lvl + 1) == Some(&field_idx))
        })
    }

    /// Find a replication path that answers `(set, hops, field)` without a
    /// (full) functional join: an exact match on hops whose terminal
    /// fields include `field`.
    pub fn replica_for(&self, set: SetId, hops: &[usize], field: usize) -> Option<&RepPathDef> {
        self.paths
            .iter()
            .flatten()
            .find(|p| p.set == set && p.hops == hops && p.terminal_fields.contains(&field))
    }

    /// Find a *collapse* path usable as a shortcut: a replicated path on
    /// `(set, hops[..k])` whose single terminal field is the ref attribute
    /// `hops[k]` (§3.3.3). Returns the longest such `(path, k)`.
    pub fn collapse_for(&self, set: SetId, hops: &[usize]) -> Option<(&RepPathDef, usize)> {
        (0..hops.len()).rev().find_map(|k| {
            self.paths
                .iter()
                .flatten()
                .find(|p| p.set == set && p.hops == hops[..k] && p.terminal_fields == [hops[k]])
                .map(|p| (p, k))
        })
    }
}
