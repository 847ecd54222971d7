//! Catalog serialization.
//!
//! The paper's scope ends at the engine, but a file-backed database is
//! only useful if it can be reopened — which needs the schema, the
//! replication paths, the link registry and the replica groups to
//! survive. This module encodes the whole [`Catalog`] into a compact
//! binary form (and back); the engine stores it in a dedicated catalog
//! file.
//!
//! The format is versioned and self-contained; no external serialization
//! framework is needed for a structure this small.

use crate::defs::{
    GroupDef, GroupId, IndexDef, IndexId, IndexKind, IndexTarget, LinkDef, LinkId, PathId,
    Propagation, RepPathDef, SetId, Strategy,
};
use crate::{Catalog, CatalogError, Result};
use fieldrep_model::{FieldType, PathExpr, TypeDef, TypeId};
use fieldrep_storage::FileId;

const MAGIC: &[u8; 8] = b"FRCATv01";

// ------------------------------------------------------------------ writer

struct W(Vec<u8>);

impl W {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("catalog structure too large"));
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.0.extend_from_slice(s.as_bytes());
    }
    fn flag(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

// ------------------------------------------------------------------ reader

struct R<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .b
            .get(self.pos..self.pos + n)
            .ok_or_else(|| CatalogError::Invalid("truncated catalog image".into()))?;
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize> {
        Ok(self.u32()? as usize)
    }
    fn str(&mut self) -> Result<String> {
        let n = self.usize()?;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec())
            .map_err(|_| CatalogError::Invalid("non-UTF-8 string in catalog image".into()))
    }
    fn flag(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }
}

// ------------------------------------------------------------------ encode

/// Serialize a catalog to bytes.
pub fn encode(cat: &Catalog) -> Vec<u8> {
    let mut w = W(Vec::with_capacity(1024));
    w.0.extend_from_slice(MAGIC);

    // Types.
    w.usize(cat.types.len());
    for t in &cat.types {
        w.str(&t.name);
        w.usize(t.fields.len());
        for f in &t.fields {
            w.str(&f.name);
            match &f.ftype {
                FieldType::Int => w.u8(0),
                FieldType::Float => w.u8(1),
                FieldType::Str => w.u8(2),
                FieldType::Ref(target) => {
                    w.u8(3);
                    w.str(target);
                }
                FieldType::Pad(n) => {
                    w.u8(4);
                    w.u16(*n);
                }
            }
        }
    }

    // Sets.
    w.usize(cat.sets.len());
    for s in &cat.sets {
        w.str(&s.name);
        w.u16(s.elem_type.0);
        w.u16(s.file.0);
    }

    // Indexes.
    w.usize(cat.indexes.len());
    for i in &cat.indexes {
        w.u16(i.set.0);
        match &i.target {
            IndexTarget::Field(f) => {
                w.u8(0);
                w.usize(*f);
            }
            IndexTarget::ReplicatedPath(p) => {
                w.u8(1);
                w.u16(p.0);
            }
        }
        w.u8(matches!(i.kind, IndexKind::Clustered) as u8);
        w.u16(i.file.0);
    }

    // Links (Option slots).
    w.usize(cat.links.len());
    for slot in &cat.links {
        match slot {
            None => w.flag(false),
            Some(l) => {
                w.flag(true);
                w.u8(l.id.0);
                w.u16(l.set.0);
                w.usize(l.prefix.len());
                for p in &l.prefix {
                    w.usize(*p);
                }
                w.u16(l.src_type.0);
                w.u16(l.dst_type.0);
                w.u16(l.file.0);
                w.usize(l.level);
                w.u32(l.refcount);
                w.flag(l.collapsed);
            }
        }
    }

    // Paths (Option slots).
    w.usize(cat.paths.len());
    for slot in &cat.paths {
        match slot {
            None => w.flag(false),
            Some(p) => {
                w.flag(true);
                w.str(&p.expr.dotted());
                w.u16(p.set.0);
                w.usize(p.hops.len());
                for h in &p.hops {
                    w.usize(*h);
                }
                w.usize(p.node_types.len());
                for t in &p.node_types {
                    w.u16(t.0);
                }
                w.usize(p.terminal_fields.len());
                for f in &p.terminal_fields {
                    w.usize(*f);
                }
                w.u8(matches!(p.strategy, Strategy::Separate) as u8);
                w.u8(matches!(p.propagation, Propagation::Deferred) as u8);
                w.flag(p.collapsed);
                w.usize(p.links.len());
                for l in &p.links {
                    w.u8(l.0);
                }
                match p.group {
                    None => w.flag(false),
                    Some(g) => {
                        w.flag(true);
                        w.u16(g.0);
                    }
                }
            }
        }
    }

    // Groups (Option slots).
    w.usize(cat.groups.len());
    for slot in &cat.groups {
        match slot {
            None => w.flag(false),
            Some(g) => {
                w.flag(true);
                w.u16(g.set.0);
                w.usize(g.hops.len());
                for h in &g.hops {
                    w.usize(*h);
                }
                w.u16(g.terminal_type.0);
                w.usize(g.fields.len());
                for f in &g.fields {
                    w.usize(*f);
                }
                w.usize(g.paths.len());
                for p in &g.paths {
                    w.u16(p.0);
                }
                w.u16(g.file.0);
            }
        }
    }
    w.0
}

// ------------------------------------------------------------------ decode

/// Reconstruct a catalog from bytes produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Catalog> {
    let mut r = R { b: bytes, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(CatalogError::Invalid(
            "bad catalog image magic (wrong file or version)".into(),
        ));
    }
    let mut cat = Catalog::new();

    // Types.
    let n_types = r.usize()?;
    for _ in 0..n_types {
        let name = r.str()?;
        let n_fields = r.usize()?;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let fname = r.str()?;
            let ftype = match r.u8()? {
                0 => FieldType::Int,
                1 => FieldType::Float,
                2 => FieldType::Str,
                3 => FieldType::Ref(r.str()?),
                4 => FieldType::Pad(r.u16()?),
                other => return Err(CatalogError::Invalid(format!("bad field-type tag {other}"))),
            };
            fields.push((fname, ftype));
        }
        cat.define_type(TypeDef::new(name, fields))?;
    }

    // Sets.
    let n_sets = r.usize()?;
    for _ in 0..n_sets {
        let name = r.str()?;
        let elem = TypeId(r.u16()?);
        let file = FileId(r.u16()?);
        let type_name = cat.type_def(elem).name.clone();
        cat.create_set(&name, &type_name, file)?;
    }

    // Indexes.
    let n_idx = r.usize()?;
    for _ in 0..n_idx {
        let set = SetId(r.u16()?);
        let target = match r.u8()? {
            0 => IndexTarget::Field(r.usize()?),
            1 => IndexTarget::ReplicatedPath(PathId(r.u16()?)),
            other => return Err(CatalogError::Invalid(format!("bad index target {other}"))),
        };
        let kind = if r.u8()? != 0 {
            IndexKind::Clustered
        } else {
            IndexKind::Unclustered
        };
        let file = FileId(r.u16()?);
        cat.indexes.push(IndexDef {
            id: IndexId(cat.indexes.len() as u16),
            set,
            target,
            kind,
            file,
        });
    }

    // Links.
    let n_links = r.usize()?;
    for slot in 0..n_links {
        if !r.flag()? {
            cat.links.push(None);
            continue;
        }
        let id = LinkId(r.u8()?);
        debug_assert_eq!(id.0 as usize, slot + 1);
        let set = SetId(r.u16()?);
        let n_prefix = r.usize()?;
        let mut prefix = Vec::with_capacity(n_prefix);
        for _ in 0..n_prefix {
            prefix.push(r.usize()?);
        }
        let src_type = TypeId(r.u16()?);
        let dst_type = TypeId(r.u16()?);
        let file = FileId(r.u16()?);
        let level = r.usize()?;
        let refcount = r.u32()?;
        let collapsed = r.flag()?;
        cat.links.push(Some(LinkDef {
            id,
            set,
            prefix,
            src_type,
            dst_type,
            file,
            level,
            refcount,
            collapsed,
        }));
    }

    // Paths.
    let n_paths = r.usize()?;
    for slot in 0..n_paths {
        if !r.flag()? {
            cat.paths.push(None);
            continue;
        }
        let expr = PathExpr::parse(&r.str()?)?;
        let set = SetId(r.u16()?);
        let n_hops = r.usize()?;
        let mut hops = Vec::with_capacity(n_hops);
        for _ in 0..n_hops {
            hops.push(r.usize()?);
        }
        let n_nodes = r.usize()?;
        let mut node_types = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            node_types.push(TypeId(r.u16()?));
        }
        let n_tf = r.usize()?;
        let mut terminal_fields = Vec::with_capacity(n_tf);
        for _ in 0..n_tf {
            terminal_fields.push(r.usize()?);
        }
        let strategy = if r.u8()? != 0 {
            Strategy::Separate
        } else {
            Strategy::InPlace
        };
        let propagation = if r.u8()? != 0 {
            Propagation::Deferred
        } else {
            Propagation::Eager
        };
        let collapsed = r.flag()?;
        let n_links = r.usize()?;
        let mut links = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            links.push(LinkId(r.u8()?));
        }
        let group = if r.flag()? {
            Some(GroupId(r.u16()?))
        } else {
            None
        };
        cat.paths.push(Some(RepPathDef {
            id: PathId(slot as u16),
            expr_text: expr.to_string(),
            expr,
            set,
            hops,
            node_types,
            terminal_fields,
            strategy,
            propagation,
            collapsed,
            links,
            group,
        }));
    }

    // Groups.
    let n_groups = r.usize()?;
    for slot in 0..n_groups {
        if !r.flag()? {
            cat.groups.push(None);
            continue;
        }
        let set = SetId(r.u16()?);
        let n_hops = r.usize()?;
        let mut hops = Vec::with_capacity(n_hops);
        for _ in 0..n_hops {
            hops.push(r.usize()?);
        }
        let terminal_type = TypeId(r.u16()?);
        let n_fields = r.usize()?;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            fields.push(r.usize()?);
        }
        let n_paths = r.usize()?;
        let mut paths = Vec::with_capacity(n_paths);
        for _ in 0..n_paths {
            paths.push(PathId(r.u16()?));
        }
        let file = FileId(r.u16()?);
        cat.groups.push(Some(GroupDef {
            id: GroupId(slot as u16),
            set,
            hops,
            terminal_type,
            fields,
            paths,
            file,
        }));
    }

    // A path has a group exactly when it is separate, and that group is
    // live, lists the path and carries the path's terminal fields.
    for p in cat.paths.iter().flatten() {
        let separate = p.strategy == Strategy::Separate;
        if separate != p.group.is_some() {
            return Err(CatalogError::Invalid(format!(
                "path {} is {:?} but names group {:?}",
                p.id, p.strategy, p.group
            )));
        }
        if separate {
            let g = cat.group_of(p)?;
            if !g.paths.contains(&p.id) || !p.terminal_fields.iter().all(|f| g.fields.contains(f)) {
                return Err(CatalogError::Invalid(format!(
                    "replica group #{} does not list path {} or carry its fields",
                    g.id.0, p.id
                )));
            }
        }
    }

    if r.pos != bytes.len() {
        return Err(CatalogError::Invalid(format!(
            "trailing bytes in catalog image ({} unread)",
            bytes.len() - r.pos
        )));
    }
    Ok(cat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldrep_storage::StorageManager;

    /// The image of a catalog with `R.sref.name` replicated separately,
    /// encoded after `damage` has edited that path's definition.
    fn image_with(damage: fn(&mut RepPathDef)) -> Vec<u8> {
        let sm = StorageManager::in_memory(8);
        let mut cat = Catalog::new();
        cat.define_type(TypeDef::new("STYPE", vec![("name", FieldType::Str)]))
            .unwrap();
        let sref = ("sref", FieldType::Ref("STYPE".into()));
        cat.define_type(TypeDef::new("RTYPE", vec![sref])).unwrap();
        cat.create_set("S", "STYPE", sm.create_file().unwrap())
            .unwrap();
        cat.create_set("R", "RTYPE", sm.create_file().unwrap())
            .unwrap();
        let expr = PathExpr::parse("R.sref.name").unwrap();
        let decl = cat
            .declare_replication_full(&expr, Strategy::Separate, Propagation::Eager, false, &sm)
            .unwrap();
        damage(cat.paths[decl.path.0 as usize].as_mut().unwrap());
        encode(&cat)
    }

    #[test]
    fn a_path_whose_group_contradicts_it_is_refused() {
        assert!(decode(&image_with(|_| {})).is_ok());
        let damages: [fn(&mut RepPathDef); 3] = [
            |p| p.group = None,
            |p| p.group = Some(GroupId(7)),
            |p| p.strategy = Strategy::InPlace,
        ];
        for damage in damages {
            let got = decode(&image_with(damage)).err();
            assert!(matches!(got, Some(CatalogError::Invalid(_))), "{got:?}");
        }
    }
}
