//! Catalog entities: sets, indexes, links, replication paths, and replica
//! groups.

use fieldrep_model::{PathExpr, TypeId};
use fieldrep_storage::FileId;
use std::fmt;

/// Identifier of a named set.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SetId(pub u16);

/// Identifier of an index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IndexId(pub u16);

/// Identifier of a replication path (the `path` in
/// `Annotation::ReplicaValue`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PathId(pub u16);

/// Identifier of a link in an inverted path. One byte, as the paper sizes
/// it (Figure 10: `sizeof(link-ID) = 1`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u8);

/// Identifier of a separate-replication replica group (one `S'` file).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u16);

impl fmt::Display for SetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "set#{}", self.0)
    }
}
impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rp#{}", self.0)
    }
}
impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

/// The replication strategy chosen for a path (§4 vs §5 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// §4: replicated values stored as hidden fields in the source objects.
    InPlace,
    /// §5: replicated values stored in shared replica objects in a
    /// separate, tightly clustered file `S'`.
    Separate,
}

/// When replicated values are refreshed after a source-of-truth update —
/// the paper's §8 future-work direction ("replication techniques in which
/// updates are not propagated until needed"), related to the POSTGRES
/// update-cache strategies of §7.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Propagation {
    /// Propagate during the update (the paper's base design). Replicated
    /// values are always up to date; queries never pay a refresh cost.
    #[default]
    Eager,
    /// Record which replicas became stale and refresh them lazily — on
    /// the next query that reads the path, or an explicit `sync_path`.
    /// Repeated updates to the same object collapse into one
    /// propagation. Inverted-path *structure* (link memberships, replica
    /// refcounts) is always maintained eagerly; only value refresh is
    /// deferred.
    Deferred,
}

/// Whether an index is clustered (the heap file is in key order) or not
/// (§6.4 analyses both settings).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    /// Heap order is unrelated to key order.
    Unclustered,
    /// Heap was bulk-loaded in key order.
    Clustered,
}

/// What an index is built over.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IndexTarget {
    /// A base field of the set's element type (by field index).
    Field(usize),
    /// The replicated values of a replication path (§3.3.4: "there is
    /// basically no reason why an index cannot be built on replicated
    /// data"). The key is the first terminal field of the path.
    ReplicatedPath(PathId),
}

/// A named set: `create Emp1 : {own ref EMP}`.
#[derive(Clone, Debug)]
pub struct SetDef {
    /// Id.
    pub id: SetId,
    /// Set name.
    pub name: String,
    /// Element type.
    pub elem_type: TypeId,
    /// Heap file storing the members.
    pub file: FileId,
}

/// An index over a set.
#[derive(Clone, Debug)]
pub struct IndexDef {
    /// Id.
    pub id: IndexId,
    /// The indexed set.
    pub set: SetId,
    /// What is indexed.
    pub target: IndexTarget,
    /// Clustered or unclustered.
    pub kind: IndexKind,
    /// The B⁺-tree file.
    pub file: FileId,
}

/// One link of an inverted path (§4.1): the inverse of following
/// `prefix` (a chain of reference-attribute field indexes) from `set`.
///
/// A link is identified by `(set, prefix)`, which is exactly what lets
/// replication paths with a common prefix share links (§4.1.4).
#[derive(Clone, Debug)]
pub struct LinkDef {
    /// Link id (stored in objects as the `link-ID` of their
    /// `(link-OID, link-ID)` pairs).
    pub id: LinkId,
    /// The set the forward path starts from.
    pub set: SetId,
    /// Chain of ref-field indexes from the set's element type; the link is
    /// the inverse of the *last* hop of this chain.
    pub prefix: Vec<usize>,
    /// Type of the objects at the source end of the last hop (the
    /// referencing side).
    pub src_type: TypeId,
    /// Type of the objects the link's link-objects attach to (the
    /// referenced side).
    pub dst_type: TypeId,
    /// File storing this link's link objects, kept in the same order as
    /// the referenced set (§4.1, Figure 2).
    pub file: FileId,
    /// Zero-based level within inverted paths (0 = the `Emp1.dept⁻¹`
    /// link).
    pub level: usize,
    /// Number of replication paths currently using this link.
    pub refcount: u32,
    /// §4.3.3: a *collapsed* link maps terminal objects directly to
    /// source objects with intermediate tags. Collapsed links are never
    /// shared with uncollapsed ones ("collapsed paths prohibit the
    /// sharing of some links").
    pub collapsed: bool,
}

/// A declared replication path (`replicate Emp1.dept.org.name`).
#[derive(Clone, Debug)]
pub struct RepPathDef {
    /// Id (the `path` of `Annotation::ReplicaValue`).
    pub id: PathId,
    /// The original expression.
    pub expr: PathExpr,
    /// `expr` in dotted form, rendered once at declaration: the key every
    /// statement records its workload statistics under.
    pub expr_text: String,
    /// The source set (whose objects receive replicated values).
    pub set: SetId,
    /// Ref-field indexes for each hop, from the set's element type to the
    /// terminal object's type.
    pub hops: Vec<usize>,
    /// Types along the path: `node_types[0]` is the set's element type,
    /// `node_types[i]` the type after hop `i`; length = hops+1.
    pub node_types: Vec<TypeId>,
    /// Terminal field indexes (within the terminal type) whose values are
    /// replicated. A plain field path has one entry; `.all` has one per
    /// non-padding field; a collapse path has the ref field itself.
    pub terminal_fields: Vec<usize>,
    /// The strategy.
    pub strategy: Strategy,
    /// Eager or deferred value propagation.
    pub propagation: Propagation,
    /// §4.3.3: true if this path's inverted path is collapsed to a single
    /// tagged link (2-level in-place paths only).
    pub collapsed: bool,
    /// The link IDs of the inverted path, one per maintained level
    /// (in-place: every hop; separate: every hop except the last — §5.2's
    /// "(n−1)-level inverted path"). `links[i]` inverts hop `i`.
    pub links: Vec<LinkId>,
    /// For separate replication: the replica group this path reads
    /// through.
    pub group: Option<GroupId>,
}

impl RepPathDef {
    /// The type of the object the replicated fields live on.
    pub fn terminal_type(&self) -> TypeId {
        *self.node_types.last().expect("path has at least one node")
    }

    /// Number of functional joins the path would otherwise require.
    pub fn levels(&self) -> usize {
        self.hops.len()
    }
}

/// A separate-replication replica group: one `S'` file shared by every
/// separate path from the same set with the same hop chain, so that (as in
/// §5, Figure 7) the replicated values for `D1.name` and `D1.budget` are
/// stored together in one object.
#[derive(Clone, Debug)]
pub struct GroupDef {
    /// Id (the `group` of `Annotation::ReplicaRef` / `ReplicaAnchor`).
    pub id: GroupId,
    /// Source set.
    pub set: SetId,
    /// Hop chain (ref-field indexes) shared by the group's paths.
    pub hops: Vec<usize>,
    /// Terminal object type.
    pub terminal_type: TypeId,
    /// Union of replicated terminal fields across the group's paths,
    /// sorted. A replica object stores one value per entry, in this order.
    pub fields: Vec<usize>,
    /// Paths reading through this group.
    pub paths: Vec<PathId>,
    /// The `S'` heap file.
    pub file: FileId,
}
