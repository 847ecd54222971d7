//! Query planning: choosing access paths and projection strategies.
//!
//! The planner implements the paper's §3.1 claim that "query processing
//! … will know about field replication and exploit it whenever possible
//! to avoid functional joins": each projection path is answered by, in
//! order of preference,
//!
//! 1. an exact replicated path (in-place preferred — zero extra I/O —
//!    then separate, which joins against the small clustered `S'`),
//! 2. the longest *collapse* path (§3.3.3), which shortcuts the prefix
//!    and leaves fewer functional joins,
//! 3. plain functional joins (the no-replication baseline).

use crate::error::{QueryError, Result};
use crate::Filter;
use fieldrep_catalog::{Catalog, GroupId, IndexDef, IndexKind, PathId, SetId, Strategy};
use fieldrep_obs::names as obs_names;
use std::fmt;

/// How one projection path will be evaluated.
#[derive(Clone, Debug, PartialEq)]
pub enum ProjPlan {
    /// A base field of the queried set.
    BaseField {
        /// Field index.
        field: usize,
    },
    /// Read the hidden in-place replicated values of `path`.
    InPlaceReplica {
        /// The replication path.
        path: PathId,
        /// Positions within the path's value list, one per projected
        /// terminal field.
        positions: Vec<usize>,
    },
    /// Join to the group's `S'` file through the hidden replica refs.
    SeparateReplica {
        /// The replica group.
        group: GroupId,
        /// Positions within the group's field list.
        positions: Vec<usize>,
    },
    /// Jump through a collapse path's replicated reference, then perform
    /// the remaining functional joins.
    CollapseThenJoin {
        /// The collapse path whose replicated value is a reference.
        path: PathId,
        /// Remaining ref-field hops after the jump.
        remaining_hops: Vec<usize>,
        /// Terminal field indexes to project.
        terminal_fields: Vec<usize>,
    },
    /// Plain functional joins along every hop.
    FunctionalJoin {
        /// Ref-field hops.
        hops: Vec<usize>,
        /// Terminal field indexes to project.
        terminal_fields: Vec<usize>,
    },
}

impl ProjPlan {
    /// Number of result columns this projection contributes.
    pub fn width(&self) -> usize {
        match self {
            ProjPlan::BaseField { .. } => 1,
            ProjPlan::InPlaceReplica { positions, .. } => positions.len(),
            ProjPlan::SeparateReplica { positions, .. } => positions.len(),
            ProjPlan::CollapseThenJoin {
                terminal_fields, ..
            } => terminal_fields.len(),
            ProjPlan::FunctionalJoin {
                terminal_fields, ..
            } => terminal_fields.len(),
        }
    }

    /// Operator label of this projection as the plan's `idx`-th, for
    /// profiles and span notes.
    pub fn label(&self, idx: usize) -> String {
        match self {
            ProjPlan::BaseField { field } => {
                label(format_args!("proj[{idx}]:base-field(#{field})"))
            }
            ProjPlan::InPlaceReplica { path, .. } => {
                label(format_args!("proj[{idx}]:inplace-replica({path})"))
            }
            ProjPlan::SeparateReplica { group, .. } => label(format_args!(
                "proj[{idx}]:separate-replica(group #{})",
                group.0
            )),
            ProjPlan::CollapseThenJoin {
                path,
                remaining_hops,
                ..
            } => label(format_args!(
                "proj[{idx}]:collapse({path})+{}join",
                remaining_hops.len()
            )),
            ProjPlan::FunctionalJoin { hops, .. } => {
                label(format_args!("proj[{idx}]:functional-join({})", hops.len()))
            }
        }
    }
}

/// An operator label, written once into a string with room for it (where
/// `format!` grows one from the size of its literal pieces).
fn label(args: fmt::Arguments<'_>) -> String {
    let mut s = String::with_capacity(48);
    // Writing into a `String` cannot fail.
    let _ = fmt::write(&mut s, args);
    s
}

/// How the set's members will be located.
#[derive(Clone, Debug, PartialEq)]
pub enum AccessPlan {
    /// Scan every page of the set file.
    FullScan,
    /// Range scan of a B⁺-tree on a base field.
    IndexRange {
        /// The index used.
        index: fieldrep_storage::FileId,
        /// Clustered or unclustered (affects I/O shape, not results).
        kind: IndexKind,
        /// Filtered base field.
        field: usize,
    },
    /// Range scan of a B⁺-tree built on replicated path values (§3.3.4).
    PathIndexRange {
        /// The index used.
        index: fieldrep_storage::FileId,
        /// The replication path whose values are indexed.
        path: PathId,
    },
}

impl AccessPlan {
    /// Short operator label for profiles and span notes.
    pub fn label(&self) -> String {
        let op = obs_names::OP_ACCESS;
        match self {
            AccessPlan::FullScan => label(format_args!("{op}:full-scan")),
            AccessPlan::IndexRange { kind, field, .. } => {
                label(format_args!("{op}:index-range({kind:?} #{field})"))
            }
            AccessPlan::PathIndexRange { path, .. } => {
                label(format_args!("{op}:path-index-range({path})"))
            }
        }
    }
}

/// A complete plan for a read or update query.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The queried set.
    pub set: SetId,
    /// Access path.
    pub access: AccessPlan,
    /// One entry per projection (empty for update queries).
    pub projections: Vec<ProjPlan>,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.access {
            AccessPlan::FullScan => writeln!(f, "access: full scan")?,
            AccessPlan::IndexRange { kind, field, .. } => {
                writeln!(f, "access: {kind:?} index range on field #{field}")?;
            }
            AccessPlan::PathIndexRange { path, .. } => {
                writeln!(f, "access: path-index range on replicated path {path}")?;
            }
        }
        for (i, p) in self.projections.iter().enumerate() {
            match p {
                ProjPlan::BaseField { field } => writeln!(f, "proj[{i}]: base field #{field}")?,
                ProjPlan::InPlaceReplica { path, .. } => {
                    writeln!(f, "proj[{i}]: in-place replica of {path} (no join)")?;
                }
                ProjPlan::SeparateReplica { group, .. } => writeln!(
                    f,
                    "proj[{i}]: separate replica via S' of group #{}",
                    group.0
                )?,
                ProjPlan::CollapseThenJoin {
                    path,
                    remaining_hops,
                    ..
                } => writeln!(
                    f,
                    "proj[{i}]: collapse via {path}, then {} functional join(s)",
                    remaining_hops.len()
                )?,
                ProjPlan::FunctionalJoin { hops, .. } => {
                    writeln!(f, "proj[{i}]: {} functional join(s)", hops.len())?;
                }
            }
        }
        Ok(())
    }
}

/// Plan a single projection path (dotted, relative to the set).
pub fn plan_projection(cat: &Catalog, set: SetId, dotted: &str) -> Result<ProjPlan> {
    let resolved = cat.resolve_relative(set, dotted)?;

    let Some(&first_terminal) = resolved.terminal_fields.first() else {
        return Err(QueryError::BadQuery(format!(
            "projection path {dotted:?} resolves to no terminal fields"
        )));
    };

    if resolved.hops.is_empty() {
        return Ok(ProjPlan::BaseField {
            field: first_terminal,
        });
    }

    // 1. Exact replicas covering every projected terminal field.
    let exact: Vec<_> = cat
        .paths_from(set)
        .filter(|p| {
            p.hops == resolved.hops
                && resolved
                    .terminal_fields
                    .iter()
                    .all(|f| p.terminal_fields.contains(f))
        })
        .collect();
    if let Some(p) = exact
        .iter()
        .find(|p| p.strategy == Strategy::InPlace)
        .or_else(|| exact.first())
    {
        match p.strategy {
            Strategy::InPlace => {
                let positions = positions_of(&resolved.terminal_fields, &p.terminal_fields)
                    .ok_or_else(|| {
                        QueryError::BadQuery(format!(
                            "replicated path {} does not carry every field of {dotted:?}",
                            p.id
                        ))
                    })?;
                return Ok(ProjPlan::InPlaceReplica {
                    path: p.id,
                    positions,
                });
            }
            Strategy::Separate => {
                let group = cat.group_of(p)?;
                let positions =
                    positions_of(&resolved.terminal_fields, &group.fields).ok_or_else(|| {
                        QueryError::BadQuery(format!(
                            "replica group #{} does not carry every field of {dotted:?}",
                            group.id.0
                        ))
                    })?;
                return Ok(ProjPlan::SeparateReplica {
                    group: group.id,
                    positions,
                });
            }
        }
    }

    // 2. Longest collapse prefix.
    if let Some((p, k)) = cat.collapse_for(set, &resolved.hops) {
        return Ok(ProjPlan::CollapseThenJoin {
            path: p.id,
            remaining_hops: resolved.hops[k + 1..].to_vec(),
            terminal_fields: resolved.terminal_fields,
        });
    }

    // 3. Baseline.
    Ok(ProjPlan::FunctionalJoin {
        hops: resolved.hops,
        terminal_fields: resolved.terminal_fields,
    })
}

/// Position of each `wanted` field within `carried`, or `None` if any is
/// missing (a catalog/resolution mismatch the caller reports as a bad
/// query rather than panicking on).
fn positions_of(wanted: &[usize], carried: &[usize]) -> Option<Vec<usize>> {
    wanted
        .iter()
        .map(|f| carried.iter().position(|g| g == f))
        .collect()
}

/// Plan the access path for `filter` (on a base field, or on a replicated
/// path with an index).
///
/// The filter's literals must have the type of the field it filters: an
/// index compares key encodings and a scan compares values, and neither
/// ever matches across types, so a literal of another type would select
/// nothing, silently. It is a bad query instead.
pub fn plan_access(cat: &Catalog, set: SetId, filter: Option<&Filter>) -> Result<AccessPlan> {
    let Some(filter) = filter else {
        return Ok(AccessPlan::FullScan);
    };
    let dotted = filter.path();
    let resolved = cat.resolve_relative(set, dotted)?;
    // The first terminal field and its type.
    let terminal = resolved.terminal_fields.first().and_then(|&f| {
        let def = cat.type_def(*resolved.node_types.last()?);
        Some((f, &def.fields.get(f)?.ftype))
    });
    let Some((first_terminal, ftype)) = terminal else {
        return Err(QueryError::BadQuery(format!(
            "filter path {dotted:?} resolves to no terminal fields"
        )));
    };
    let (lo, hi) = filter.bounds();
    if let Some(v) = [lo, hi].into_iter().find(|v| !v.matches(ftype)) {
        return Err(QueryError::BadQuery(format!(
            "filter on {dotted:?} compares a {ftype:?} field with the {} literal {v}",
            v.kind_name()
        )));
    }

    if resolved.hops.is_empty() {
        let field = first_terminal;
        if let Some(IndexDef { file, kind, .. }) = cat.index_on_field(set, field) {
            return Ok(AccessPlan::IndexRange {
                index: *file,
                kind: *kind,
                field,
            });
        }
        return Ok(AccessPlan::FullScan);
    }

    // Path filter: use a path index if one exists over an in-place
    // replicated path (§3.3.4); otherwise a full scan evaluates the path
    // as one batched projection over the set.
    if let Some(p) = cat.replica_for(set, &resolved.hops, first_terminal) {
        if let Some(idx) = cat.index_on_path(p.id) {
            return Ok(AccessPlan::PathIndexRange {
                index: idx.file,
                path: p.id,
            });
        }
    }
    Ok(AccessPlan::FullScan)
}
