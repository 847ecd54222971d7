//! Separate replication's shared replica objects (`S'`, §5).
//!
//! For each replica group (one per source set × hop chain), referenced
//! terminal objects get one small replica object in the group's file,
//! holding the group's replicated field values. The terminal object keeps
//! an [`Annotation::ReplicaAnchor`] (replica OID + refcount); source
//! objects keep an [`Annotation::ReplicaRef`].

use crate::error::{DbError, Result};
use crate::objects::{read_object, write_object, REPLICA_TAG};
use fieldrep_catalog::{Catalog, GroupDef};
use fieldrep_model::{Annotation, Object, Value};
use fieldrep_storage::{ApplySection, HeapFile, Oid, PagePins};

/// The values a replica object for `group` should hold, extracted from
/// the terminal object (in `group.fields` order).
pub fn group_values(group: &GroupDef, terminal_obj: &Object) -> Vec<Value> {
    group
        .fields
        .iter()
        .map(|&i| terminal_obj.values[i].clone())
        .collect()
}

/// Overwrite a replica object's values, its pages asked of `pins`.
pub fn write_replica(
    w: &ApplySection<'_>,
    pins: &PagePins,
    group: &GroupDef,
    oid: Oid,
    values: &[Value],
) -> Result<()> {
    let hf = HeapFile::open(group.file);
    hf.rec_update(w, pins, oid, &Value::encode_list(values))?;
    Ok(())
}

/// Find the anchor annotation for `group` on a terminal object.
pub fn find_anchor(obj: &Object, group: u16) -> Option<(usize, Oid, u32)> {
    obj.annotations
        .iter()
        .enumerate()
        .find_map(|(i, a)| match a {
            Annotation::ReplicaAnchor {
                group: g,
                oid,
                refcount,
            } if *g == group => Some((i, *oid, *refcount)),
            _ => None,
        })
}

/// Find the replica-ref annotation for `group` on a source object.
pub fn find_replica_ref(obj: &Object, group: u16) -> Option<(usize, Oid)> {
    obj.annotations
        .iter()
        .enumerate()
        .find_map(|(i, a)| match a {
            Annotation::ReplicaRef { group: g, oid } if *g == group => Some((i, *oid)),
            _ => None,
        })
}

/// Ensure a replica object exists for terminal object `target` and add
/// `delta` to its refcount. Creates the replica (from the terminal's
/// current values) on first use. Returns the replica OID. Pages are
/// asked of `pins`.
pub fn anchor_acquire(
    w: &ApplySection<'_>,
    pins: &PagePins,
    cat: &Catalog,
    group: &GroupDef,
    target: Oid,
    delta: u32,
) -> Result<Oid> {
    let mut obj = read_object(w, pins, cat, target)?;
    match find_anchor(&obj, group.id.0) {
        Some((i, roid, rc)) => {
            obj.annotations[i] = Annotation::ReplicaAnchor {
                group: group.id.0,
                oid: roid,
                refcount: rc + delta,
            };
            write_object(w, pins, cat, target, &obj)?;
            Ok(roid)
        }
        None => {
            let values = group_values(group, &obj);
            let hf = HeapFile::open(group.file);
            let roid = hf.rec_insert(w, pins, REPLICA_TAG, &Value::encode_list(&values))?;
            obj.annotations.push(Annotation::ReplicaAnchor {
                group: group.id.0,
                oid: roid,
                refcount: delta,
            });
            write_object(w, pins, cat, target, &obj)?;
            Ok(roid)
        }
    }
}

/// Drop `delta` references from `target`'s anchor for `group`; deletes the
/// replica object and the anchor when the count reaches zero. Pages are
/// asked of `pins`.
pub fn anchor_release(
    w: &ApplySection<'_>,
    pins: &PagePins,
    cat: &Catalog,
    group: &GroupDef,
    target: Oid,
    delta: u32,
) -> Result<()> {
    let mut obj = read_object(w, pins, cat, target)?;
    let (i, roid, rc) = find_anchor(&obj, group.id.0).ok_or_else(|| {
        DbError::Unsupported(format!(
            "anchor_release on {target} without an anchor for group {}",
            group.id.0
        ))
    })?;
    debug_assert!(rc >= delta, "refcount underflow");
    let rc = rc.saturating_sub(delta);
    if rc == 0 {
        let hf = HeapFile::open(group.file);
        hf.rec_delete(w, pins, roid)?;
        obj.annotations.remove(i);
    } else {
        obj.annotations[i] = Annotation::ReplicaAnchor {
            group: group.id.0,
            oid: roid,
            refcount: rc,
        };
    }
    write_object(w, pins, cat, target, &obj)?;
    Ok(())
}
