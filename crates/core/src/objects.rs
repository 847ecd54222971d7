//! Typed object access over heap files, plus index-key encoding.

use crate::error::{DbError, Result};
use fieldrep_btree::keys;
use fieldrep_catalog::Catalog;
use fieldrep_model::{ModelError, Object, ObjectView, TypeId, Value};
use fieldrep_storage::{ApplySection, HeapFile, Oid, PageHandle, StorageManager};
use std::borrow::Cow;

/// Record type tag used for link objects (never a real `TypeId`).
pub const LINK_TAG: u16 = 0xFFFF;
/// Record type tag used for separate-replication replica objects.
pub const REPLICA_TAG: u16 = 0xFFFE;

/// Read and decode the object at `oid`.
pub fn read_object(sm: &StorageManager, cat: &Catalog, oid: Oid) -> Result<Object> {
    let hf = HeapFile::open(oid.file);
    let (tag, payload) = hf.read(sm, oid)?;
    debug_assert!(tag != LINK_TAG && tag != REPLICA_TAG, "not a data object");
    let type_id = TypeId(tag);
    let def = cat.type_def(type_id);
    Ok(Object::decode(type_id, def, &payload)?)
}

/// Request `oid`'s page for one access to its record, unless the caller
/// holds a pin on it already (`held`). A handle fetched here is passed to
/// the heap file by value, which lets go of it before following a stub.
pub(crate) fn pin_of<'a>(
    sm: &StorageManager,
    held: Option<&'a PageHandle>,
    oid: Oid,
) -> Result<Cow<'a, PageHandle>> {
    Ok(match held {
        Some(page) => Cow::Borrowed(page),
        None => Cow::Owned(sm.pool().fetch(oid.page_id())?),
    })
}

/// Lend `f` a view of the stored object at `oid`, read without decoding
/// it, through `page` if the caller holds a pin on `oid`'s page. `f` runs
/// under the page's read latch and must not call back into the pool.
pub(crate) fn view_object<R>(
    sm: &StorageManager,
    cat: &Catalog,
    page: Option<&PageHandle>,
    oid: Oid,
    f: impl FnOnce(ObjectView<'_>) -> std::result::Result<R, ModelError>,
) -> Result<R> {
    let read =
        HeapFile::open(oid.file).read_pinned(sm, pin_of(sm, page, oid)?, oid, |tag, bytes| {
            f(ObjectView::new(cat.type_def(TypeId(tag)), bytes))
        })?;
    Ok(read?)
}

/// Encode and write back the object at `oid` (same type tag).
pub fn write_object(w: &ApplySection<'_>, cat: &Catalog, oid: Oid, obj: &Object) -> Result<()> {
    let def = cat.type_def(obj.type_id);
    let payload = obj.encode(def);
    let hf = HeapFile::open(oid.file);
    hf.rec_update(w, oid, &payload)?;
    Ok(())
}

/// The object a reference value points at; `None` for NULL (and for
/// anything that is not a reference).
pub(crate) fn ref_target(v: &Value) -> Option<Oid> {
    match v {
        Value::Ref(o) if !o.is_null() => Some(*o),
        _ => None,
    }
}

/// Encode an indexable value as an order-preserving key.
///
/// `Unit` (padding) and `NULL` refs sort first; refs sort by physical OID.
pub fn value_key(v: &Value) -> Vec<u8> {
    match v {
        Value::Int(x) => keys::encode_i64(*x).to_vec(),
        Value::Float(x) => keys::encode_f64(*x).to_vec(),
        Value::Str(s) => keys::encode_bytes(s.as_bytes()),
        Value::Ref(o) => o.to_bytes().to_vec(),
        Value::Unit => Vec::new(),
    }
}

/// Check that a `Value::Ref` points at an object of the expected type (or
/// is NULL). Reads the referenced object's record header via a full read —
/// callers that already walk the chain skip this.
pub fn check_ref_type(
    sm: &StorageManager,
    cat: &Catalog,
    v: &Value,
    expected: TypeId,
) -> Result<()> {
    let oid = v.as_ref_oid().map_err(DbError::from)?;
    if oid.is_null() {
        return Ok(());
    }
    let hf = HeapFile::open(oid.file);
    let (tag, _) = hf.read(sm, oid)?;
    if tag != expected.0 {
        return Err(DbError::WrongRefType {
            oid,
            expected: cat.type_def(expected).name.clone(),
            got: if tag == LINK_TAG || tag == REPLICA_TAG {
                "internal object".into()
            } else {
                cat.type_def(TypeId(tag)).name.clone()
            },
        });
    }
    Ok(())
}
