//! Typed object access over heap files, plus index-key encoding.

use crate::error::{DbError, Result};
use fieldrep_btree::keys;
use fieldrep_catalog::Catalog;
use fieldrep_model::{ModelError, Object, ObjectView, TypeId, Value};
use fieldrep_storage::{ApplySection, HeapFile, Oid, PageHandle, PagePins, StorageManager};

/// Record type tag used for link objects (never a real `TypeId`).
pub const LINK_TAG: u16 = 0xFFFF;
/// Record type tag used for separate-replication replica objects.
pub const REPLICA_TAG: u16 = 0xFFFE;

/// Read and decode the object at `oid`, its pages asked of `pins`.
pub fn read_object(
    sm: &StorageManager,
    pins: &PagePins,
    cat: &Catalog,
    oid: Oid,
) -> Result<Object> {
    let decoded = HeapFile::open(oid.file).view(sm, pins, oid, |tag, payload| {
        debug_assert!(tag != LINK_TAG && tag != REPLICA_TAG, "not a data object");
        let type_id = TypeId(tag);
        Object::decode(type_id, cat.type_def(type_id), payload)
    })?;
    Ok(decoded?)
}

/// Lend `f` a view of the stored object at `oid`, read without decoding
/// it, its pages asked of `pins`. `f` runs under the page's read latch
/// and must not call back into the pool.
pub(crate) fn view_object<R>(
    sm: &StorageManager,
    pins: &PagePins,
    cat: &Catalog,
    oid: Oid,
    f: impl FnOnce(ObjectView<'_>) -> std::result::Result<R, ModelError>,
) -> Result<R> {
    let page = pins.fetch(sm.pool(), oid.page_id())?;
    view_pinned(sm, pins, cat, &page, oid, f)
}

/// [`view_object`] through `page`, `oid`'s page as a batch pinned it; a
/// moved body's page is asked of `pins`.
pub(crate) fn view_pinned<R>(
    sm: &StorageManager,
    pins: &PagePins,
    cat: &Catalog,
    page: &PageHandle,
    oid: Oid,
    f: impl FnOnce(ObjectView<'_>) -> std::result::Result<R, ModelError>,
) -> Result<R> {
    let read = HeapFile::open(oid.file).read_pinned(sm, pins, page, oid, |tag, bytes| {
        f(ObjectView::new(cat.type_def(TypeId(tag)), bytes))
    })?;
    Ok(read?)
}

/// Encode and write back the object at `oid` (same type tag), its pages
/// asked of `pins`.
pub fn write_object(
    w: &ApplySection<'_>,
    pins: &PagePins,
    cat: &Catalog,
    oid: Oid,
    obj: &Object,
) -> Result<()> {
    let def = cat.type_def(obj.type_id);
    let payload = obj.encode(def);
    HeapFile::open(oid.file).rec_update(w, pins, oid, &payload)?;
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
/// is NULL). Reads the referenced record's type tag where it lies, its
/// pages asked of `pins`; the payload is neither copied nor decoded.
pub fn check_ref_type(
    sm: &StorageManager,
    pins: &PagePins,
    cat: &Catalog,
    v: &Value,
    expected: TypeId,
) -> Result<()> {
    let oid = v.as_ref_oid().map_err(DbError::from)?;
    if oid.is_null() {
        return Ok(());
    }
    let tag = HeapFile::open(oid.file).view(sm, pins, oid, |tag, _| tag)?;
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
