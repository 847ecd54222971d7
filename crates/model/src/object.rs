//! Object representation and on-disk encoding.
//!
//! An [`Object`] is the in-memory form of one stored object: its base
//! field values (laid out by its [`TypeDef`]) plus *annotations* — the
//! hidden, engine-managed extras that field replication attaches to
//! objects:
//!
//! * [`Annotation::ReplicaValue`] — an in-place hidden field holding a
//!   replicated value ("objects in Emp1 can be thought of as having a
//!   'hidden' field in which a replicated value for dept.name is stored",
//!   §3.1). The paper handles the structural change through subtyping
//!   (§4); our encoding appends a trailer section, which is the same idea
//!   at the byte level.
//! * [`Annotation::LinkRef`] / [`Annotation::InlineLink`] — the
//!   `(link-OID, link-ID)` pairs stored in each object that lies on a
//!   replication path (§4.1.3). `InlineLink` is the §4.3.1 optimization:
//!   when a link object would hold only a few OIDs it is eliminated and
//!   the OIDs are stored directly in the referencing object.
//! * [`Annotation::ReplicaRef`] — separate replication's hidden reference
//!   from a source object to its shared replica object in `S'` (§5).
//! * [`Annotation::ReplicaAnchor`] — separate replication's bookkeeping on
//!   the *target* object: the OID of its replica object plus a reference
//!   count ("O1 contains R1's OID, a reference count for R1, and a tag…",
//!   §5.2).
//!
//! On-disk layout of an object payload:
//!
//! ```text
//! [base fields, schema order] [annotation count u8] [annotations…]
//! ```
//!
//! [`Object`] is the decoded form; [`ObjectView`] reads — and, for the
//! two annotations a ripple rewrites, edits — the encoded form in place:
//! [`ObjectView::edit_replica_values`] and
//! [`ObjectView::edit_replica_ref`] answer with the
//! [`RecordEdit`](fieldrep_storage::RecordEdit) that leaves exactly the
//! bytes decode → change → encode would, so the two never disagree about
//! the layout above.

use crate::error::ModelError;
use crate::types::{FieldType, TypeDef, TypeId};
use crate::value::{le, Value};
use fieldrep_storage::{Oid, RecordEdit};
use std::ops::Range;

/// Hidden, engine-managed data carried by an object (see module docs).
#[derive(Clone, PartialEq, Debug)]
pub enum Annotation {
    /// In-place replication: hidden replicated values for path `path`
    /// (one value per replicated terminal field, in catalog field order —
    /// a plain field path has one, an `.all` path has several).
    ReplicaValue {
        /// Replication-path id (catalog-assigned).
        path: u16,
        /// The replicated values.
        values: Vec<Value>,
    },
    /// This object lies on link `link` of some replication path(s); its
    /// link object is at `oid`.
    LinkRef {
        /// Link id (catalog-assigned, shared across paths with a common
        /// prefix, §4.1.4).
        link: u8,
        /// OID of the link object.
        oid: Oid,
    },
    /// §4.3.1 optimization: the link object was eliminated and its OIDs
    /// are stored inline.
    InlineLink {
        /// Link id.
        link: u8,
        /// Referencing objects' OIDs, kept sorted.
        oids: Vec<Oid>,
    },
    /// Separate replication: this source object reads the values for path
    /// group `group` from the shared replica object at `oid`.
    ReplicaRef {
        /// Path-group id (one `S'` file per source set and target set pair).
        group: u16,
        /// OID of the shared replica object in `S'`.
        oid: Oid,
    },
    /// Separate replication: this *target* object's values are replicated
    /// into the replica object at `oid`, currently shared by `refcount`
    /// source objects.
    ReplicaAnchor {
        /// Path-group id.
        group: u16,
        /// OID of the replica object in `S'`.
        oid: Oid,
        /// Number of source objects sharing it.
        refcount: u32,
    },
    /// §4.3.3 collapsed inverted paths: this object is an *intermediate*
    /// of a collapsed path. Its own link object no longer exists (that is
    /// the point of collapsing); the marker lets the engine detect that
    /// updates to this object's reference attribute must move tagged
    /// entries between the terminal objects' collapsed link stores.
    CollapsedVia {
        /// The collapsed link's id.
        link: u8,
    },
}

/// Encoding tags of the two annotations a read looks up by id.
const TAG_REPLICA_VALUE: u8 = 1;
const TAG_REPLICA_REF: u8 = 4;

impl Annotation {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Annotation::ReplicaValue { path, values } => {
                out.push(TAG_REPLICA_VALUE);
                out.extend_from_slice(&path.to_le_bytes());
                out.extend_from_slice(&Value::encode_list(values));
            }
            Annotation::LinkRef { link, oid } => {
                out.push(2);
                out.push(*link);
                out.extend_from_slice(&oid.to_bytes());
            }
            Annotation::InlineLink { link, oids } => {
                out.push(3);
                out.push(*link);
                assert!(oids.len() <= u16::MAX as usize);
                out.extend_from_slice(&(oids.len() as u16).to_le_bytes());
                for o in oids {
                    out.extend_from_slice(&o.to_bytes());
                }
            }
            Annotation::ReplicaRef { group, oid } => {
                out.push(TAG_REPLICA_REF);
                out.extend_from_slice(&group.to_le_bytes());
                out.extend_from_slice(&oid.to_bytes());
            }
            Annotation::ReplicaAnchor {
                group,
                oid,
                refcount,
            } => {
                out.push(5);
                out.extend_from_slice(&group.to_le_bytes());
                out.extend_from_slice(&oid.to_bytes());
                out.extend_from_slice(&refcount.to_le_bytes());
            }
            Annotation::CollapsedVia { link } => {
                out.push(6);
                out.push(*link);
            }
        }
    }

    /// Encoded width of the annotation at the head of `b`, without
    /// decoding it.
    fn len_at(b: &[u8]) -> Result<usize, ModelError> {
        match *b.first().ok_or(ModelError::Truncated)? {
            TAG_REPLICA_VALUE => {
                let body = b.get(3..).ok_or(ModelError::Truncated)?;
                Ok(3 + Value::list_len_at(body)?)
            }
            2 => Ok(10),
            3 => Ok(4 + 8 * u16::from_le_bytes(le(b, 2)?) as usize),
            TAG_REPLICA_REF => Ok(11),
            5 => Ok(15),
            6 => Ok(2),
            other => Err(ModelError::BadEncoding(format!(
                "bad annotation tag {other}"
            ))),
        }
    }

    /// Decode one annotation from exactly its bytes (see [`Annotations`]).
    fn decode(b: &[u8]) -> Result<Annotation, ModelError> {
        let oid_at = |off| Ok(Oid::from_bytes(&le::<8>(b, off)?));
        let id = || Ok(u16::from_le_bytes(le(b, 1)?));
        Ok(match b[0] {
            TAG_REPLICA_VALUE => Annotation::ReplicaValue {
                path: id()?,
                values: Value::decode_list(&b[3..])?,
            },
            2 => Annotation::LinkRef {
                link: b[1],
                oid: oid_at(2)?,
            },
            3 => Annotation::InlineLink {
                link: b[1],
                oids: b[4..].chunks_exact(8).map(Oid::from_bytes).collect(),
            },
            TAG_REPLICA_REF => Annotation::ReplicaRef {
                group: id()?,
                oid: oid_at(3)?,
            },
            5 => Annotation::ReplicaAnchor {
                group: id()?,
                oid: oid_at(3)?,
                refcount: u32::from_le_bytes(le(b, 11)?),
            },
            6 => Annotation::CollapsedVia { link: b[1] },
            other => {
                return Err(ModelError::BadEncoding(format!(
                    "bad annotation tag {other}"
                )))
            }
        })
    }
}

/// Walks an annotation section (`[count u8][annotations…]`), yielding each
/// annotation's exact bytes undecoded.
struct Annotations<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Annotations<'a> {
    fn new(section: &'a [u8]) -> Result<Annotations<'a>, ModelError> {
        let (&n, rest) = section.split_first().ok_or(ModelError::Truncated)?;
        Ok(Annotations {
            rest,
            left: n as usize,
        })
    }
}

impl<'a> Iterator for Annotations<'a> {
    type Item = Result<&'a [u8], ModelError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let split = Annotation::len_at(self.rest)
            .and_then(|len| self.rest.split_at_checked(len).ok_or(ModelError::Truncated));
        Some(split.map(|(a, rest)| {
            self.rest = rest;
            a
        }))
    }
}

/// Step over the stored field of type `ftype` at the head of `rest` and
/// decode it. With `want` false the caller is only skipping: a string is
/// neither validated nor copied and the value returned means nothing. The
/// one place that knows how a base field is laid out — [`Object::decode`]
/// wants every field, [`ObjectView`] the one it is asked for.
#[inline(always)]
fn read_field(ftype: &FieldType, rest: &mut &[u8], want: bool) -> Result<Value, ModelError> {
    let mut take = |n: usize| {
        let (head, tail) = rest.split_at_checked(n).ok_or(ModelError::Truncated)?;
        *rest = tail;
        Ok(head)
    };
    Ok(match ftype {
        FieldType::Int => Value::Int(i64::from_le_bytes(le(take(8)?, 0)?)),
        FieldType::Float => Value::Float(f64::from_le_bytes(le(take(8)?, 0)?)),
        FieldType::Str => {
            let len = u16::from_le_bytes(le(take(2)?, 0)?) as usize;
            let bytes = take(len)?;
            if !want {
                return Ok(Value::Unit);
            }
            let s = std::str::from_utf8(bytes)
                .map_err(|_| ModelError::BadEncoding("non-UTF-8 string".into()))?;
            Value::Str(s.to_string())
        }
        FieldType::Ref(_) => Value::Ref(Oid::from_bytes(take(8)?)),
        FieldType::Pad(n) => {
            take(*n as usize)?;
            Value::Unit
        }
    })
}

/// Borrowed access to an encoded object payload: decodes only what is
/// asked for, straight from the stored bytes — how a read takes a base
/// field, or the hidden field replication put beside it, without
/// materialising the [`Object`].
#[derive(Clone, Copy, Debug)]
pub struct ObjectView<'a> {
    def: &'a TypeDef,
    bytes: &'a [u8],
}

impl<'a> ObjectView<'a> {
    /// View `bytes`, a payload of type `def`. Nothing is read until asked.
    pub fn new(def: &'a TypeDef, bytes: &'a [u8]) -> ObjectView<'a> {
        ObjectView { def, bytes }
    }

    /// Base field `idx` (schema order).
    pub fn field(&self, idx: usize) -> Result<Value, ModelError> {
        let mut rest = self.bytes;
        for (i, f) in self.def.fields.iter().enumerate() {
            let v = read_field(&f.ftype, &mut rest, i == idx)?;
            if i == idx {
                return Ok(v);
            }
        }
        Err(ModelError::NoSuchField(format!(
            "#{idx} of {}",
            self.def.name
        )))
    }

    /// One walk over the payload: where the annotation section (its count
    /// byte) starts, where the first annotation with encoding tag `tag`
    /// and id `id` lies, and where the last annotation ends. The fields
    /// and annotations are stepped over, not decoded.
    fn locate(&self, tag: u8, id: u16) -> Result<(usize, Option<Range<usize>>, usize), ModelError> {
        let mut rest = self.bytes;
        for f in &self.def.fields {
            read_field(&f.ftype, &mut rest, false)?;
        }
        let section = self.bytes.len() - rest.len();
        let (mut at, mut found) = (section + 1, None);
        for a in Annotations::new(rest)? {
            let a = a?;
            if found.is_none() && is_annotation(a, tag, id)? {
                found = Some(at..at + a.len());
            }
            at += a.len();
        }
        Ok((section, found, at))
    }

    /// The annotation with encoding tag `tag` and id `id`, decoded.
    fn find(&self, tag: u8, id: u16) -> Result<Option<Annotation>, ModelError> {
        let (_, found, _) = self.locate(tag, id)?;
        found
            .map(|at| Annotation::decode(&self.bytes[at]))
            .transpose()
    }

    /// The hidden replicated values for replication path `path`, if any
    /// (what [`Object::replica_values`] returns for the decoded object).
    pub fn replica_values(&self, path: u16) -> Result<Option<Vec<Value>>, ModelError> {
        self.replica_list(path)?.map(Value::decode_list).transpose()
    }

    /// The stored list of [`ObjectView::replica_values`], undecoded: a
    /// reader takes the positions it projects with [`Value::list_item`].
    pub fn replica_list(&self, path: u16) -> Result<Option<&'a [u8]>, ModelError> {
        let (_, found, _) = self.locate(TAG_REPLICA_VALUE, path)?;
        Ok(found.map(|at| &self.bytes[at.start + 3..at.end]))
    }

    /// The shared replica object this source reads path group `group`
    /// through, if any.
    pub fn replica_ref(&self, group: u16) -> Result<Option<Oid>, ModelError> {
        Ok(match self.find(TAG_REPLICA_REF, group)? {
            Some(Annotation::ReplicaRef { oid, .. }) => Some(oid),
            _ => None,
        })
    }

    /// The edit after which the hidden values of path `path` are `list`
    /// (a [`Value::encode_list`] encoding; `None` clears them) — the bytes
    /// that decoding the object, setting or removing its
    /// [`Annotation::ReplicaValue`] and encoding it again would store,
    /// without the decode: a list of the stored list's length is
    /// overwritten where it lies, any other change splices the annotation
    /// section, and a payload that already reads so is kept.
    pub fn edit_replica_values<'e>(
        &self,
        path: u16,
        list: Option<&'e [u8]>,
    ) -> Result<RecordEdit<'e>, ModelError> {
        let (section, found, end) = self.locate(TAG_REPLICA_VALUE, path)?;
        Ok(match (list, found) {
            (None, None) => RecordEdit::Keep,
            (None, Some(_)) => self.without(section, TAG_REPLICA_VALUE, path)?,
            (Some(list), None) => self.with_appended(section, end, |out| {
                out.push(TAG_REPLICA_VALUE);
                out.extend_from_slice(&path.to_le_bytes());
                out.extend_from_slice(list);
            })?,
            (Some(list), Some(at)) => {
                let stored = &self.bytes[at.start + 3..at.end];
                if stored == list {
                    RecordEdit::Keep
                } else if stored.len() == list.len() {
                    RecordEdit::Overwrite {
                        at: at.start + 3,
                        bytes: list,
                    }
                } else {
                    let head = &self.bytes[..at.start + 3];
                    RecordEdit::Replace([head, list, &self.bytes[at.end..end]].concat())
                }
            }
        })
    }

    /// The edit that appends a [`Annotation::ReplicaRef`] to `replica` for
    /// path group `group` (`None`: removes the group's reference; a
    /// payload without one is kept).
    pub fn edit_replica_ref(
        &self,
        group: u16,
        replica: Option<Oid>,
    ) -> Result<RecordEdit<'static>, ModelError> {
        let (section, found, end) = self.locate(TAG_REPLICA_REF, group)?;
        match (replica, found) {
            (None, None) => Ok(RecordEdit::Keep),
            (None, Some(_)) => self.without(section, TAG_REPLICA_REF, group),
            (Some(oid), _) => self.with_appended(section, end, |out| {
                Annotation::ReplicaRef { group, oid }.encode_into(out);
            }),
        }
    }

    /// The payload without its `(tag, id)` annotations; `section` is where
    /// the annotation section starts.
    fn without(&self, section: usize, tag: u8, id: u16) -> Result<RecordEdit<'static>, ModelError> {
        let mut out = self.bytes[..=section].to_vec();
        out[section] = 0;
        for a in Annotations::new(&self.bytes[section..])? {
            let a = a?;
            if !is_annotation(a, tag, id)? {
                out[section] += 1;
                out.extend_from_slice(a);
            }
        }
        Ok(RecordEdit::Replace(out))
    }

    /// The payload with one more annotation, which `encode` appends;
    /// `section..end` is the annotation section. The count is one byte.
    fn with_appended(
        &self,
        section: usize,
        end: usize,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<RecordEdit<'static>, ModelError> {
        let mut out = Vec::with_capacity(end + 32);
        out.extend_from_slice(&self.bytes[..end]);
        out[section] = out[section]
            .checked_add(1)
            .ok_or_else(|| ModelError::BadEncoding("more than 255 annotations".into()))?;
        encode(&mut out);
        Ok(RecordEdit::Replace(out))
    }
}

/// Whether the encoded annotation `a` has encoding tag `tag` and id `id`.
fn is_annotation(a: &[u8], tag: u8, id: u16) -> Result<bool, ModelError> {
    Ok(a[0] == tag && u16::from_le_bytes(le(a, 1)?) == id)
}

/// An object: typed base values plus hidden annotations.
#[derive(Clone, PartialEq, Debug)]
pub struct Object {
    /// The object's type (its record-header type tag).
    pub type_id: TypeId,
    /// Base field values, in schema order.
    pub values: Vec<Value>,
    /// Hidden engine-managed annotations.
    pub annotations: Vec<Annotation>,
}

impl Object {
    /// Construct an object, type-checking each value against `def`.
    pub fn new(type_id: TypeId, def: &TypeDef, values: Vec<Value>) -> Result<Object, ModelError> {
        if values.len() != def.fields.len() {
            return Err(ModelError::BadEncoding(format!(
                "type {} has {} fields, got {} values",
                def.name,
                def.fields.len(),
                values.len()
            )));
        }
        for (v, f) in values.iter().zip(&def.fields) {
            if !v.matches(&f.ftype) {
                return Err(ModelError::TypeMismatch {
                    expected: format!("{:?} for field {}", f.ftype, f.name),
                    got: v.kind_name().into(),
                });
            }
        }
        Ok(Object {
            type_id,
            values,
            annotations: Vec::new(),
        })
    }

    /// Get a base field value by name.
    pub fn get<'a>(&'a self, def: &TypeDef, name: &str) -> Result<&'a Value, ModelError> {
        let idx = def
            .field_index(name)
            .ok_or_else(|| ModelError::NoSuchField(name.into()))?;
        Ok(&self.values[idx])
    }

    /// Set a base field value by name (type-checked).
    pub fn set(&mut self, def: &TypeDef, name: &str, value: Value) -> Result<(), ModelError> {
        let idx = def
            .field_index(name)
            .ok_or_else(|| ModelError::NoSuchField(name.into()))?;
        if !value.matches(&def.fields[idx].ftype) {
            return Err(ModelError::TypeMismatch {
                expected: format!("{:?}", def.fields[idx].ftype),
                got: value.kind_name().into(),
            });
        }
        self.values[idx] = value;
        Ok(())
    }

    /// The hidden replicated values for replication path `path`, if any.
    pub fn replica_values(&self, path: u16) -> Option<&[Value]> {
        self.annotations.iter().find_map(|a| match a {
            Annotation::ReplicaValue { path: p, values } if *p == path => Some(values.as_slice()),
            _ => None,
        })
    }

    /// Encode to the on-disk payload format.
    pub fn encode(&self, def: &TypeDef) -> Vec<u8> {
        let mut out = Vec::with_capacity(def.min_encoded_size() + 16);
        for (v, f) in self.values.iter().zip(&def.fields) {
            match (v, &f.ftype) {
                (Value::Int(x), FieldType::Int) => out.extend_from_slice(&x.to_le_bytes()),
                (Value::Float(x), FieldType::Float) => out.extend_from_slice(&x.to_le_bytes()),
                (Value::Str(s), FieldType::Str) => {
                    let b = s.as_bytes();
                    assert!(b.len() <= u16::MAX as usize);
                    out.extend_from_slice(&(b.len() as u16).to_le_bytes());
                    out.extend_from_slice(b);
                }
                (Value::Ref(o), FieldType::Ref(_)) => out.extend_from_slice(&o.to_bytes()),
                (Value::Unit, FieldType::Pad(n)) => {
                    out.extend(std::iter::repeat_n(0u8, *n as usize));
                }
                (v, t) => panic!("value {v:?} does not match field type {t:?}"),
            }
        }
        assert!(self.annotations.len() <= u8::MAX as usize);
        out.push(self.annotations.len() as u8);
        for a in &self.annotations {
            a.encode_into(&mut out);
        }
        out
    }

    /// Decode an object payload (inverse of [`Object::encode`]).
    pub fn decode(type_id: TypeId, def: &TypeDef, b: &[u8]) -> Result<Object, ModelError> {
        let mut rest = b;
        let mut values = Vec::with_capacity(def.fields.len());
        for f in &def.fields {
            values.push(read_field(&f.ftype, &mut rest, true)?);
        }
        let section = Annotations::new(rest)?;
        let mut annotations = Vec::with_capacity(section.left);
        for a in section {
            annotations.push(Annotation::decode(a?)?);
        }
        Ok(Object {
            type_id,
            values,
            annotations,
        })
    }

    /// Size of the encoded payload.
    pub fn encoded_len(&self, def: &TypeDef) -> usize {
        self.encode(def).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldrep_storage::FileId;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The oracle [`ObjectView`]'s edits are checked against: what the
    /// engine did to a decoded object before it edited stored bytes.
    impl Object {
        /// Set (insert or overwrite) the hidden replicated values for `path`.
        fn set_replica_values(&mut self, path: u16, values: Vec<Value>) {
            for a in &mut self.annotations {
                if let Annotation::ReplicaValue { path: p, values: v } = a {
                    if *p == path {
                        *v = values;
                        return;
                    }
                }
            }
            self.annotations
                .push(Annotation::ReplicaValue { path, values });
        }

        /// Remove the hidden replicated value for `path` (if present).
        fn clear_replica_value(&mut self, path: u16) {
            self.annotations
                .retain(|a| !matches!(a, Annotation::ReplicaValue { path: p, .. } if *p == path));
        }
    }

    fn emp_type() -> TypeDef {
        TypeDef::new(
            "EMP",
            vec![
                ("name", FieldType::Str),
                ("age", FieldType::Int),
                ("salary", FieldType::Int),
                ("dept", FieldType::Ref("DEPT".into())),
                ("pad", FieldType::Pad(10)),
            ],
        )
    }

    fn sample() -> (TypeDef, Object) {
        let def = emp_type();
        let obj = Object::new(
            TypeId(3),
            &def,
            vec![
                Value::Str("Alice".into()),
                Value::Int(34),
                Value::Int(120_000),
                Value::Ref(Oid::new(FileId(1), 2, 3)),
                Value::Unit,
            ],
        )
        .unwrap();
        (def, obj)
    }

    #[test]
    fn roundtrip_base() {
        let (def, obj) = sample();
        let enc = obj.encode(&def);
        let back = Object::decode(TypeId(3), &def, &enc).unwrap();
        assert_eq!(back, obj);
        // Encoded size: 2+5 (str) + 8 + 8 + 8 + 10 (pad) + 1 (ann count).
        assert_eq!(enc.len(), 7 + 8 + 8 + 8 + 10 + 1);
    }

    #[test]
    fn roundtrip_with_annotations() {
        let (def, mut obj) = sample();
        obj.set_replica_values(4, vec![Value::Str("Sales".into()), Value::Int(7)]);
        obj.annotations.push(Annotation::LinkRef {
            link: 1,
            oid: Oid::new(FileId(5), 6, 7),
        });
        obj.annotations.push(Annotation::InlineLink {
            link: 2,
            oids: vec![Oid::new(FileId(1), 1, 1), Oid::new(FileId(1), 2, 2)],
        });
        obj.annotations.push(Annotation::ReplicaRef {
            group: 9,
            oid: Oid::new(FileId(8), 0, 0),
        });
        obj.annotations.push(Annotation::ReplicaAnchor {
            group: 9,
            oid: Oid::new(FileId(8), 0, 1),
            refcount: 17,
        });
        obj.annotations.push(Annotation::CollapsedVia { link: 5 });
        let enc = obj.encode(&def);
        let back = Object::decode(TypeId(3), &def, &enc).unwrap();
        assert_eq!(back, obj);
        assert_eq!(
            back.replica_values(4).unwrap(),
            &[Value::Str("Sales".into()), Value::Int(7)]
        );
        assert_eq!(back.replica_values(5), None);
    }

    #[test]
    fn view_reads_what_the_decoded_object_holds() {
        let (def, mut obj) = sample();
        // The looked-up annotations sit behind ones of every other shape.
        obj.annotations.push(Annotation::CollapsedVia { link: 5 });
        obj.annotations.push(Annotation::InlineLink {
            link: 2,
            oids: vec![Oid::new(FileId(1), 1, 1), Oid::new(FileId(1), 2, 2)],
        });
        obj.set_replica_values(3, vec![Value::Str("other".into())]);
        obj.annotations.push(Annotation::ReplicaAnchor {
            group: 9,
            oid: Oid::new(FileId(8), 0, 1),
            refcount: 17,
        });
        obj.set_replica_values(4, vec![Value::Str("Sales".into()), Value::Unit]);
        obj.annotations.push(Annotation::LinkRef {
            link: 1,
            oid: Oid::new(FileId(5), 6, 7),
        });
        obj.annotations.push(Annotation::ReplicaRef {
            group: 9,
            oid: Oid::new(FileId(8), 0, 0),
        });
        let enc = obj.encode(&def);
        let view = ObjectView::new(&def, &enc);
        for (i, v) in obj.values.iter().enumerate() {
            assert_eq!(&view.field(i).unwrap(), v);
        }
        assert!(matches!(view.field(5), Err(ModelError::NoSuchField(_))));
        for path in [3, 4, 5] {
            assert_eq!(
                view.replica_values(path).unwrap().as_deref(),
                obj.replica_values(path)
            );
            // The undecoded list reads the same values, one at a time.
            let list = view.replica_list(path).unwrap();
            let items = list.map(|l| {
                let n = obj.replica_values(path).map_or(0, <[Value]>::len);
                (0..n)
                    .map(|i| Value::list_item(l, i).unwrap())
                    .collect::<Vec<_>>()
            });
            assert_eq!(items.as_deref(), obj.replica_values(path));
        }
        assert_eq!(
            view.replica_ref(9).unwrap(),
            Some(Oid::new(FileId(8), 0, 0))
        );
        assert_eq!(view.replica_ref(8).unwrap(), None);
        // A cut anywhere is an error from whichever accessor reaches it,
        // never a panic and never a wrong value.
        for cut in 0..enc.len() {
            let short = ObjectView::new(&def, &enc[..cut]);
            assert!(Object::decode(TypeId(3), &def, &enc[..cut]).is_err());
            assert!(short.replica_ref(9).is_err(), "cut at {cut}");
            for (i, v) in obj.values.iter().enumerate() {
                assert!(short.field(i).map_or(true, |got| &got == v));
            }
        }
    }

    #[test]
    fn replica_value_set_overwrite_clear() {
        let (_, mut obj) = sample();
        obj.set_replica_values(1, vec![Value::Int(10)]);
        obj.set_replica_values(1, vec![Value::Int(20)]);
        assert_eq!(obj.replica_values(1).unwrap(), &[Value::Int(20)]);
        assert_eq!(
            obj.annotations
                .iter()
                .filter(|a| matches!(a, Annotation::ReplicaValue { .. }))
                .count(),
            1
        );
        obj.clear_replica_value(1);
        assert_eq!(obj.replica_values(1), None);
    }

    #[test]
    fn new_type_checks() {
        let def = emp_type();
        // Wrong arity.
        assert!(Object::new(TypeId(3), &def, vec![Value::Int(1)]).is_err());
        // Wrong type.
        let r = Object::new(
            TypeId(3),
            &def,
            vec![
                Value::Int(1), // should be Str
                Value::Int(2),
                Value::Int(3),
                Value::Ref(Oid::NULL),
                Value::Unit,
            ],
        );
        assert!(matches!(r, Err(ModelError::TypeMismatch { .. })));
    }

    #[test]
    fn get_set() {
        let (def, mut obj) = sample();
        assert_eq!(obj.get(&def, "salary").unwrap(), &Value::Int(120_000));
        obj.set(&def, "salary", Value::Int(1)).unwrap();
        assert_eq!(obj.get(&def, "salary").unwrap(), &Value::Int(1));
        assert!(obj.set(&def, "salary", Value::Str("no".into())).is_err());
        assert!(obj.get(&def, "bogus").is_err());
        assert!(matches!(
            obj.get(&def, "bogus"),
            Err(ModelError::NoSuchField(_))
        ));
    }

    #[test]
    fn decode_truncated() {
        let (def, obj) = sample();
        let enc = obj.encode(&def);
        for cut in [0, 5, 10, enc.len() - 1] {
            assert!(Object::decode(TypeId(3), &def, &enc[..cut]).is_err());
        }
    }

    #[test]
    fn pad_sizes_objects_to_target() {
        // The benchmark harness relies on Pad to hit the paper's r = 100.
        let def = TypeDef::new(
            "RTYPE",
            vec![
                ("sref", FieldType::Ref("STYPE".into())),
                ("field_r", FieldType::Int),
                ("pad", FieldType::Pad(83)),
            ],
        );
        let obj = Object::new(
            TypeId(1),
            &def,
            vec![Value::Ref(Oid::NULL), Value::Int(0), Value::Unit],
        )
        .unwrap();
        assert_eq!(obj.encoded_len(&def), 100);
    }

    fn random_oid(rng: &mut StdRng) -> Oid {
        Oid::new(
            FileId(rng.gen_range(1..9u16)),
            rng.gen_range(0..1000u32),
            rng.gen_range(0..40u16),
        )
    }

    fn random_str(rng: &mut StdRng) -> String {
        let len = rng.gen_range(0..12usize);
        (0..len)
            .map(|_| char::from(rng.gen_range(b'a'..b'{')))
            .collect()
    }

    fn random_values(rng: &mut StdRng, n: usize) -> Vec<Value> {
        (0..n)
            .map(|_| match rng.gen_range(0..5u8) {
                0 => Value::Int(rng.gen_range(-1000..1000i64)),
                1 => Value::Float(rng.gen_range(-1000..1000i64) as f64 / 8.0),
                2 => Value::Str(random_str(rng)),
                3 => Value::Ref(random_oid(rng)),
                _ => Value::Unit,
            })
            .collect()
    }

    /// A random type layout with an object of it carrying random
    /// annotations in random order — hidden values of paths 1..=3 and
    /// replica references of groups 1..=2 among every other shape, now
    /// and then the same id twice.
    fn random_object(rng: &mut StdRng) -> (TypeDef, Object) {
        let fields: Vec<(String, FieldType)> = (0..rng.gen_range(0..6usize))
            .map(|i| {
                let ftype = match rng.gen_range(0..5u8) {
                    0 => FieldType::Int,
                    1 => FieldType::Float,
                    2 => FieldType::Str,
                    3 => FieldType::Ref("T".into()),
                    _ => FieldType::Pad(rng.gen_range(0..20u16)),
                };
                (format!("f{i}"), ftype)
            })
            .collect();
        let def = TypeDef::new(
            "T",
            fields
                .iter()
                .map(|(n, t)| (n.as_str(), t.clone()))
                .collect(),
        );
        let values = def
            .fields
            .iter()
            .map(|f| match f.ftype {
                FieldType::Int => Value::Int(rng.gen_range(-9..9i64)),
                FieldType::Float => Value::Float(1.5),
                FieldType::Str => Value::Str(random_str(rng)),
                FieldType::Ref(_) => Value::Ref(random_oid(rng)),
                FieldType::Pad(_) => Value::Unit,
            })
            .collect();
        let mut obj = Object::new(TypeId(1), &def, values).unwrap();
        for _ in 0..rng.gen_range(0..7usize) {
            let n = rng.gen_range(0..4usize);
            obj.annotations.push(match rng.gen_range(0..7u8) {
                0 | 1 => Annotation::ReplicaValue {
                    path: rng.gen_range(1..4u16),
                    values: random_values(rng, n),
                },
                2 => Annotation::ReplicaRef {
                    group: rng.gen_range(1..3u16),
                    oid: random_oid(rng),
                },
                3 => Annotation::LinkRef {
                    link: 1,
                    oid: random_oid(rng),
                },
                4 => Annotation::InlineLink {
                    link: 2,
                    oids: (0..n).map(|_| random_oid(rng)).collect(),
                },
                5 => Annotation::ReplicaAnchor {
                    group: rng.gen_range(1..3u16),
                    oid: random_oid(rng),
                    refcount: 3,
                },
                _ => Annotation::CollapsedVia { link: 4 },
            });
        }
        (def, obj)
    }

    /// What the stored payload `bytes` reads after `edit`.
    fn apply(bytes: &[u8], edit: &RecordEdit<'_>) -> Vec<u8> {
        match edit {
            RecordEdit::Keep => bytes.to_vec(),
            RecordEdit::Overwrite { at, bytes: new } => {
                let mut out = bytes.to_vec();
                out[*at..*at + new.len()].copy_from_slice(new);
                out
            }
            RecordEdit::Replace(payload) => payload.clone(),
        }
    }

    #[test]
    fn edits_store_what_decode_set_encode_would() {
        let mut rng = StdRng::seed_from_u64(0x0ED1_7B17);
        let (mut kept, mut overwritten, mut replaced) = (0, 0, 0);
        for case in 0..4000 {
            let (def, obj) = random_object(&mut rng);
            let bytes = obj.encode(&def);
            let view = ObjectView::new(&def, &bytes);

            // Hidden values: cleared, re-set to what is stored, or set to
            // a list of the same length, longer, shorter or empty.
            let path = rng.gen_range(1..4u16);
            let stored = obj.replica_values(path).map(<[Value]>::to_vec);
            let values = match (rng.gen_range(0..5u8), &stored) {
                (0, _) => None,
                (1, Some(cur)) => Some(cur.clone()),
                (2, Some(cur)) => Some(
                    cur.iter()
                        .map(|v| match v {
                            Value::Int(x) => Value::Int(x + 1),
                            Value::Float(x) => Value::Float(x + 1.0),
                            Value::Str(s) => Value::Str(s.chars().rev().collect()),
                            Value::Ref(_) => Value::Ref(random_oid(&mut rng)),
                            Value::Unit => Value::Unit,
                        })
                        .collect(),
                ),
                _ => {
                    let n = rng.gen_range(0..4usize);
                    Some(random_values(&mut rng, n))
                }
            };
            let list = values.as_deref().map(Value::encode_list);
            let mut want = obj.clone();
            match values {
                Some(v) => want.set_replica_values(path, v),
                None => want.clear_replica_value(path),
            }
            let want = want.encode(&def);
            let edit = view.edit_replica_values(path, list.as_deref()).unwrap();
            assert_eq!(apply(&bytes, &edit), want, "case {case}: values of {path}");
            assert_eq!(edit == RecordEdit::Keep, want == bytes, "case {case}");
            match edit {
                RecordEdit::Keep => kept += 1,
                RecordEdit::Overwrite { .. } => overwritten += 1,
                // A list as long as the stored one never costs a splice.
                RecordEdit::Replace(_) => {
                    assert_ne!(want.len(), bytes.len(), "case {case}");
                    replaced += 1;
                }
            }

            // Replica references: one appended, or the group's removed.
            let group = rng.gen_range(1..3u16);
            let replica = rng.gen_bool(0.5).then(|| random_oid(&mut rng));
            let mut want = obj.clone();
            match replica {
                Some(oid) => want.annotations.push(Annotation::ReplicaRef { group, oid }),
                None => want.annotations.retain(
                    |a| !matches!(a, Annotation::ReplicaRef { group: g, .. } if *g == group),
                ),
            }
            let want = want.encode(&def);
            let edit = view.edit_replica_ref(group, replica).unwrap();
            assert_eq!(apply(&bytes, &edit), want, "case {case}: ref of {group}");
            assert_eq!(edit == RecordEdit::Keep, want == bytes, "case {case}");
        }
        // The generator reaches all three answers.
        assert!(kept > 100 && overwritten > 100 && replaced > 100);
    }

    #[test]
    fn a_256th_annotation_is_a_typed_error() {
        let (def, mut obj) = sample();
        obj.set_replica_values(1, vec![Value::Int(7)]);
        while obj.annotations.len() < 255 {
            obj.annotations.push(Annotation::CollapsedVia { link: 9 });
        }
        let bytes = obj.encode(&def);
        let view = ObjectView::new(&def, &bytes);
        let list = Value::encode_list(&[Value::Int(8)]);
        // The count byte is full: nothing can be appended…
        assert!(matches!(
            view.edit_replica_values(2, Some(&list)),
            Err(ModelError::BadEncoding(_))
        ));
        assert!(matches!(
            view.edit_replica_ref(1, Some(Oid::new(FileId(8), 0, 0))),
            Err(ModelError::BadEncoding(_))
        ));
        // …but what is there can still be rewritten or removed.
        let edit = view.edit_replica_values(1, Some(&list)).unwrap();
        assert!(matches!(edit, RecordEdit::Overwrite { .. }));
        let back = Object::decode(TypeId(3), &def, &apply(&bytes, &edit)).unwrap();
        assert_eq!(back.replica_values(1).unwrap(), &[Value::Int(8)]);
        let edit = view.edit_replica_values(1, None).unwrap();
        let back = Object::decode(TypeId(3), &def, &apply(&bytes, &edit)).unwrap();
        assert_eq!(back.annotations.len(), 254);
    }
}
