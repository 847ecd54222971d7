//! Runtime values and their self-describing binary encoding.

use crate::error::ModelError;
use crate::types::FieldType;
use fieldrep_storage::Oid;
use std::fmt;

/// `N` bytes of `b` at `off`, or `Truncated`.
pub(crate) fn le<const N: usize>(b: &[u8], off: usize) -> Result<[u8; N], ModelError> {
    b.get(off..off + N)
        .and_then(|s| s.try_into().ok())
        .ok_or(ModelError::Truncated)
}

/// A runtime value of one field.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(String),
    /// Reference: an OID (possibly [`Oid::NULL`] for an unset reference).
    Ref(Oid),
    /// The value of a `Pad` field (contents are immaterial).
    Unit,
}

impl Value {
    /// Does this value inhabit `ftype`?
    pub fn matches(&self, ftype: &FieldType) -> bool {
        matches!(
            (self, ftype),
            (Value::Int(_), FieldType::Int)
                | (Value::Float(_), FieldType::Float)
                | (Value::Str(_), FieldType::Str)
                | (Value::Ref(_), FieldType::Ref(_))
                | (Value::Unit, FieldType::Pad(_))
        )
    }

    /// The OID inside a `Ref`, or an error.
    pub fn as_ref_oid(&self) -> Result<Oid, ModelError> {
        match self {
            Value::Ref(o) => Ok(*o),
            other => Err(ModelError::TypeMismatch {
                expected: "ref".into(),
                got: other.kind_name().into(),
            }),
        }
    }

    /// The integer inside an `Int`, or an error.
    pub fn as_int(&self) -> Result<i64, ModelError> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(ModelError::TypeMismatch {
                expected: "int".into(),
                got: other.kind_name().into(),
            }),
        }
    }

    /// The string inside a `Str`, or an error.
    pub fn as_str(&self) -> Result<&str, ModelError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(ModelError::TypeMismatch {
                expected: "str".into(),
                got: other.kind_name().into(),
            }),
        }
    }

    /// Human-readable kind name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Ref(_) => "ref",
            Value::Unit => "unit",
        }
    }

    /// Append the self-describing encoding of this value to `out`.
    ///
    /// Self-describing values are used where no schema is in scope: hidden
    /// replica fields and the shared replica objects of separate
    /// replication.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Float(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                let b = s.as_bytes();
                assert!(b.len() <= u16::MAX as usize, "string too long");
                out.extend_from_slice(&(b.len() as u16).to_le_bytes());
                out.extend_from_slice(b);
            }
            Value::Ref(o) => {
                out.push(4);
                out.extend_from_slice(&o.to_bytes());
            }
            Value::Unit => out.push(5),
        }
    }

    /// Self-describing encoding as a fresh vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::new();
        self.encode_into(&mut v);
        v
    }

    /// Decode one self-describing value; returns it and the bytes consumed.
    pub fn decode(b: &[u8]) -> Result<(Value, usize), ModelError> {
        let tag = *b.first().ok_or(ModelError::Truncated)?;
        match tag {
            1 => Ok((Value::Int(i64::from_le_bytes(le(b, 1)?)), 9)),
            2 => Ok((Value::Float(f64::from_le_bytes(le(b, 1)?)), 9)),
            3 => {
                let len = u16::from_le_bytes(le(b, 1)?) as usize;
                let bytes = b.get(3..3 + len).ok_or(ModelError::Truncated)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| ModelError::BadEncoding("non-UTF-8 string".into()))?;
                Ok((Value::Str(s.to_string()), 3 + len))
            }
            4 => {
                let o = Oid::from_bytes(b.get(1..9).ok_or(ModelError::Truncated)?);
                Ok((Value::Ref(o), 9))
            }
            5 => Ok((Value::Unit, 1)),
            other => Err(ModelError::BadEncoding(format!("bad value tag {other}"))),
        }
    }

    /// Encoded width of the value list at the head of `b`, stepping over
    /// its values without decoding them.
    pub(crate) fn list_len_at(b: &[u8]) -> Result<usize, ModelError> {
        let n = *b.first().ok_or(ModelError::Truncated)?;
        let mut off = 1;
        for _ in 0..n {
            off += Value::len_at(b.get(off..).ok_or(ModelError::Truncated)?)?;
        }
        Ok(off)
    }

    /// Encoded width of the one value at the head of `b`, without decoding
    /// it.
    fn len_at(v: &[u8]) -> Result<usize, ModelError> {
        Ok(match (v.first(), v.get(1..3)) {
            (Some(1 | 2 | 4), _) => 9,
            (Some(3), Some(len)) => 3 + u16::from_le_bytes([len[0], len[1]]) as usize,
            (Some(5), _) => 1,
            (Some(3) | None, _) => return Err(ModelError::Truncated),
            (Some(other), _) => {
                return Err(ModelError::BadEncoding(format!("bad value tag {other}")))
            }
        })
    }

    /// Value `i` of the list [`Value::encode_list`] left at the head of
    /// `b`: the values before it are stepped over, not decoded, and none
    /// is copied but the one returned.
    pub fn list_item(b: &[u8], i: usize) -> Result<Value, ModelError> {
        let n = *b.first().ok_or(ModelError::Truncated)? as usize;
        if i >= n {
            return Err(ModelError::BadEncoding(format!(
                "value #{i} of a {n}-value list"
            )));
        }
        let mut off = 1;
        for _ in 0..i {
            off += Value::len_at(b.get(off..).ok_or(ModelError::Truncated)?)?;
        }
        Ok(Value::decode(b.get(off..).ok_or(ModelError::Truncated)?)?.0)
    }

    /// Encode a list of values (used for replica objects in separate
    /// replication, which hold one value per replicated field).
    pub fn encode_list(values: &[Value]) -> Vec<u8> {
        let mut out = Vec::new();
        assert!(values.len() <= u8::MAX as usize);
        out.push(values.len() as u8);
        for v in values {
            v.encode_into(&mut out);
        }
        out
    }

    /// Decode a list produced by [`Value::encode_list`].
    pub fn decode_list(b: &[u8]) -> Result<Vec<Value>, ModelError> {
        let n = *b.first().ok_or(ModelError::Truncated)? as usize;
        let mut off = 1;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let (v, used) = Value::decode(&b[off..])?;
            off += used;
            out.push(v);
        }
        Ok(out)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Ref(o) => write!(f, "@{o}"),
            Value::Unit => write!(f, "()"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldrep_storage::FileId;

    #[test]
    fn roundtrip_all_kinds() {
        let vals = vec![
            Value::Int(-42),
            Value::Float(2.75),
            Value::Str("héllo".into()),
            Value::Ref(Oid::new(FileId(2), 9, 1)),
            Value::Ref(Oid::NULL),
            Value::Unit,
        ];
        for v in &vals {
            let enc = v.encode();
            let (back, used) = Value::decode(&enc).unwrap();
            assert_eq!(&back, v);
            assert_eq!(used, enc.len());
        }
        let list = Value::encode_list(&vals);
        assert_eq!(Value::decode_list(&list).unwrap(), vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&Value::list_item(&list, i).unwrap(), v);
        }
    }

    #[test]
    fn list_item_rejects_what_the_list_does_not_hold() {
        let list = Value::encode_list(&[Value::Str("abc".into()), Value::Int(7)]);
        assert!(Value::list_item(&list, 2).is_err());
        assert!(Value::list_item(&[], 0).is_err());
        // Cut inside the first value: stepping over it must not overrun.
        assert!(Value::list_item(&list[..4], 1).is_err());
        assert!(Value::list_item(&list[..list.len() - 1], 1).is_err());
    }

    #[test]
    fn type_checking() {
        assert!(Value::Int(1).matches(&FieldType::Int));
        assert!(!Value::Int(1).matches(&FieldType::Str));
        assert!(Value::Ref(Oid::NULL).matches(&FieldType::Ref("X".into())));
        assert!(Value::Unit.matches(&FieldType::Pad(10)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int().unwrap(), 5);
        assert!(Value::Str("x".into()).as_int().is_err());
        assert_eq!(Value::Str("x".into()).as_str().unwrap(), "x");
        assert!(Value::Int(1).as_ref_oid().is_err());
    }

    #[test]
    fn truncated_decode_fails() {
        let enc = Value::Str("hello".into()).encode();
        assert!(Value::decode(&enc[..3]).is_err());
        assert!(Value::decode(&[]).is_err());
        assert!(Value::decode(&[99]).is_err());
    }
}
