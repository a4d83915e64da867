//! Format descriptions and record values.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{FfsError, Result};

/// Element types of the wire format: the ones the pipeline writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseType {
    /// Only as an array (a byte blob).
    U8,
    U64,
    /// Only as a scalar.
    F64,
    /// UTF-8 string; only as a scalar.
    Str,
}

impl BaseType {
    /// Size in bytes of one array element on the wire; strings are
    /// length-prefixed and report 0 here.
    pub(crate) fn wire_size(self) -> usize {
        match self {
            BaseType::U8 => 1,
            BaseType::U64 | BaseType::F64 => 8,
            BaseType::Str => 0,
        }
    }

    /// The wire tag. Tags 0, 2–6 and 8 named types this format no
    /// longer carries; a decoder refuses them.
    pub(crate) fn tag(self) -> u8 {
        match self {
            BaseType::U8 => 1,
            BaseType::U64 => 7,
            BaseType::F64 => 9,
            BaseType::Str => 10,
        }
    }

    pub(crate) fn from_tag(t: u8) -> Result<Self> {
        Ok(match t {
            1 => BaseType::U8,
            7 => BaseType::U64,
            9 => BaseType::F64,
            10 => BaseType::Str,
            _ => return Err(FfsError::Corrupt("unknown base-type tag")),
        })
    }

    /// Human-readable name used in error messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            BaseType::U8 => "u8",
            BaseType::U64 => "u64",
            BaseType::F64 => "f64",
            BaseType::Str => "str",
        }
    }
}

/// The type of a single field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum FieldType {
    Scalar(BaseType),
    /// A one-dimensional array whose length is the `u64` field named
    /// `count`, declared before it.
    Array {
        elem: BaseType,
        count: String,
    },
}

impl FieldType {
    /// The (base type, is-array) pair of the field's values.
    pub(crate) fn shape(&self) -> (BaseType, bool) {
        match self {
            FieldType::Scalar(b) => (*b, false),
            FieldType::Array { elem, .. } => (*elem, true),
        }
    }

    pub(crate) fn type_name(&self) -> String {
        match self {
            FieldType::Scalar(b) => b.name().to_string(),
            FieldType::Array { elem, .. } => format!("{}[]", elem.name()),
        }
    }
}

/// A named field within a format.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldDesc {
    pub(crate) name: String,
    pub(crate) ty: FieldType,
}

impl FieldDesc {
    pub fn scalar(name: impl Into<String>, base: BaseType) -> Self {
        FieldDesc {
            name: name.into(),
            ty: FieldType::Scalar(base),
        }
    }

    /// A 1-D array sized by a `u64` field declared earlier.
    pub fn vec(name: impl Into<String>, elem: BaseType, count_field: impl Into<String>) -> Self {
        FieldDesc {
            name: name.into(),
            ty: FieldType::Array {
                elem,
                count: count_field.into(),
            },
        }
    }
}

/// A validated, immutable record layout.
///
/// Construct through [`FormatDesc::new`] + [`FormatBuilder::build`], which
/// enforce the FFS streaming invariants: unique field names, size fields
/// preceding the arrays they size, `u64` size fields, only the shapes a
/// [`Value`] has, and names and a field count the wire's `u16` lengths
/// can carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatDesc {
    name: String,
    fields: Vec<FieldDesc>,
    index: HashMap<String, usize>,
}

impl FormatDesc {
    /// Start building a format with the given name.
    #[allow(clippy::new_ret_no_self)] // `new` opens the builder, by design
    pub fn new(name: impl Into<String>) -> FormatBuilder {
        FormatBuilder {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn fields(&self) -> &[FieldDesc] {
        &self.fields
    }

    pub(crate) fn field_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// FNV-1a fingerprint over the canonical schema serialization; two
    /// structurally identical formats always share a fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.name.as_bytes());
        eat(&[0xff]);
        for f in &self.fields {
            eat(f.name.as_bytes());
            match &f.ty {
                FieldType::Scalar(b) => eat(&[0, b.tag()]),
                // Array, one dimension, sized by a field: the bytes
                // every earlier release hashed for this shape.
                FieldType::Array { elem, count } => {
                    eat(&[1, elem.tag(), 1, 1]);
                    eat(count.as_bytes());
                    eat(&[0xfe]);
                }
            }
        }
        h
    }

    /// The one check of a format, built or decoded.
    pub(crate) fn from_parts(name: String, fields: Vec<FieldDesc>) -> Result<Self> {
        let wire_len = |what: &'static str, len: usize| {
            if len > u16::MAX as usize {
                Err(FfsError::TooLong { what, len })
            } else {
                Ok(())
            }
        };
        wire_len("format name", name.len())?;
        wire_len("field list", fields.len())?;
        let mut index: HashMap<String, usize> = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            wire_len("field name", f.name.len())?;
            // Only the shapes a `Value` has: `u64`, `f64` and `str`
            // scalars, `u8` and `u64` arrays.
            if !matches!(
                f.ty.shape(),
                (BaseType::U64 | BaseType::F64 | BaseType::Str, false)
                    | (BaseType::U8 | BaseType::U64, true)
            ) {
                return Err(FfsError::Unsupported {
                    field: f.name.clone(),
                    ty: f.ty.type_name(),
                });
            }
            // A size field is a `u64` scalar declared earlier; `index`
            // holds the earlier fields only.
            if let FieldType::Array { count, .. } = &f.ty {
                match index.get(count) {
                    Some(&j) if fields[j].ty == FieldType::Scalar(BaseType::U64) => {}
                    Some(_) => {
                        return Err(FfsError::NonIntegerDim {
                            array: f.name.clone(),
                            dim: count.clone(),
                        })
                    }
                    None => {
                        return Err(FfsError::BadVarDim {
                            array: f.name.clone(),
                            dim: count.clone(),
                        })
                    }
                }
            }
            if index.insert(f.name.clone(), i).is_some() {
                return Err(FfsError::DuplicateField(f.name.clone()));
            }
        }
        Ok(FormatDesc {
            name,
            fields,
            index,
        })
    }
}

/// Incremental builder returned by [`FormatDesc::new`].
#[derive(Debug, Clone)]
pub struct FormatBuilder {
    name: String,
    fields: Vec<FieldDesc>,
}

impl FormatBuilder {
    pub fn field(mut self, f: FieldDesc) -> Self {
        self.fields.push(f);
        self
    }

    pub fn build(self) -> Result<Arc<FormatDesc>> {
        FormatDesc::from_parts(self.name, self.fields).map(Arc::new)
    }
}

/// A concrete field value: one of the shapes the pipeline writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    F64(f64),
    Str(String),
    ArrU8(Vec<u8>),
    ArrU64(Vec<u64>),
}

impl Value {
    /// The (base type, is-array) pair this value carries.
    pub(crate) fn shape(&self) -> (BaseType, bool) {
        match self {
            Value::U64(_) => (BaseType::U64, false),
            Value::F64(_) => (BaseType::F64, false),
            Value::Str(_) => (BaseType::Str, false),
            Value::ArrU8(_) => (BaseType::U8, true),
            Value::ArrU64(_) => (BaseType::U64, true),
        }
    }

    /// Array element count; scalars report `None`.
    pub(crate) fn len(&self) -> Option<u64> {
        match self {
            Value::ArrU8(v) => Some(v.len() as u64),
            Value::ArrU64(v) => Some(v.len() as u64),
            _ => None,
        }
    }

    /// A `u64` scalar; `None` for everything else.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            _ => None,
        }
    }

    /// A numeric scalar widened to f64; `None` for strings/arrays.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(v) => Some(v),
            _ => Some(self.as_u64()? as f64),
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Payload size of this value on the wire, in bytes (arrays include
    /// their 8-byte element-count prefix, strings their 4-byte length).
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            Value::U64(_) | Value::F64(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::ArrU8(a) => 8 + a.len(),
            Value::ArrU64(a) => 8 + 8 * a.len(),
        }
    }

    pub(crate) fn type_name(&self) -> String {
        let (b, arr) = self.shape();
        if arr {
            format!("{}[]", b.name())
        } else {
            b.name().to_string()
        }
    }
}

/// A record under construction or the result of decoding: one optional
/// value per field of its format.
#[derive(Debug, Clone)]
pub struct Record {
    format: Arc<FormatDesc>,
    values: Vec<Option<Value>>,
}

impl Record {
    pub fn new(format: &Arc<FormatDesc>) -> Self {
        Record {
            format: Arc::clone(format),
            values: vec![None; format.fields().len()],
        }
    }

    #[cfg(test)]
    pub(crate) fn from_decoded(format: Arc<FormatDesc>, values: Vec<Option<Value>>) -> Self {
        Record { format, values }
    }

    pub(crate) fn format(&self) -> &Arc<FormatDesc> {
        &self.format
    }

    /// Set a field, validating its type; an array's length is checked
    /// against its size field at encode time.
    pub fn set(&mut self, name: &str, value: Value) -> Result<()> {
        let idx = self
            .format
            .field_index(name)
            .ok_or_else(|| FfsError::NoSuchField(name.to_string()))?;
        let field = &self.format.fields()[idx];
        if value.shape() != field.ty.shape() {
            return Err(FfsError::TypeMismatch {
                field: name.to_string(),
                expected: field.ty.type_name(),
                got: value.type_name(),
            });
        }
        self.values[idx] = Some(value);
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn get(&self, name: &str) -> Option<&Value> {
        let idx = self.format.field_index(name)?;
        self.values[idx].as_ref()
    }

    pub(crate) fn values(&self) -> &[Option<Value>] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn particle_format() -> Arc<FormatDesc> {
        FormatDesc::new("gtc_particles")
            .field(FieldDesc::scalar("n", BaseType::U64))
            .field(FieldDesc::vec("raw", BaseType::U8, "n"))
            .field(FieldDesc::vec("label", BaseType::U64, "n"))
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_index() {
        let f = particle_format();
        assert_eq!(f.name(), "gtc_particles");
        assert_eq!(f.field_index("raw"), Some(1));
        assert_eq!(f.field_index("missing"), None);
    }

    #[test]
    fn duplicate_field_rejected() {
        let e = FormatDesc::new("f")
            .field(FieldDesc::scalar("a", BaseType::U64))
            .field(FieldDesc::scalar("a", BaseType::F64))
            .build()
            .unwrap_err();
        assert_eq!(e, FfsError::DuplicateField("a".into()));
    }

    #[test]
    fn var_dim_must_precede_array() {
        let e = FormatDesc::new("f")
            .field(FieldDesc::vec("x", BaseType::U64, "n"))
            .field(FieldDesc::scalar("n", BaseType::U64))
            .build()
            .unwrap_err();
        assert!(matches!(e, FfsError::BadVarDim { .. }));
        // Nor can an array size itself.
        let e = FormatDesc::new("f")
            .field(FieldDesc::vec("x", BaseType::U64, "x"))
            .build()
            .unwrap_err();
        assert!(matches!(e, FfsError::BadVarDim { .. }));
    }

    #[test]
    fn var_dim_must_be_a_u64_scalar() {
        for size in [
            FieldDesc::scalar("n", BaseType::F64),
            FieldDesc::scalar("n", BaseType::Str),
            FieldDesc::vec("n", BaseType::U64, "m"),
        ] {
            let e = FormatDesc::new("f")
                .field(FieldDesc::scalar("m", BaseType::U64))
                .field(size)
                .field(FieldDesc::vec("x", BaseType::U8, "n"))
                .build()
                .unwrap_err();
            assert!(matches!(e, FfsError::NonIntegerDim { .. }), "{e:?}");
        }
    }

    /// A scalar `u8` and arrays of `f64` or `str` have no [`Value`]:
    /// they are refused at build, as at decode.
    #[test]
    fn shapes_without_a_value_are_refused() {
        for (field, ty) in [
            (FieldDesc::scalar("x", BaseType::U8), "u8"),
            (FieldDesc::vec("x", BaseType::F64, "n"), "f64[]"),
            (FieldDesc::vec("x", BaseType::Str, "n"), "str[]"),
        ] {
            let e = FormatDesc::new("f")
                .field(FieldDesc::scalar("n", BaseType::U64))
                .field(field)
                .build()
                .unwrap_err();
            assert_eq!(
                e,
                FfsError::Unsupported {
                    field: "x".into(),
                    ty: ty.into()
                }
            );
        }
    }

    /// Names and the field count travel behind `u16` lengths: a longer
    /// one is refused at build, not cut short on the wire.
    #[test]
    fn names_and_field_counts_the_wire_cannot_carry_are_refused() {
        let long = "n".repeat(u16::MAX as usize + 1);
        let e = FormatDesc::new(long.clone()).build().unwrap_err();
        assert_eq!(
            e,
            FfsError::TooLong {
                what: "format name",
                len: 65_536
            }
        );
        let e = FormatDesc::new("f")
            .field(FieldDesc::scalar(long.clone(), BaseType::U64))
            .build()
            .unwrap_err();
        assert!(matches!(
            e,
            FfsError::TooLong {
                what: "field name",
                ..
            }
        ));
        let many = (0..=u16::MAX as usize).fold(FormatDesc::new("f"), |b, i| {
            b.field(FieldDesc::scalar(format!("f{i}"), BaseType::U64))
        });
        assert!(matches!(
            many.build().unwrap_err(),
            FfsError::TooLong {
                what: "field list",
                len: 65_536
            }
        ));
        // The longest name the wire carries is accepted.
        FormatDesc::new(&long[1..]).build().unwrap();
    }

    #[test]
    fn fingerprint_stable_and_discriminating() {
        let a = particle_format();
        let b = particle_format();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = FormatDesc::new("gtc_particles")
            .field(FieldDesc::scalar("n", BaseType::U64))
            .field(FieldDesc::vec("raw", BaseType::U64, "n")) // u64 not u8
            .field(FieldDesc::vec("label", BaseType::U64, "n"))
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn set_type_checked() {
        let f = particle_format();
        let mut r = Record::new(&f);
        assert!(matches!(
            r.set("n", Value::F64(1.0)),
            Err(FfsError::TypeMismatch { .. })
        ));
        assert!(matches!(
            r.set("raw", Value::ArrU64(vec![1])),
            Err(FfsError::TypeMismatch { .. })
        ));
        assert!(matches!(
            r.set("n", Value::ArrU64(vec![1])),
            Err(FfsError::TypeMismatch { .. })
        ));
        assert!(matches!(
            r.set("nope", Value::U64(0)),
            Err(FfsError::NoSuchField(_))
        ));
        r.set("n", Value::U64(2)).unwrap();
        r.set("raw", Value::ArrU8(vec![1, 2])).unwrap();
        assert_eq!(r.get("raw").unwrap().len(), Some(2));
    }

    #[test]
    fn value_widening() {
        assert_eq!(Value::U64(7).as_f64(), Some(7.0));
        assert_eq!(Value::F64(0.5).as_u64(), None);
        assert_eq!(Value::Str("x".into()).as_u64(), None);
        assert_eq!(Value::ArrU64(vec![1]).as_f64(), None);
    }

    #[test]
    fn wire_size_accounting() {
        assert_eq!(Value::U64(0).wire_size(), 8);
        assert_eq!(Value::Str("abc".into()).wire_size(), 7);
        assert_eq!(Value::ArrU8(vec![0; 4]).wire_size(), 8 + 4);
        assert_eq!(Value::ArrU64(vec![0; 4]).wire_size(), 8 + 32);
    }
}
