//! Format descriptions and record values.

use std::collections::HashMap;
use std::sync::Arc;

use crate::attr::AttrList;
use crate::error::{FfsError, Result};

/// Primitive element types understood by the wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseType {
    I8,
    U8,
    I16,
    U16,
    I32,
    U32,
    I64,
    U64,
    F32,
    F64,
    /// UTF-8 string; only valid as a scalar field.
    Str,
}

impl BaseType {
    /// Size in bytes of one element on the wire; strings are
    /// length-prefixed and report 0 here.
    pub(crate) fn wire_size(self) -> usize {
        match self {
            BaseType::I8 | BaseType::U8 => 1,
            BaseType::I16 | BaseType::U16 => 2,
            BaseType::I32 | BaseType::U32 | BaseType::F32 => 4,
            BaseType::I64 | BaseType::U64 | BaseType::F64 => 8,
            BaseType::Str => 0,
        }
    }

    pub(crate) fn is_integer(self) -> bool {
        !matches!(self, BaseType::F32 | BaseType::F64 | BaseType::Str)
    }

    pub(crate) fn tag(self) -> u8 {
        match self {
            BaseType::I8 => 0,
            BaseType::U8 => 1,
            BaseType::I16 => 2,
            BaseType::U16 => 3,
            BaseType::I32 => 4,
            BaseType::U32 => 5,
            BaseType::I64 => 6,
            BaseType::U64 => 7,
            BaseType::F32 => 8,
            BaseType::F64 => 9,
            BaseType::Str => 10,
        }
    }

    pub(crate) fn from_tag(t: u8) -> Result<Self> {
        Ok(match t {
            0 => BaseType::I8,
            1 => BaseType::U8,
            2 => BaseType::I16,
            3 => BaseType::U16,
            4 => BaseType::I32,
            5 => BaseType::U32,
            6 => BaseType::I64,
            7 => BaseType::U64,
            8 => BaseType::F32,
            9 => BaseType::F64,
            10 => BaseType::Str,
            _ => return Err(FfsError::Corrupt("unknown base-type tag")),
        })
    }

    /// Human-readable name used in error messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            BaseType::I8 => "i8",
            BaseType::U8 => "u8",
            BaseType::I16 => "i16",
            BaseType::U16 => "u16",
            BaseType::I32 => "i32",
            BaseType::U32 => "u32",
            BaseType::I64 => "i64",
            BaseType::U64 => "u64",
            BaseType::F32 => "f32",
            BaseType::F64 => "f64",
            BaseType::Str => "str",
        }
    }
}

/// One dimension of an array field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum DimSpec {
    /// Compile-time-fixed extent.
    Fixed(u64),
    /// Extent given by the named integer scalar field, which must be
    /// declared before the array in the format.
    Var(String),
}

/// The type of a single field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum FieldType {
    Scalar(BaseType),
    Array { elem: BaseType, dims: Vec<DimSpec> },
}

impl FieldType {
    pub(crate) fn type_name(&self) -> String {
        match self {
            FieldType::Scalar(b) => b.name().to_string(),
            FieldType::Array { elem, dims } => format!("{}[{}d]", elem.name(), dims.len()),
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

    pub(crate) fn array(name: impl Into<String>, elem: BaseType, dims: Vec<DimSpec>) -> Self {
        FieldDesc {
            name: name.into(),
            ty: FieldType::Array { elem, dims },
        }
    }

    /// Convenience: a 1-D array sized by an integer field declared earlier.
    pub fn vec(name: impl Into<String>, elem: BaseType, count_field: impl Into<String>) -> Self {
        Self::array(name, elem, vec![DimSpec::Var(count_field.into())])
    }
}

/// A validated, immutable record layout.
///
/// Construct through [`FormatDesc::new`] + [`FormatBuilder::build`], which
/// enforce the FFS streaming invariants: unique field names, size fields
/// preceding the arrays they size, integer size fields, no string arrays.
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
                FieldType::Array { elem, dims } => {
                    eat(&[1, elem.tag(), dims.len() as u8]);
                    for d in dims {
                        match d {
                            DimSpec::Fixed(n) => {
                                eat(&[0]);
                                eat(&n.to_le_bytes());
                            }
                            DimSpec::Var(v) => {
                                eat(&[1]);
                                eat(v.as_bytes());
                                eat(&[0xfe]);
                            }
                        }
                    }
                }
            }
        }
        h
    }

    pub(crate) fn from_parts(name: String, fields: Vec<FieldDesc>) -> Result<Self> {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if index.insert(f.name.clone(), i).is_some() {
                return Err(FfsError::DuplicateField(f.name.clone()));
            }
        }
        // Validate var dims: must reference an earlier integer scalar.
        for (i, f) in fields.iter().enumerate() {
            if let FieldType::Array { dims, .. } = &f.ty {
                for d in dims {
                    if let DimSpec::Var(v) = d {
                        match index.get(v) {
                            Some(&j) if j < i => match &fields[j].ty {
                                FieldType::Scalar(b) if b.is_integer() => {}
                                _ => {
                                    return Err(FfsError::NonIntegerDim {
                                        array: f.name.clone(),
                                        dim: v.clone(),
                                    })
                                }
                            },
                            _ => {
                                return Err(FfsError::BadVarDim {
                                    array: f.name.clone(),
                                    dim: v.clone(),
                                })
                            }
                        }
                    }
                }
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

/// A concrete field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    I8(i8),
    U8(u8),
    I16(i16),
    U16(u16),
    I32(i32),
    U32(u32),
    I64(i64),
    U64(u64),
    F32(f32),
    F64(f64),
    Str(String),
    ArrI8(Vec<i8>),
    ArrU8(Vec<u8>),
    ArrI16(Vec<i16>),
    ArrU16(Vec<u16>),
    ArrI32(Vec<i32>),
    ArrU32(Vec<u32>),
    ArrI64(Vec<i64>),
    ArrU64(Vec<u64>),
    ArrF32(Vec<f32>),
    ArrF64(Vec<f64>),
}

impl Value {
    /// The (base type, is-array) pair this value carries.
    pub(crate) fn shape(&self) -> (BaseType, bool) {
        match self {
            Value::I8(_) => (BaseType::I8, false),
            Value::U8(_) => (BaseType::U8, false),
            Value::I16(_) => (BaseType::I16, false),
            Value::U16(_) => (BaseType::U16, false),
            Value::I32(_) => (BaseType::I32, false),
            Value::U32(_) => (BaseType::U32, false),
            Value::I64(_) => (BaseType::I64, false),
            Value::U64(_) => (BaseType::U64, false),
            Value::F32(_) => (BaseType::F32, false),
            Value::F64(_) => (BaseType::F64, false),
            Value::Str(_) => (BaseType::Str, false),
            Value::ArrI8(_) => (BaseType::I8, true),
            Value::ArrU8(_) => (BaseType::U8, true),
            Value::ArrI16(_) => (BaseType::I16, true),
            Value::ArrU16(_) => (BaseType::U16, true),
            Value::ArrI32(_) => (BaseType::I32, true),
            Value::ArrU32(_) => (BaseType::U32, true),
            Value::ArrI64(_) => (BaseType::I64, true),
            Value::ArrU64(_) => (BaseType::U64, true),
            Value::ArrF32(_) => (BaseType::F32, true),
            Value::ArrF64(_) => (BaseType::F64, true),
        }
    }

    /// Array element count; scalars report `None`.
    pub(crate) fn len(&self) -> Option<u64> {
        Some(match self {
            Value::ArrI8(v) => v.len() as u64,
            Value::ArrU8(v) => v.len() as u64,
            Value::ArrI16(v) => v.len() as u64,
            Value::ArrU16(v) => v.len() as u64,
            Value::ArrI32(v) => v.len() as u64,
            Value::ArrU32(v) => v.len() as u64,
            Value::ArrI64(v) => v.len() as u64,
            Value::ArrU64(v) => v.len() as u64,
            Value::ArrF32(v) => v.len() as u64,
            Value::ArrF64(v) => v.len() as u64,
            _ => return None,
        })
    }

    /// Widen any integer scalar to u64; `None` for everything else.
    pub fn as_u64(&self) -> Option<u64> {
        Some(match *self {
            Value::I8(v) => v as u64,
            Value::U8(v) => v as u64,
            Value::I16(v) => v as u64,
            Value::U16(v) => v as u64,
            Value::I32(v) => v as u64,
            Value::U32(v) => v as u64,
            Value::I64(v) => v as u64,
            Value::U64(v) => v,
            _ => return None,
        })
    }

    /// Widen any numeric scalar to f64; `None` for strings/arrays.
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Value::F32(v) => v as f64,
            Value::F64(v) => v,
            _ => self.as_u64()? as f64,
        })
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
        let (b, arr) = self.shape();
        if arr {
            8 + self.len().unwrap() as usize * b.wire_size()
        } else if b == BaseType::Str {
            4 + match self {
                Value::Str(s) => s.len(),
                _ => unreachable!(),
            }
        } else {
            b.wire_size()
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
/// value per field of its format, plus an attribute list.
#[derive(Debug, Clone)]
pub struct Record {
    format: Arc<FormatDesc>,
    values: Vec<Option<Value>>,
    attrs: AttrList,
}

impl Record {
    pub fn new(format: &Arc<FormatDesc>) -> Self {
        Record {
            format: Arc::clone(format),
            values: vec![None; format.fields().len()],
            attrs: AttrList::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn from_decoded(
        format: Arc<FormatDesc>,
        values: Vec<Option<Value>>,
        attrs: AttrList,
    ) -> Self {
        Record {
            format,
            values,
            attrs,
        }
    }

    pub(crate) fn format(&self) -> &Arc<FormatDesc> {
        &self.format
    }

    pub(crate) fn attrs(&self) -> &AttrList {
        &self.attrs
    }

    #[cfg(test)]
    pub(crate) fn attrs_mut(&mut self) -> &mut AttrList {
        &mut self.attrs
    }

    /// Set a field, validating type and (where statically known) length.
    pub fn set(&mut self, name: &str, value: Value) -> Result<()> {
        let idx = self
            .format
            .field_index(name)
            .ok_or_else(|| FfsError::NoSuchField(name.to_string()))?;
        let field = &self.format.fields()[idx];
        let (vb, varr) = value.shape();
        match &field.ty {
            FieldType::Scalar(b) => {
                if varr || vb != *b {
                    return Err(FfsError::TypeMismatch {
                        field: name.to_string(),
                        expected: b.name().to_string(),
                        got: value.type_name(),
                    });
                }
            }
            FieldType::Array { elem, dims } => {
                if !varr || vb != *elem {
                    return Err(FfsError::TypeMismatch {
                        field: name.to_string(),
                        expected: format!("{}[]", elem.name()),
                        got: value.type_name(),
                    });
                }
                // Fully-fixed dims can be checked immediately; var dims are
                // checked against the sibling size fields at encode time.
                if dims.iter().all(|d| matches!(d, DimSpec::Fixed(_))) {
                    let expected: u64 = dims
                        .iter()
                        .map(|d| match d {
                            DimSpec::Fixed(n) => *n,
                            DimSpec::Var(_) => unreachable!(),
                        })
                        .product();
                    let got = value.len().unwrap();
                    if expected != got {
                        return Err(FfsError::LengthMismatch {
                            field: name.to_string(),
                            expected,
                            got,
                        });
                    }
                }
            }
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
            .field(FieldDesc::vec("x", BaseType::F64, "n"))
            .field(FieldDesc::vec("label", BaseType::U64, "n"))
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_index() {
        let f = particle_format();
        assert_eq!(f.name(), "gtc_particles");
        assert_eq!(f.field_index("x"), Some(1));
        assert_eq!(f.field_index("missing"), None);
    }

    #[test]
    fn duplicate_field_rejected() {
        let e = FormatDesc::new("f")
            .field(FieldDesc::scalar("a", BaseType::I32))
            .field(FieldDesc::scalar("a", BaseType::I64))
            .build()
            .unwrap_err();
        assert_eq!(e, FfsError::DuplicateField("a".into()));
    }

    #[test]
    fn var_dim_must_precede_array() {
        let e = FormatDesc::new("f")
            .field(FieldDesc::vec("x", BaseType::F64, "n"))
            .field(FieldDesc::scalar("n", BaseType::U64))
            .build()
            .unwrap_err();
        assert!(matches!(e, FfsError::BadVarDim { .. }));
    }

    #[test]
    fn var_dim_must_be_integer() {
        let e = FormatDesc::new("f")
            .field(FieldDesc::scalar("n", BaseType::F64))
            .field(FieldDesc::vec("x", BaseType::F64, "n"))
            .build()
            .unwrap_err();
        assert!(matches!(e, FfsError::NonIntegerDim { .. }));
    }

    #[test]
    fn fingerprint_stable_and_discriminating() {
        let a = particle_format();
        let b = particle_format();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = FormatDesc::new("gtc_particles")
            .field(FieldDesc::scalar("n", BaseType::U64))
            .field(FieldDesc::vec("x", BaseType::F32, "n")) // f32 not f64
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
            r.set("x", Value::ArrF32(vec![1.0])),
            Err(FfsError::TypeMismatch { .. })
        ));
        assert!(matches!(
            r.set("nope", Value::U64(0)),
            Err(FfsError::NoSuchField(_))
        ));
        r.set("n", Value::U64(2)).unwrap();
        r.set("x", Value::ArrF64(vec![1.0, 2.0])).unwrap();
        assert_eq!(r.get("x").unwrap().len(), Some(2));
    }

    #[test]
    fn fixed_dims_length_checked_eagerly() {
        let f = FormatDesc::new("grid")
            .field(FieldDesc::array(
                "rho",
                BaseType::F64,
                vec![DimSpec::Fixed(2), DimSpec::Fixed(3)],
            ))
            .build()
            .unwrap();
        let mut r = Record::new(&f);
        assert!(matches!(
            r.set("rho", Value::ArrF64(vec![0.0; 5])),
            Err(FfsError::LengthMismatch { .. })
        ));
        r.set("rho", Value::ArrF64(vec![0.0; 6])).unwrap();
    }

    #[test]
    fn value_widening() {
        assert_eq!(Value::I16(-1).as_u64(), Some(u64::MAX));
        assert_eq!(Value::U32(7).as_f64(), Some(7.0));
        assert_eq!(Value::Str("x".into()).as_u64(), None);
        assert_eq!(Value::ArrF64(vec![1.0]).as_f64(), None);
    }

    #[test]
    fn wire_size_accounting() {
        assert_eq!(Value::U64(0).wire_size(), 8);
        assert_eq!(Value::Str("abc".into()).wire_size(), 7);
        assert_eq!(Value::ArrF32(vec![0.0; 4]).wire_size(), 8 + 16);
    }
}
