//! Record decoding: header peek, schema recovery, payload materialization.

use std::convert::Infallible;
use std::sync::Arc;

use crate::attr::AttrList;
use crate::encode::{FLAGS, WIRE_VERSION};
use crate::error::{FfsError, Result};
use crate::types::{BaseType, DimSpec, FieldDesc, FieldType, FormatDesc, Record, Value};
use crate::wire::Reader;
use crate::MAGIC;

/// The fixed-size prefix of every record: its format's fingerprint,
/// read without parsing the schema. [`decode_view`] starts with this
/// check of the first 14 bytes; nothing dispatches on the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedHeader {
    pub fingerprint: u64,
}

/// Peek the record header. Cheap: reads 14 bytes. A flags byte other
/// than the one the encoder writes (schema embedded) is
/// [`FfsError::Corrupt`].
pub fn decode_header(buf: &[u8]) -> Result<DecodedHeader> {
    let mut r = Reader::new(buf);
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(FfsError::BadMagic);
    }
    let version = r.u8("version")?;
    if version != WIRE_VERSION {
        return Err(FfsError::BadVersion(version));
    }
    if r.u8("flags")? != FLAGS {
        return Err(FfsError::Corrupt("flags byte other than schema-embedded"));
    }
    let fingerprint = r.u64("fingerprint")?;
    Ok(DecodedHeader { fingerprint })
}

/// Decode a full record: [`decode_view`], then every field materialized
/// into an owned [`Value`] (array payloads are copied out of `buf`).
/// The second argument is always `None`; see [`decode_view`].
pub fn decode(buf: &[u8], _no_registry: Option<Infallible>) -> Result<Record> {
    let view = decode_view(buf, None)?;
    let values = view
        .values
        .iter()
        .map(|v| v.to_value().map(Some))
        .collect::<Result<_>>()?;
    Ok(Record::from_decoded(view.format, values, view.attrs))
}

/// One field of a [`RecordView`]: scalars are decoded eagerly (they are
/// a handful of bytes), array payloads stay as borrowed slices of the
/// input buffer — no per-field `Vec` copies.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewValue<'a> {
    Scalar(Value),
    /// Raw little-endian element bytes, borrowed from the record buffer.
    Array {
        elem: BaseType,
        count: u64,
        bytes: &'a [u8],
    },
}

impl<'a> ViewValue<'a> {
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ViewValue::Scalar(v) => v.as_u64(),
            ViewValue::Array { .. } => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            ViewValue::Scalar(v) => v.as_str(),
            ViewValue::Array { .. } => None,
        }
    }

    /// The borrowed payload of a `U8` array — the zero-copy fast path for
    /// blob fields.
    pub fn bytes(&self) -> Option<&'a [u8]> {
        match self {
            ViewValue::Array {
                elem: BaseType::U8,
                bytes,
                ..
            } => Some(bytes),
            _ => None,
        }
    }

    /// Materialize an owned [`Value`] (copies array payloads) — the one
    /// place array elements are converted from wire bytes.
    pub fn to_value(&self) -> Result<Value> {
        fn elems<T, const N: usize>(bytes: &[u8], from: fn([u8; N]) -> T) -> Vec<T> {
            bytes
                .chunks_exact(N)
                .map(|c| from(c.try_into().expect("chunks_exact yields N bytes")))
                .collect()
        }
        let (elem, count, bytes) = match self {
            ViewValue::Scalar(v) => return Ok(v.clone()),
            ViewValue::Array { elem, count, bytes } => (*elem, *count, *bytes),
        };
        // The variant's fields are public: hold a hand-built view to what
        // `view_value` guarantees for a decoded one.
        if count.checked_mul(elem.wire_size() as u64) != Some(bytes.len() as u64) {
            return Err(FfsError::Corrupt("array view length disagrees with count"));
        }
        Ok(match elem {
            BaseType::I8 => Value::ArrI8(elems(bytes, i8::from_le_bytes)),
            BaseType::U8 => Value::ArrU8(bytes.to_vec()),
            BaseType::I16 => Value::ArrI16(elems(bytes, i16::from_le_bytes)),
            BaseType::U16 => Value::ArrU16(elems(bytes, u16::from_le_bytes)),
            BaseType::I32 => Value::ArrI32(elems(bytes, i32::from_le_bytes)),
            BaseType::U32 => Value::ArrU32(elems(bytes, u32::from_le_bytes)),
            BaseType::I64 => Value::ArrI64(elems(bytes, i64::from_le_bytes)),
            BaseType::U64 => Value::ArrU64(elems(bytes, u64::from_le_bytes)),
            BaseType::F32 => Value::ArrF32(elems(bytes, f32::from_le_bytes)),
            BaseType::F64 => Value::ArrF64(elems(bytes, f64::from_le_bytes)),
            BaseType::Str => return Err(FfsError::Corrupt("string arrays are not supported")),
        })
    }
}

/// A decoded record whose array payloads borrow from the input buffer.
///
/// This is the staging-pipeline decode path: a pulled chunk's multi-MB
/// payload field is exposed as a slice view into the pull buffer instead
/// of being copied into an owned `Value::ArrU8` first.
#[derive(Debug)]
pub struct RecordView<'a> {
    format: Arc<FormatDesc>,
    values: Vec<ViewValue<'a>>,
    attrs: AttrList,
}

impl<'a> RecordView<'a> {
    #[cfg(test)]
    pub(crate) fn attrs(&self) -> &AttrList {
        &self.attrs
    }

    pub fn get(&self, name: &str) -> Option<&ViewValue<'a>> {
        self.format.field_index(name).map(|i| &self.values[i])
    }
}

/// Decode a record without copying array payloads: the returned view
/// borrows every array field from `buf`. This is the one record walk —
/// [`decode`] materializes its result.
///
/// Every record carries its schema, so there is no format registry to
/// pass: the second argument is an `Option` of the uninhabited
/// [`Infallible`], which only `None` can fill. It remains so that
/// callers written as `decode_view(&buf, None)` (the benchmark
/// harness's among them) keep compiling, until ROADMAP item 1(c)
/// drops it together with their `None`.
pub fn decode_view<'a>(buf: &'a [u8], _no_registry: Option<Infallible>) -> Result<RecordView<'a>> {
    let header = decode_header(buf)?;
    let mut r = Reader::new(buf);
    r.take(14, "header")?; // skip re-validated header

    let format = decode_schema(&mut r)?;
    if format.fingerprint() != header.fingerprint {
        return Err(FfsError::Corrupt("embedded schema fingerprint mismatch"));
    }
    let format = Arc::new(format);

    let attrs = AttrList::decode_from(&mut r)?;

    let mut values: Vec<ViewValue<'a>> = Vec::with_capacity(format.fields().len());
    for field in format.fields() {
        values.push(match &field.ty {
            FieldType::Scalar(b) => view_value(&mut r, *b, false, None)?,
            FieldType::Array { elem, dims } => {
                // Resolve expected length from already-decoded size fields
                // (they are guaranteed to precede this array).
                let mut expected: u64 = 1;
                for d in dims {
                    let extent = match d {
                        DimSpec::Fixed(n) => *n,
                        DimSpec::Var(name) => {
                            let j = format
                                .field_index(name)
                                .ok_or(FfsError::Corrupt("dangling var dim"))?;
                            values
                                .get(j)
                                .and_then(|v| v.as_u64())
                                .ok_or(FfsError::Corrupt("var dim not yet decoded"))?
                        }
                    };
                    expected = expected.saturating_mul(extent);
                }
                view_value(&mut r, *elem, true, Some(expected))?
            }
        });
    }

    Ok(RecordView {
        format,
        values,
        attrs,
    })
}

pub(crate) fn decode_schema(r: &mut Reader<'_>) -> Result<FormatDesc> {
    let name = r.str16("format name")?;
    let nfields = r.u16("field count")? as usize;
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let fname = r.str16("field name")?;
        let kind = r.u8("field kind")?;
        let base = BaseType::from_tag(r.u8("field base")?)?;
        let ty = match kind {
            0 => FieldType::Scalar(base),
            1 => {
                let ndims = r.u8("ndims")? as usize;
                let mut dims = Vec::with_capacity(ndims);
                for _ in 0..ndims {
                    dims.push(match r.u8("dim kind")? {
                        0 => DimSpec::Fixed(r.u64("dim extent")?),
                        1 => DimSpec::Var(r.str16("dim name")?),
                        _ => return Err(FfsError::Corrupt("dim kind tag")),
                    });
                }
                FieldType::Array { elem: base, dims }
            }
            _ => return Err(FfsError::Corrupt("field kind tag")),
        };
        fields.push(FieldDesc { name: fname, ty });
    }
    FormatDesc::from_parts(name, fields)
}

/// Read one value payload: a scalar decoded, or an array as a borrowed
/// view of its element bytes. `expected_len` (when known from the
/// schema) is cross-checked against the on-wire element count.
pub(crate) fn view_value<'a>(
    r: &mut Reader<'a>,
    base: BaseType,
    is_array: bool,
    expected_len: Option<u64>,
) -> Result<ViewValue<'a>> {
    if !is_array {
        return Ok(ViewValue::Scalar(match base {
            BaseType::I8 => Value::I8(r.u8("i8")? as i8),
            BaseType::U8 => Value::U8(r.u8("u8")?),
            BaseType::I16 => Value::I16(r.u16("i16")? as i16),
            BaseType::U16 => Value::U16(r.u16("u16")?),
            BaseType::I32 => Value::I32(r.u32("i32")? as i32),
            BaseType::U32 => Value::U32(r.u32("u32")?),
            BaseType::I64 => Value::I64(r.u64("i64")? as i64),
            BaseType::U64 => Value::U64(r.u64("u64")?),
            BaseType::F32 => Value::F32(r.f32("f32")?),
            BaseType::F64 => Value::F64(r.f64("f64")?),
            BaseType::Str => Value::Str(r.str32("str")?),
        }));
    }

    let count = r.u64("array count")?;
    if expected_len.is_some_and(|exp| exp != count) {
        return Err(FfsError::Corrupt("array count disagrees with dimensions"));
    }
    if base == BaseType::Str {
        return Err(FfsError::Corrupt("string arrays are not supported"));
    }
    // Guard against hostile counts before slicing (and before any
    // materializing allocation).
    let elem_size = base.wire_size();
    if count > (r.remaining() / elem_size) as u64 {
        return Err(FfsError::Truncated("array elements"));
    }
    let bytes = r.take(count as usize * elem_size, "array payload")?;
    Ok(ViewValue::Array {
        elem: base,
        count,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FieldDesc;

    fn sample() -> Record {
        let fmt = FormatDesc::new("sample")
            .field(FieldDesc::scalar("step", BaseType::U32))
            .field(FieldDesc::scalar("label", BaseType::Str))
            .field(FieldDesc::scalar("n", BaseType::U64))
            .field(FieldDesc::vec("x", BaseType::F64, "n"))
            .field(FieldDesc::vec("ids", BaseType::I32, "n"))
            .build()
            .unwrap();
        let mut r = Record::new(&fmt);
        r.set("step", Value::U32(42)).unwrap();
        r.set("label", Value::Str("ions".into())).unwrap();
        r.set("n", Value::U64(3)).unwrap();
        r.set("x", Value::ArrF64(vec![1.0, -2.0, 3.5])).unwrap();
        r.set("ids", Value::ArrI32(vec![-1, 0, 1])).unwrap();
        r.attrs_mut().set("lmin", Value::F64(-2.0));
        r
    }

    #[test]
    fn self_contained_roundtrip() {
        let r = sample();
        let buf = r.encode_self_contained().unwrap();
        let back = decode(&buf, None).unwrap();
        assert_eq!(back.get("step"), Some(&Value::U32(42)));
        assert_eq!(back.get("label"), Some(&Value::Str("ions".into())));
        assert_eq!(back.get("x"), Some(&Value::ArrF64(vec![1.0, -2.0, 3.5])));
        assert_eq!(back.get("ids"), Some(&Value::ArrI32(vec![-1, 0, 1])));
        assert_eq!(back.attrs().get_f64("lmin"), Some(-2.0));
        assert_eq!(back.format().fingerprint(), r.format().fingerprint());
    }

    #[test]
    fn header_peek() {
        let r = sample();
        let buf = r.encode_self_contained().unwrap();
        let h = decode_header(&buf).unwrap();
        assert_eq!(h.fingerprint, r.format().fingerprint());
        assert_eq!(buf[5], FLAGS);
    }

    #[test]
    fn flags_other_than_schema_embedded_are_refused() {
        let mut buf = sample().encode_self_contained().unwrap();
        // 0 is the by-reference form (fingerprint only) that FFS's
        // format server reads; 3 sets a bit nothing defines.
        for flags in [0, 3] {
            buf[5] = flags;
            assert!(matches!(decode_header(&buf), Err(FfsError::Corrupt(_))));
            assert!(decode_view(&buf, None).is_err());
            assert!(decode(&buf, None).is_err());
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let r = sample();
        let mut buf = r.encode_self_contained().unwrap();
        let saved = buf[0];
        buf[0] = b'X';
        assert!(matches!(decode_header(&buf), Err(FfsError::BadMagic)));
        buf[0] = saved;
        buf[4] = 99;
        assert!(matches!(decode_header(&buf), Err(FfsError::BadVersion(99))));
    }

    #[test]
    fn truncated_payload_detected() {
        let r = sample();
        let buf = r.encode_self_contained().unwrap();
        for cut in [buf.len() - 1, buf.len() / 2, 15] {
            assert!(decode(&buf[..cut], None).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn view_borrows_array_payloads_from_input() {
        let r = sample();
        let buf = r.encode_self_contained().unwrap();
        let view = decode_view(&buf, None).unwrap();

        assert_eq!(view.get("step").unwrap().as_u64(), Some(42));
        assert_eq!(view.get("label").unwrap().as_str(), Some("ions"));
        assert_eq!(view.attrs().get_f64("lmin"), Some(-2.0));

        // The f64 array is a borrowed slice whose pointer lies inside the
        // input buffer — the zero-copy property, checked directly.
        let ViewValue::Array { elem, count, bytes } = view.get("x").unwrap() else {
            panic!("x must decode as an array view");
        };
        assert_eq!((*elem, *count), (BaseType::F64, 3));
        let buf_range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        assert!(buf_range.contains(&(bytes.as_ptr() as usize)));
        let xs: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|w| f64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(xs, vec![1.0, -2.0, 3.5]);

        // Materializing still yields the owned decode's values.
        assert_eq!(
            view.get("ids").unwrap().to_value().unwrap(),
            Value::ArrI32(vec![-1, 0, 1])
        );
    }

    #[test]
    fn view_rejects_truncated_and_hostile_input() {
        let r = sample();
        let buf = r.encode_self_contained().unwrap();
        for cut in [buf.len() - 1, buf.len() / 2, 15] {
            assert!(decode_view(&buf[..cut], None).is_err());
        }
    }

    #[test]
    fn hostile_array_count_rejected_without_allocation() {
        // Craft a record whose array claims u64::MAX elements.
        let fmt = FormatDesc::new("f")
            .field(FieldDesc::scalar("n", BaseType::U64))
            .field(FieldDesc::vec("x", BaseType::F64, "n"))
            .build()
            .unwrap();
        let mut r = Record::new(&fmt);
        r.set("n", Value::U64(1)).unwrap();
        r.set("x", Value::ArrF64(vec![0.0])).unwrap();
        let mut buf = r.encode_self_contained().unwrap();
        // Overwrite the trailing count+payload with a huge count.
        let l = buf.len();
        buf[l - 16..l - 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&buf, None).is_err());
        assert!(decode_view(&buf, None).is_err());
    }
}
