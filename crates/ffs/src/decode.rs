//! Record decoding: header peek, schema recovery, payload materialization.

use std::convert::Infallible;
use std::sync::Arc;

use crate::encode::{FLAGS, WIRE_VERSION};
use crate::error::{FfsError, Result};
use crate::types::{BaseType, FieldDesc, FieldType, FormatDesc, Value};
use crate::wire::Reader;
use crate::MAGIC;

/// The fixed-size prefix of every record: its format's fingerprint,
/// read without parsing the schema. [`decode_view`] starts with this
/// check of the first 14 bytes; nothing dispatches on the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedHeader {
    pub fingerprint: u64,
}

/// Peek the record header. Cheap: reads 14 bytes. A version other than
/// the encoder's is [`FfsError::BadVersion`] (version 1 carried a
/// record-level attribute list this layout does not), and a flags byte
/// other than the one the encoder writes (schema embedded) is
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
/// The second argument is always `None`; see [`decode_view`]. The
/// round-trip tests' oracle: the pipeline reads records through
/// [`decode_view`] alone.
#[cfg(test)]
pub(crate) fn decode(buf: &[u8], _no_registry: Option<Infallible>) -> Result<crate::Record> {
    let view = decode_view(buf, None)?;
    let values = view
        .values
        .iter()
        .map(|v| v.to_value().map(Some))
        .collect::<Result<_>>()?;
    Ok(crate::Record::from_decoded(view.format, values))
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
        let (elem, count, bytes) = match self {
            ViewValue::Scalar(v) => return Ok(v.clone()),
            ViewValue::Array { elem, count, bytes } => (*elem, *count, *bytes),
        };
        // The variant's fields are public: hold a hand-built view to what
        // `view_value` guarantees for a decoded one.
        if count.checked_mul(elem.wire_size() as u64) != Some(bytes.len() as u64) {
            return Err(FfsError::Corrupt("array view length disagrees with count"));
        }
        match elem {
            BaseType::U8 => Ok(Value::ArrU8(bytes.to_vec())),
            BaseType::U64 => Ok(Value::ArrU64(
                bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
                    .collect(),
            )),
            BaseType::F64 | BaseType::Str => Err(FfsError::Corrupt("no array of this type")),
        }
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
}

impl<'a> RecordView<'a> {
    pub fn get(&self, name: &str) -> Option<&ViewValue<'a>> {
        self.format.field_index(name).map(|i| &self.values[i])
    }
}

/// Decode a record without copying array payloads: the returned view
/// borrows every array field from `buf`. This is the one record walk
/// (the tests' owned decoder materializes its result).
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

    let mut values: Vec<ViewValue<'a>> = Vec::with_capacity(format.fields().len());
    for field in format.fields() {
        values.push(match &field.ty {
            FieldType::Scalar(b) => view_value(&mut r, *b, false, None)?,
            FieldType::Array { elem, count } => {
                // The size field precedes this array (checked when the
                // schema was), so it is decoded already.
                let n = format
                    .field_index(count)
                    .and_then(|j| values.get(j))
                    .and_then(|v| v.as_u64())
                    .ok_or(FfsError::Corrupt("array size field not yet decoded"))?;
                view_value(&mut r, *elem, true, Some(n))?
            }
        });
    }

    Ok(RecordView { format, values })
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
                if r.u8("ndims")? != 1 {
                    return Err(FfsError::Corrupt("array of other than one dimension"));
                }
                if r.u8("dim kind")? != 1 {
                    return Err(FfsError::Corrupt("array extent not given by a size field"));
                }
                let count = r.str16("dim name")?;
                FieldType::Array { elem: base, count }
            }
            _ => return Err(FfsError::Corrupt("field kind tag")),
        };
        fields.push(FieldDesc { name: fname, ty });
    }
    FormatDesc::from_parts(name, fields)
}

/// Read one value payload: a scalar decoded, or an array as a borrowed
/// view of its element bytes. `expected_len` (when known from the
/// schema) is cross-checked against the on-wire element count. A shape
/// no [`Value`] has is [`FfsError::Corrupt`].
pub(crate) fn view_value<'a>(
    r: &mut Reader<'a>,
    base: BaseType,
    is_array: bool,
    expected_len: Option<u64>,
) -> Result<ViewValue<'a>> {
    let elem_size = match (base, is_array) {
        (BaseType::U64, false) => return Ok(ViewValue::Scalar(Value::U64(r.u64("u64")?))),
        (BaseType::F64, false) => return Ok(ViewValue::Scalar(Value::F64(r.f64("f64")?))),
        (BaseType::Str, false) => return Ok(ViewValue::Scalar(Value::Str(r.str32("str")?))),
        (BaseType::U8 | BaseType::U64, true) => base.wire_size(),
        _ => return Err(FfsError::Corrupt("value shape with no wire form")),
    };
    let count = r.u64("array count")?;
    if expected_len.is_some_and(|exp| exp != count) {
        return Err(FfsError::Corrupt(
            "array count disagrees with its size field",
        ));
    }
    // Guard against hostile counts before slicing (and before any
    // materializing allocation).
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
    use crate::types::{FieldDesc, Record};

    fn sample() -> Record {
        let fmt = FormatDesc::new("sample")
            .field(FieldDesc::scalar("step", BaseType::U64))
            .field(FieldDesc::scalar("label", BaseType::Str))
            .field(FieldDesc::scalar("lmin", BaseType::F64))
            .field(FieldDesc::scalar("n", BaseType::U64))
            .field(FieldDesc::vec("raw", BaseType::U8, "n"))
            .field(FieldDesc::vec("ids", BaseType::U64, "n"))
            .build()
            .unwrap();
        let mut r = Record::new(&fmt);
        r.set("step", Value::U64(42)).unwrap();
        r.set("label", Value::Str("ions".into())).unwrap();
        r.set("lmin", Value::F64(-2.0)).unwrap();
        r.set("n", Value::U64(3)).unwrap();
        r.set("raw", Value::ArrU8(vec![1, 0, 255])).unwrap();
        r.set("ids", Value::ArrU64(vec![u64::MAX, 0, 1])).unwrap();
        r
    }

    #[test]
    fn self_contained_roundtrip() {
        let r = sample();
        let buf = r.encode_self_contained().unwrap();
        let back = decode(&buf, None).unwrap();
        for name in ["step", "label", "lmin", "n", "raw", "ids"] {
            assert_eq!(back.get(name), r.get(name), "{name}");
        }
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
        // Version 1 put a record-level attribute list after the schema.
        for version in [1, 99] {
            buf[4] = version;
            assert_eq!(decode_header(&buf), Err(FfsError::BadVersion(version)));
            assert_eq!(
                decode_view(&buf, None).unwrap_err(),
                FfsError::BadVersion(version)
            );
        }
    }

    /// A schema naming a base tag no type has any more is refused before
    /// any payload is read.
    #[test]
    fn retired_base_tags_are_refused() {
        let buf = sample().encode_self_contained().unwrap();
        // The first field, `step`: name, then kind 0 and its base tag.
        let at = 14 + 2 + "sample".len() + 2 + 2 + "step".len() + 1;
        assert_eq!(buf[at], BaseType::U64.tag());
        for tag in [0, 2, 3, 4, 5, 6, 8, 11, 255] {
            let mut bad = buf.clone();
            bad[at] = tag;
            assert_eq!(
                decode_view(&bad, None).unwrap_err(),
                FfsError::Corrupt("unknown base-type tag")
            );
        }
    }

    #[test]
    fn truncated_payload_detected() {
        let r = sample();
        let buf = r.encode_self_contained().unwrap();
        for cut in [buf.len() - 1, buf.len() / 2, 15] {
            assert!(decode(&buf[..cut], None).is_err(), "cut at {cut} must fail");
            assert!(decode_view(&buf[..cut], None).is_err());
        }
    }

    #[test]
    fn view_borrows_array_payloads_from_input() {
        let r = sample();
        let buf = r.encode_self_contained().unwrap();
        let view = decode_view(&buf, None).unwrap();

        assert_eq!(view.get("step").unwrap().as_u64(), Some(42));
        assert_eq!(view.get("label").unwrap().as_str(), Some("ions"));

        // Array payloads are borrowed slices whose pointers lie inside
        // the input buffer — the zero-copy property, checked directly.
        let buf_range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        let raw = view.get("raw").unwrap().bytes().unwrap();
        assert_eq!(raw, [1, 0, 255]);
        assert!(buf_range.contains(&(raw.as_ptr() as usize)));
        let ViewValue::Array { elem, count, bytes } = view.get("ids").unwrap() else {
            panic!("ids must decode as an array view");
        };
        assert_eq!((*elem, *count), (BaseType::U64, 3));
        assert!(buf_range.contains(&(bytes.as_ptr() as usize)));
        assert_eq!(view.get("ids").unwrap().bytes(), None, "not a byte array");

        // Materializing still yields the owned decode's values.
        assert_eq!(
            view.get("ids").unwrap().to_value().unwrap(),
            Value::ArrU64(vec![u64::MAX, 0, 1])
        );
    }

    #[test]
    fn hand_built_views_are_checked() {
        let bytes = [0u8; 8];
        for (elem, count) in [(BaseType::U64, 2), (BaseType::U8, 7)] {
            let v = ViewValue::Array {
                elem,
                count,
                bytes: &bytes,
            };
            assert!(matches!(v.to_value(), Err(FfsError::Corrupt(_))));
        }
        let f64s = ViewValue::Array {
            elem: BaseType::F64,
            count: 1,
            bytes: &bytes,
        };
        assert_eq!(
            f64s.to_value(),
            Err(FfsError::Corrupt("no array of this type"))
        );
    }

    #[test]
    fn hostile_array_count_rejected_without_allocation() {
        // Craft a record whose array claims u64::MAX elements.
        let fmt = FormatDesc::new("f")
            .field(FieldDesc::scalar("n", BaseType::U64))
            .field(FieldDesc::vec("x", BaseType::U64, "n"))
            .build()
            .unwrap();
        let mut r = Record::new(&fmt);
        r.set("n", Value::U64(1)).unwrap();
        r.set("x", Value::ArrU64(vec![0])).unwrap();
        let mut buf = r.encode_self_contained().unwrap();
        // Overwrite the trailing count+payload with a huge count.
        let l = buf.len();
        buf[l - 16..l - 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&buf, None).is_err());
        assert!(decode_view(&buf, None).is_err());
    }
}
