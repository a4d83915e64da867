//! Record encoding: schema-embedded ("self-contained") and by-reference.
//!
//! Wire layout (all little-endian):
//!
//! ```text
//! record      := magic(4) version(1) flags(1) fingerprint(8)
//!                [schema]            -- iff flags bit 0
//!                attrs payload
//! schema      := name:str16 nfields:u16 field*
//! field       := name:str16 kind:u8 base:u8 [ndims:u8 dim*]   -- kind 0 scalar, 1 array
//! dim         := 0 extent:u64 | 1 name:str16
//! attrs       := see AttrList
//! payload     := value*                        -- fields in declaration order
//! value       := scalar bytes | count:u64 elems | len:u32 utf8  -- str
//! ```

use crate::attr::AttrList;
use crate::error::{FfsError, Result};
use crate::types::{BaseType, DimSpec, FieldType, FormatDesc, Record, Value};
use crate::wire::Writer;
use crate::MAGIC;

pub(crate) const WIRE_VERSION: u8 = 1;
pub(crate) const FLAG_EMBEDDED_SCHEMA: u8 = 0b0000_0001;

impl Record {
    /// Encode with the schema embedded; any receiver can decode the result
    /// without prior knowledge. This is the form PreDatA uses for packed
    /// partial data chunks.
    pub fn encode_self_contained(&self) -> Result<Vec<u8>> {
        self.encode_inner(true)
    }

    /// Encode carrying only the format fingerprint. The receiver must hold
    /// the format in a [`crate::FormatRegistry`]; this saves the schema
    /// bytes on every message of a long-lived stream. Only the tests
    /// write such records; the pipeline embeds the schema.
    #[cfg(test)]
    pub(crate) fn encode_by_ref(&self) -> Result<Vec<u8>> {
        self.encode_inner(false)
    }

    fn encode_inner(&self, embed: bool) -> Result<Vec<u8>> {
        let fmt = self.format();
        let payload_size: usize = self
            .values()
            .iter()
            .map(|v| v.as_ref().map_or(0, Value::wire_size))
            .sum();
        let mut buf = Vec::with_capacity(64 + payload_size);
        let mut enc = RecordEncoder::begin(fmt, self.attrs(), embed, &mut buf)?;
        for (field, v) in fmt.fields().iter().zip(self.values()) {
            let v = v
                .as_ref()
                .ok_or_else(|| FfsError::UnsetField(field.name.clone()))?;
            enc.value(v)?;
        }
        enc.finish()?;
        Ok(buf)
    }
}

/// One record being encoded field by field, in declaration order,
/// straight onto the end of a caller's buffer — the one encoder of the
/// record wire layout ([`Record`]'s `encode_*` drive it with their stored
/// values). A caller that already holds its data elsewhere skips the
/// `Record` and its owned [`Value`]s: scalars go in by value, and a
/// trailing byte array can be declared without being written
/// ([`finish_out_of_line`](RecordEncoder::finish_out_of_line)), so its
/// bytes are never copied into the encoder's buffer at all.
///
/// Every field is checked against the format as it is written: its
/// type, and an array's length against its fixed and variable
/// dimensions. Dropping the encoder before
/// `finish` — which is what `?` on any of its
/// errors does — cuts the buffer back to the length it had at the
/// start, so a failure never leaves half a record.
pub struct RecordEncoder<'a> {
    w: Writer<'a>,
    fmt: &'a FormatDesc,
    /// Length of the buffer when the record began.
    start: usize,
    /// Index of the next field to write.
    next: usize,
    /// `(field index, value)` of the integer scalars written so far,
    /// which later arrays' variable dimensions resolve against.
    sizes: Vec<(usize, u64)>,
    finished: bool,
}

impl<'a> RecordEncoder<'a> {
    /// Begin a self-contained record (schema embedded) of `fmt` at the
    /// end of `out`.
    pub fn self_contained(
        fmt: &'a FormatDesc,
        attrs: &AttrList,
        out: &'a mut Vec<u8>,
    ) -> Result<Self> {
        Self::begin(fmt, attrs, true, out)
    }

    pub(crate) fn begin(
        fmt: &'a FormatDesc,
        attrs: &AttrList,
        embed: bool,
        out: &'a mut Vec<u8>,
    ) -> Result<Self> {
        let mut enc = RecordEncoder {
            start: out.len(),
            w: Writer::new(out),
            fmt,
            next: 0,
            sizes: Vec::new(),
            finished: false,
        };
        let w = &mut enc.w;
        w.bytes(&MAGIC);
        w.u8(WIRE_VERSION);
        w.u8(if embed { FLAG_EMBEDDED_SCHEMA } else { 0 });
        w.u64(fmt.fingerprint());
        if embed {
            encode_schema(w, fmt);
        }
        attrs.encode_into(w)?;
        Ok(enc)
    }

    /// Step past the next field, which must hold a `base` scalar (`len`
    /// is `None`) or a `base` array of `len` elements.
    fn field(&mut self, base: BaseType, len: Option<u64>) -> Result<()> {
        let fmt = self.fmt;
        let field = fmt.fields().get(self.next).ok_or_else(|| {
            FfsError::NoSuchField(format!("field #{} of `{}`", self.next, fmt.name()))
        })?;
        match (&field.ty, len) {
            (FieldType::Scalar(b), None) if *b == base => {}
            (FieldType::Array { elem, dims }, Some(got)) if *elem == base => {
                let mut expected = 1u64;
                for d in dims {
                    let extent = match d {
                        DimSpec::Fixed(n) => *n,
                        DimSpec::Var(name) => {
                            let j = fmt.field_index(name).expect("validated at build");
                            self.sizes
                                .iter()
                                .find(|(i, _)| *i == j)
                                .expect("size fields precede their arrays")
                                .1
                        }
                    };
                    expected = expected.saturating_mul(extent);
                }
                if expected != got {
                    return Err(FfsError::LengthMismatch {
                        field: field.name.clone(),
                        expected,
                        got,
                    });
                }
            }
            _ => {
                return Err(FfsError::TypeMismatch {
                    field: field.name.clone(),
                    expected: field.ty.type_name(),
                    got: match len {
                        Some(_) => format!("{}[]", base.name()),
                        None => base.name().to_string(),
                    },
                })
            }
        }
        self.next += 1;
        Ok(())
    }

    /// Write the next field from an owned value.
    pub(crate) fn value(&mut self, v: &Value) -> Result<()> {
        let (base, is_array) = v.shape();
        self.field(base, if is_array { v.len() } else { None })?;
        if let (false, Some(n)) = (is_array, v.as_u64()) {
            self.sizes.push((self.next - 1, n));
        }
        encode_value_payload(&mut self.w, v);
        Ok(())
    }

    /// Write the next field, a `u64` scalar.
    pub fn u64(&mut self, v: u64) -> Result<()> {
        self.field(BaseType::U64, None)?;
        self.sizes.push((self.next - 1, v));
        self.w.u64(v);
        Ok(())
    }

    /// Write the next field, a string.
    pub fn str(&mut self, s: &str) -> Result<()> {
        self.field(BaseType::Str, None)?;
        self.w.str32(s);
        Ok(())
    }

    /// End the record with its last field, a `u8` array of `len` bytes
    /// that is declared here but not written: the record is whole once
    /// the caller follows the buffer with exactly those `len` bytes,
    /// wherever they lie. Only the format's last field can be left out
    /// of line — any field after it is [`FfsError::UnsetField`].
    pub fn finish_out_of_line(mut self, len: usize) -> Result<()> {
        self.field(BaseType::U8, Some(len as u64))?;
        self.w.u64(len as u64);
        self.finish()
    }

    /// End the record; every field must have been written.
    pub(crate) fn finish(mut self) -> Result<()> {
        if let Some(unset) = self.fmt.fields().get(self.next) {
            return Err(FfsError::UnsetField(unset.name.clone()));
        }
        self.finished = true;
        Ok(())
    }
}

impl Drop for RecordEncoder<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.w.buf().truncate(self.start);
        }
    }
}

pub(crate) fn encode_schema(w: &mut Writer, fmt: &FormatDesc) {
    w.str16(fmt.name());
    debug_assert!(fmt.fields().len() <= u16::MAX as usize);
    w.u16(fmt.fields().len() as u16);
    for f in fmt.fields() {
        w.str16(&f.name);
        match &f.ty {
            FieldType::Scalar(b) => {
                w.u8(0);
                w.u8(b.tag());
            }
            FieldType::Array { elem, dims } => {
                w.u8(1);
                w.u8(elem.tag());
                debug_assert!(dims.len() <= u8::MAX as usize);
                w.u8(dims.len() as u8);
                for d in dims {
                    match d {
                        DimSpec::Fixed(n) => {
                            w.u8(0);
                            w.u64(*n);
                        }
                        DimSpec::Var(v) => {
                            w.u8(1);
                            w.str16(v);
                        }
                    }
                }
            }
        }
    }
}

/// Bulk-append a primitive-element slice as little-endian payload bytes.
///
/// On little-endian targets the in-memory buffer already *is* the wire
/// encoding, so the whole array goes in with one `extend_from_slice`
/// (the memcpy the element-wise loop below compiles to only after
/// perfect vectorization). Other targets take the element-wise path.
macro_rules! bulk_le {
    ($w:expr, $a:expr, |$x:ident| $enc:expr) => {{
        $w.u64($a.len() as u64);
        #[cfg(target_endian = "little")]
        {
            // Safety: the element type is primitive numeric — no padding,
            // no invalid byte patterns; the view spans exactly the slice.
            let view = unsafe {
                std::slice::from_raw_parts($a.as_ptr() as *const u8, std::mem::size_of_val(&$a[..]))
            };
            $w.bytes(view);
        }
        #[cfg(not(target_endian = "little"))]
        for &$x in $a.iter() {
            $enc;
        }
    }};
}

/// Write one value's payload bytes (no type header — the schema carries it).
pub(crate) fn encode_value_payload(w: &mut Writer, v: &Value) {
    match v {
        Value::I8(x) => w.u8(*x as u8),
        Value::U8(x) => w.u8(*x),
        Value::I16(x) => w.u16(*x as u16),
        Value::U16(x) => w.u16(*x),
        Value::I32(x) => w.u32(*x as u32),
        Value::U32(x) => w.u32(*x),
        Value::I64(x) => w.u64(*x as u64),
        Value::U64(x) => w.u64(*x),
        Value::F32(x) => w.f32(*x),
        Value::F64(x) => w.f64(*x),
        Value::Str(s) => w.str32(s),
        Value::ArrI8(a) => {
            w.u64(a.len() as u64);
            for &x in a {
                w.u8(x as u8);
            }
        }
        Value::ArrU8(a) => {
            w.u64(a.len() as u64);
            w.bytes(a);
        }
        Value::ArrI16(a) => bulk_le!(w, a, |x| w.u16(x as u16)),
        Value::ArrU16(a) => bulk_le!(w, a, |x| w.u16(x)),
        Value::ArrI32(a) => bulk_le!(w, a, |x| w.u32(x as u32)),
        Value::ArrU32(a) => bulk_le!(w, a, |x| w.u32(x)),
        Value::ArrI64(a) => bulk_le!(w, a, |x| w.u64(x as u64)),
        Value::ArrU64(a) => bulk_le!(w, a, |x| w.u64(x)),
        Value::ArrF32(a) => bulk_le!(w, a, |x| w.f32(x)),
        Value::ArrF64(a) => bulk_le!(w, a, |x| w.f64(x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BaseType, FieldDesc};

    fn fmt() -> std::sync::Arc<FormatDesc> {
        FormatDesc::new("f")
            .field(FieldDesc::scalar("n", BaseType::U32))
            .field(FieldDesc::vec("x", BaseType::F64, "n"))
            .build()
            .unwrap()
    }

    #[test]
    fn unset_field_rejected() {
        let f = fmt();
        let mut r = Record::new(&f);
        r.set("n", Value::U32(1)).unwrap();
        assert!(matches!(
            r.encode_self_contained(),
            Err(FfsError::UnsetField(_))
        ));
    }

    #[test]
    fn var_dim_mismatch_rejected_at_encode() {
        let f = fmt();
        let mut r = Record::new(&f);
        r.set("n", Value::U32(5)).unwrap();
        r.set("x", Value::ArrF64(vec![1.0, 2.0])).unwrap();
        assert!(matches!(
            r.encode_self_contained(),
            Err(FfsError::LengthMismatch {
                expected: 5,
                got: 2,
                ..
            })
        ));
    }

    #[test]
    fn by_ref_is_smaller_than_self_contained() {
        let f = fmt();
        let mut r = Record::new(&f);
        r.set("n", Value::U32(2)).unwrap();
        r.set("x", Value::ArrF64(vec![1.0, 2.0])).unwrap();
        let full = r.encode_self_contained().unwrap();
        let by_ref = r.encode_by_ref().unwrap();
        assert!(by_ref.len() < full.len());
        assert_eq!(&full[..4], &MAGIC);
        assert_eq!(&by_ref[..4], &MAGIC);
    }

    fn blob_fmt() -> std::sync::Arc<FormatDesc> {
        FormatDesc::new("blob")
            .field(FieldDesc::scalar("tag", BaseType::Str))
            .field(FieldDesc::scalar("len", BaseType::U64))
            .field(FieldDesc::vec("raw", BaseType::U8, "len"))
            .build()
            .unwrap()
    }

    #[test]
    fn streamed_fields_equal_the_record_encoding() {
        let f = blob_fmt();
        let mut r = Record::new(&f);
        r.set("tag", Value::Str("t".into())).unwrap();
        r.set("len", Value::U64(3)).unwrap();
        r.set("raw", Value::ArrU8(vec![7, 8, 9])).unwrap();
        let mut out = b"kept".to_vec();
        let mut enc = RecordEncoder::self_contained(&f, r.attrs(), &mut out).unwrap();
        enc.str("t").unwrap();
        enc.u64(3).unwrap();
        enc.finish_out_of_line(3).unwrap();
        // The caller supplies the declared bytes after the record.
        out.extend_from_slice(&[7, 8, 9]);
        assert_eq!(&out[..4], b"kept");
        assert_eq!(&out[4..], &r.encode_self_contained().unwrap()[..]);
    }

    #[test]
    fn a_failed_or_abandoned_record_leaves_the_buffer_as_it_was() {
        let f = blob_fmt();
        let attrs = AttrList::new();
        let mut out = b"kept".to_vec();
        // Out of order, wrong type, wrong declared length, too few
        // fields: each is refused and rolled back.
        type Steps = fn(RecordEncoder) -> Result<()>;
        type Check = fn(&FfsError) -> bool;
        let bad: [(Steps, Check); 5] = [
            (
                |mut e| e.u64(1),
                |e| matches!(e, FfsError::TypeMismatch { field, .. } if field == "tag"),
            ),
            (
                |mut e| e.str("t").and_then(|_| e.u64(2)).and_then(|_| e.u64(3)),
                |e| matches!(e, FfsError::TypeMismatch { field, .. } if field == "raw"),
            ),
            (
                |mut e| {
                    e.str("t")?;
                    e.u64(2)?;
                    e.finish_out_of_line(3)
                },
                |e| {
                    matches!(
                        e,
                        FfsError::LengthMismatch {
                            expected: 2,
                            got: 3,
                            ..
                        }
                    )
                },
            ),
            (
                |mut e| {
                    e.str("t")?;
                    e.finish_out_of_line(0)
                },
                |e| matches!(e, FfsError::TypeMismatch { field, .. } if field == "len"),
            ),
            (
                |mut e| {
                    e.str("t")?;
                    e.finish()
                },
                |e| matches!(e, FfsError::UnsetField(field) if field == "len"),
            ),
        ];
        for (steps, expected) in bad {
            let enc = RecordEncoder::self_contained(&f, &attrs, &mut out).unwrap();
            let err = steps(enc).unwrap_err();
            assert!(expected(&err), "{err:?}");
            assert_eq!(out, b"kept");
        }
        // Past the last field there is nothing to write.
        let scalars = FormatDesc::new("s")
            .field(FieldDesc::scalar("n", BaseType::U64))
            .build()
            .unwrap();
        let mut enc = RecordEncoder::self_contained(&scalars, &attrs, &mut out).unwrap();
        enc.u64(1).unwrap();
        assert!(matches!(enc.u64(2), Err(FfsError::NoSuchField(_))));
        drop(enc);
        assert_eq!(out, b"kept");
    }

    #[test]
    fn only_the_last_field_is_declared_out_of_line() {
        // A byte array followed by another field: declaring the array
        // out of line leaves that field unset, and the record is refused.
        let f = FormatDesc::new("mid")
            .field(FieldDesc::scalar("len", BaseType::U64))
            .field(FieldDesc::vec("raw", BaseType::U8, "len"))
            .field(FieldDesc::scalar("tail", BaseType::U64))
            .build()
            .unwrap();
        let attrs = AttrList::new();
        let mut out = b"kept".to_vec();
        let mut enc = RecordEncoder::self_contained(&f, &attrs, &mut out).unwrap();
        enc.u64(2).unwrap();
        assert_eq!(
            enc.finish_out_of_line(2),
            Err(FfsError::UnsetField("tail".into()))
        );
        assert_eq!(out, b"kept");

        // Declared last, with a length its size field contradicts.
        let f = blob_fmt();
        let mut enc = RecordEncoder::self_contained(&f, &attrs, &mut out).unwrap();
        enc.str("t").unwrap();
        enc.u64(4).unwrap();
        assert!(matches!(
            enc.finish_out_of_line(5),
            Err(FfsError::LengthMismatch {
                expected: 4,
                got: 5,
                ..
            })
        ));
        assert_eq!(out, b"kept");
    }
}
