//! Record encoding: the schema embedded in every record.
//!
//! Wire layout (all little-endian):
//!
//! ```text
//! record      := magic(4) version(1) flags(1) fingerprint(8)
//!                schema payload                -- flags is always 1 (schema embedded)
//! schema      := name:str16 nfields:u16 field*
//! field       := name:str16 kind:u8 base:u8 [ndims:u8 dim]   -- kind 0 scalar, 1 array
//! dim         := 1 name:str16                  -- ndims is always 1
//! payload     := value*                        -- fields in declaration order
//! value       := u64 | f64 | len:u32 utf8      -- scalars
//!              | count:u64 elems               -- u8 and u64 arrays
//! ```
//!
//! Version 2 is version 1 without the record-level attribute list that
//! followed the schema (always empty: attributes ride fetch requests,
//! as [`AttrList`](crate::AttrList)s of their own).

use crate::error::{FfsError, Result};
use crate::types::{BaseType, FieldType, FormatDesc, Record, Value};
use crate::wire::Writer;
use crate::MAGIC;

pub(crate) const WIRE_VERSION: u8 = 2;
/// The flags byte of every record: bit 0, schema embedded. A decoder
/// refuses any other value.
pub(crate) const FLAGS: u8 = 0b0000_0001;

impl Record {
    /// Encode with the schema embedded; any receiver can decode the result
    /// without prior knowledge. This is the form PreDatA uses for packed
    /// partial data chunks.
    pub fn encode_self_contained(&self) -> Result<Vec<u8>> {
        let fmt = self.format();
        let payload_size: usize = self
            .values()
            .iter()
            .map(|v| v.as_ref().map_or(0, Value::wire_size))
            .sum();
        let mut buf = Vec::with_capacity(64 + payload_size);
        let mut enc = RecordEncoder::self_contained(fmt, &mut buf);
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
/// record wire layout ([`Record::encode_self_contained`] drives it with
/// the record's stored values). A caller that already holds its data
/// elsewhere skips the `Record` and its owned [`Value`]s: scalars go in
/// by value, and a trailing byte array can be declared without being
/// written ([`finish_out_of_line`](RecordEncoder::finish_out_of_line)),
/// so its bytes are never copied into the encoder's buffer at all.
///
/// Every field is checked against the format as it is written: its
/// type, and an array's length against its size field. Dropping the encoder before
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
    /// `(field index, value)` of the `u64` scalars written so far,
    /// which later arrays' lengths resolve against.
    sizes: Vec<(usize, u64)>,
    finished: bool,
}

impl<'a> RecordEncoder<'a> {
    /// Begin a self-contained record (schema embedded) of `fmt` at the
    /// end of `out`.
    pub fn self_contained(fmt: &'a FormatDesc, out: &'a mut Vec<u8>) -> Self {
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
        w.u8(FLAGS);
        w.u64(fmt.fingerprint());
        encode_schema(w, fmt);
        enc
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
            (FieldType::Array { elem, count }, Some(got)) if *elem == base => {
                let j = fmt.field_index(count).expect("validated at build");
                let expected = self
                    .sizes
                    .iter()
                    .find(|(i, _)| *i == j)
                    .expect("size fields precede their arrays")
                    .1;
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

/// Names and the field count fit their `u16` prefixes:
/// `FormatDesc::from_parts` refuses any that do not.
pub(crate) fn encode_schema(w: &mut Writer, fmt: &FormatDesc) {
    w.str16(fmt.name());
    w.u16(fmt.fields().len() as u16);
    for f in fmt.fields() {
        w.str16(&f.name);
        match &f.ty {
            FieldType::Scalar(b) => {
                w.u8(0);
                w.u8(b.tag());
            }
            FieldType::Array { elem, count } => {
                w.u8(1);
                w.u8(elem.tag());
                w.u8(1); // one dimension,
                w.u8(1); // sized by a field:
                w.str16(count);
            }
        }
    }
}

/// Write one value's payload bytes (no type header — the schema carries it).
pub(crate) fn encode_value_payload(w: &mut Writer, v: &Value) {
    match v {
        Value::U64(x) => w.u64(*x),
        Value::F64(x) => w.f64(*x),
        Value::Str(s) => w.str32(s),
        Value::ArrU8(a) => {
            w.u64(a.len() as u64);
            w.bytes(a);
        }
        // Only attribute lists hold one (a histogram's counts), under
        // their 64 KiB budget.
        Value::ArrU64(a) => {
            w.u64(a.len() as u64);
            for &x in a {
                w.u64(x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BaseType, FieldDesc};

    fn fmt() -> std::sync::Arc<FormatDesc> {
        FormatDesc::new("f")
            .field(FieldDesc::scalar("n", BaseType::U64))
            .field(FieldDesc::vec("x", BaseType::U64, "n"))
            .build()
            .unwrap()
    }

    #[test]
    fn unset_field_rejected() {
        let f = fmt();
        let mut r = Record::new(&f);
        r.set("n", Value::U64(1)).unwrap();
        assert!(matches!(
            r.encode_self_contained(),
            Err(FfsError::UnsetField(_))
        ));
    }

    #[test]
    fn var_dim_mismatch_rejected_at_encode() {
        let f = fmt();
        let mut r = Record::new(&f);
        r.set("n", Value::U64(5)).unwrap();
        r.set("x", Value::ArrU64(vec![1, 2])).unwrap();
        assert!(matches!(
            r.encode_self_contained(),
            Err(FfsError::LengthMismatch {
                expected: 5,
                got: 2,
                ..
            })
        ));
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
        let mut enc = RecordEncoder::self_contained(&f, &mut out);
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
            let enc = RecordEncoder::self_contained(&f, &mut out);
            let err = steps(enc).unwrap_err();
            assert!(expected(&err), "{err:?}");
            assert_eq!(out, b"kept");
        }
        // Past the last field there is nothing to write.
        let scalars = FormatDesc::new("s")
            .field(FieldDesc::scalar("n", BaseType::U64))
            .build()
            .unwrap();
        let mut enc = RecordEncoder::self_contained(&scalars, &mut out);
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
        let mut out = b"kept".to_vec();
        let mut enc = RecordEncoder::self_contained(&f, &mut out);
        enc.u64(2).unwrap();
        assert_eq!(
            enc.finish_out_of_line(2),
            Err(FfsError::UnsetField("tail".into()))
        );
        assert_eq!(out, b"kept");

        // Declared last, with a length its size field contradicts.
        let f = blob_fmt();
        let mut enc = RecordEncoder::self_contained(&f, &mut out);
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
