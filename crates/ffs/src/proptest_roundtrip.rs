//! Property-based tests: arbitrary formats + matching records always
//! round-trip bit-exactly through the self-contained encoding, and arbitrary
//! byte mutations never panic the decoder.

use std::sync::Arc;

use proptest::prelude::*;

use crate::decode::decode;
use crate::types::{BaseType, FieldDesc, FormatDesc, Record, Value};
use crate::{decode_header, decode_view};

/// A generated format together with a value assignment that satisfies it.
#[derive(Debug, Clone)]
struct FmtAndRecord {
    format: Arc<FormatDesc>,
    values: Vec<(String, Value)>,
}

/// Field `kind` of the value shapes the wire carries: scalars `u64`,
/// `f64` and `str`, then arrays of `u8` and `u64` of `len` elements.
fn value(kind: u8, len: usize, seed: i64) -> (FieldDesc, Value) {
    let name = String::new();
    let elems = (0..len as i64).map(|i| seed.wrapping_add(i));
    match kind {
        0 => (
            FieldDesc::scalar(name, BaseType::U64),
            Value::U64(seed as u64),
        ),
        1 => (
            FieldDesc::scalar(name, BaseType::F64),
            Value::F64(seed as f64 * 0.25),
        ),
        2 => (
            FieldDesc::scalar(name, BaseType::Str),
            Value::Str(format!("s{seed}")),
        ),
        3 => (
            FieldDesc::vec(name, BaseType::U8, "count"),
            Value::ArrU8(elems.map(|x| x as u8).collect()),
        ),
        _ => (
            FieldDesc::vec(name, BaseType::U64, "count"),
            Value::ArrU64(elems.map(|x| x as u64).collect()),
        ),
    }
}

prop_compose! {
    /// Build: a leading u64 size field, then 1..6 fields, each a scalar
    /// or an array sized by the leading field.
    fn arb_fmt_and_record()(
        count in 0u64..32,
        specs in prop::collection::vec((0u8..5, any::<i64>()), 1..6),
    ) -> FmtAndRecord {
        let mut b = FormatDesc::new("prop").field(FieldDesc::scalar("count", BaseType::U64));
        let mut values = vec![("count".to_string(), Value::U64(count))];
        for (i, (kind, seed)) in specs.into_iter().enumerate() {
            let (mut field, v) = value(kind, count as usize, seed);
            field.name = format!("f{i}");
            values.push((field.name.clone(), v));
            b = b.field(field);
        }
        FmtAndRecord { format: b.build().unwrap(), values }
    }
}

fn build_record(far: &FmtAndRecord) -> Record {
    let mut rec = Record::new(&far.format);
    for (name, v) in &far.values {
        rec.set(name, v.clone()).unwrap();
    }
    rec
}

proptest! {
    #[test]
    fn self_contained_roundtrip(far in arb_fmt_and_record()) {
        let rec = build_record(&far);
        let buf = rec.encode_self_contained().unwrap();
        let back = decode(&buf, None).unwrap();
        // The owned decode is the view, materialized field by field.
        let view = decode_view(&buf, None).unwrap();
        for (name, v) in &far.values {
            prop_assert_eq!(back.get(name), Some(v));
            prop_assert_eq!(&view.get(name).unwrap().to_value().unwrap(), v);
        }
        prop_assert_eq!(back.format().fingerprint(), far.format.fingerprint());
    }

    #[test]
    fn encode_is_deterministic(far in arb_fmt_and_record()) {
        let a = build_record(&far).encode_self_contained().unwrap();
        let b = build_record(&far).encode_self_contained().unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn decoder_never_panics_on_truncation(far in arb_fmt_and_record(), frac in 0.0f64..1.0) {
        let buf = build_record(&far).encode_self_contained().unwrap();
        let cut = ((buf.len() as f64) * frac) as usize;
        // Any strict prefix must produce Err, never a panic or success.
        if cut < buf.len() {
            prop_assert!(decode(&buf[..cut], None).is_err());
        }
    }

    #[test]
    fn decoder_never_panics_on_corruption(
        far in arb_fmt_and_record(),
        idx_frac in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        let mut buf = build_record(&far).encode_self_contained().unwrap();
        let idx = ((buf.len() as f64 - 1.0) * idx_frac) as usize;
        buf[idx] = byte;
        // Outcome may be Ok (benign flip) or Err; it must not panic.
        let _ = decode(&buf, None);
        let _ = decode_header(&buf);
    }
}
