//! Property-based tests: arbitrary formats + matching records always
//! round-trip bit-exactly through the self-contained encoding, and arbitrary
//! byte mutations never panic the decoder.

use std::sync::Arc;

use proptest::prelude::*;

use crate::types::{BaseType, DimSpec, FieldDesc, FormatDesc, Record, Value};
use crate::{decode, decode_header, decode_view};

const NUMERIC: [BaseType; 10] = [
    BaseType::I8,
    BaseType::U8,
    BaseType::I16,
    BaseType::U16,
    BaseType::I32,
    BaseType::U32,
    BaseType::I64,
    BaseType::U64,
    BaseType::F32,
    BaseType::F64,
];

fn arb_base() -> impl Strategy<Value = BaseType> {
    prop::sample::select(NUMERIC.to_vec())
}

/// A generated format together with a value assignment that satisfies it.
#[derive(Debug, Clone)]
struct FmtAndRecord {
    format: Arc<FormatDesc>,
    values: Vec<(String, Value)>,
}

fn scalar_value(b: BaseType, seed: i64) -> Value {
    match b {
        BaseType::I8 => Value::I8(seed as i8),
        BaseType::U8 => Value::U8(seed as u8),
        BaseType::I16 => Value::I16(seed as i16),
        BaseType::U16 => Value::U16(seed as u16),
        BaseType::I32 => Value::I32(seed as i32),
        BaseType::U32 => Value::U32(seed as u32),
        BaseType::I64 => Value::I64(seed),
        BaseType::U64 => Value::U64(seed as u64),
        BaseType::F32 => Value::F32(seed as f32 * 0.5),
        BaseType::F64 => Value::F64(seed as f64 * 0.25),
        BaseType::Str => Value::Str(format!("s{seed}")),
    }
}

fn array_value(b: BaseType, len: usize, seed: i64) -> Value {
    match b {
        BaseType::I8 => Value::ArrI8((0..len).map(|i| (seed + i as i64) as i8).collect()),
        BaseType::U8 => Value::ArrU8((0..len).map(|i| (seed + i as i64) as u8).collect()),
        BaseType::I16 => Value::ArrI16((0..len).map(|i| (seed + i as i64) as i16).collect()),
        BaseType::U16 => Value::ArrU16((0..len).map(|i| (seed + i as i64) as u16).collect()),
        BaseType::I32 => Value::ArrI32((0..len).map(|i| (seed + i as i64) as i32).collect()),
        BaseType::U32 => Value::ArrU32((0..len).map(|i| (seed + i as i64) as u32).collect()),
        BaseType::I64 => Value::ArrI64((0..len).map(|i| seed + i as i64).collect()),
        BaseType::U64 => Value::ArrU64((0..len).map(|i| (seed + i as i64) as u64).collect()),
        BaseType::F32 => Value::ArrF32((0..len).map(|i| (seed + i as i64) as f32).collect()),
        BaseType::F64 => Value::ArrF64((0..len).map(|i| (seed + i as i64) as f64).collect()),
        BaseType::Str => unreachable!("no string arrays"),
    }
}

prop_compose! {
    /// Build: a leading u64 size field, then 1..6 fields, each a scalar,
    /// fixed array, or var array sized by the leading field.
    fn arb_fmt_and_record()(
        n_var in 0u64..32,
        specs in prop::collection::vec((arb_base(), 0u8..3, 1u64..8, any::<i64>()), 1..6),
    ) -> FmtAndRecord {
        let mut b = FormatDesc::new("prop").field(FieldDesc::scalar("count", BaseType::U64));
        let mut values = vec![("count".to_string(), Value::U64(n_var))];
        for (i, (base, kind, fixed, seed)) in specs.into_iter().enumerate() {
            let name = format!("f{i}");
            match kind {
                0 => {
                    b = b.field(FieldDesc::scalar(&name, base));
                    values.push((name, scalar_value(base, seed)));
                }
                1 => {
                    b = b.field(FieldDesc::array(&name, base, vec![DimSpec::Fixed(fixed)]));
                    values.push((name, array_value(base, fixed as usize, seed)));
                }
                _ => {
                    b = b.field(FieldDesc::vec(&name, base, "count"));
                    values.push((name, array_value(base, n_var as usize, seed)));
                }
            }
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
        prop_assert_eq!(view.attrs(), back.attrs());
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
