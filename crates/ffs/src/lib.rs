//! `ffs` — a self-describing binary data encoding facility.
//!
//! This crate is the reproduction-equivalent of FFS (Fast/Flexible binary
//! Format Serialization, Eisenhauer et al., "Native data representation"),
//! which the PreDatA middleware uses to pack each compute process' output
//! into a *packed partial data chunk*: a single contiguous buffer that
//! carries enough embedded metadata for a downstream staging node to decode
//! it without any out-of-band schema exchange.
//!
//! # Model
//!
//! * A [`FormatDesc`] names a record layout: an ordered list of
//!   [`FieldDesc`]s, each a scalar or a one-dimensional array sized by a
//!   `u64` field declared before it. Its 64-bit fingerprint identifies
//!   the layout.
//! * The types are the ones the pipeline writes: `u64`, `f64` and `str`
//!   scalars, and `u8` and `u64` arrays ([`Value`]). A format or a wire
//!   record naming any other shape is refused.
//! * [`Record`] is a set of field [`Value`]s. Small out-of-band results
//!   travel apart from records, in an [`AttrList`]: PreDatA attaches the
//!   compute-node pass's partial results to data-fetch requests through
//!   these.
//! * Every record is encoded *self-contained*: the schema travels in
//!   front of the payload, so a receiver decodes it with no format
//!   server. FFS can also send the fingerprint alone to a receiver that
//!   has cached the schema; at this pipeline's chunk sizes the schema
//!   parse that saves is negligible, so this crate keeps the one form.
//!
//! # Example
//!
//! ```
//! use ffs::{FormatDesc, FieldDesc, BaseType, Record, Value};
//!
//! let fmt = FormatDesc::new("particles")
//!     .field(FieldDesc::scalar("nparticles", BaseType::U64))
//!     .field(FieldDesc::vec("ids", BaseType::U64, "nparticles"))
//!     .build()
//!     .unwrap();
//!
//! let mut rec = Record::new(&fmt);
//! rec.set("nparticles", Value::U64(3)).unwrap();
//! rec.set("ids", Value::ArrU64(vec![5, 15, 25])).unwrap();
//!
//! let buf = rec.encode_self_contained().unwrap();
//! let view = ffs::decode_view(&buf, None).unwrap();
//! assert_eq!(view.get("nparticles").unwrap().as_u64(), Some(3));
//! assert_eq!(
//!     view.get("ids").unwrap().to_value().unwrap(),
//!     Value::ArrU64(vec![5, 15, 25])
//! );
//! ```

#![warn(unreachable_pub)]

mod attr;
mod decode;
mod encode;
mod error;
mod types;
mod wire;

#[cfg(test)]
mod proptest_roundtrip;

pub use attr::AttrList;
pub use decode::{decode_header, decode_view, DecodedHeader, RecordView, ViewValue};
pub use encode::RecordEncoder;
pub use error::{FfsError, Result};
pub use types::{BaseType, FieldDesc, FormatBuilder, FormatDesc, Record, Value};

/// Wire-format magic bytes at the start of every encoded record.
pub(crate) const MAGIC: [u8; 4] = *b"FFS1";
