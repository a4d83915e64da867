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
//!   [`FieldDesc`]s, each a scalar or an array with fixed or
//!   variable (another integer field's value) dimensions.
//! * A [`FormatRegistry`] interns formats and assigns stable 64-bit
//!   fingerprints, mirroring FFS' format-server caching: a sender may
//!   encode *by reference* (fingerprint only) when the receiver is known
//!   to have seen the schema, or *self-contained* with the schema embedded.
//! * [`Record`] is a set of field [`Value`]s plus an [`AttrList`] of small
//!   out-of-band attributes (PreDatA attaches partial results from the
//!   compute-node pass to data-fetch requests through these).
//!
//! # Example
//!
//! ```
//! use ffs::{FormatDesc, FieldDesc, BaseType, DimSpec, Record, Value};
//!
//! let fmt = FormatDesc::new("particles")
//!     .field(FieldDesc::scalar("nparticles", BaseType::U64))
//!     .field(FieldDesc::array("px", BaseType::F64, vec![DimSpec::Var("nparticles".into())]))
//!     .build()
//!     .unwrap();
//!
//! let mut rec = Record::new(&fmt);
//! rec.set("nparticles", Value::U64(3)).unwrap();
//! rec.set("px", Value::ArrF64(vec![0.5, 1.5, 2.5])).unwrap();
//!
//! let buf = rec.encode_self_contained().unwrap();
//! let back = ffs::decode(&buf, None).unwrap();
//! assert_eq!(back.get("px").unwrap(), &Value::ArrF64(vec![0.5, 1.5, 2.5]));
//! ```

#![warn(unreachable_pub)]

mod attr;
mod decode;
mod encode;
mod error;
mod registry;
mod types;
mod wire;

pub use attr::AttrList;
pub use decode::{decode, decode_header, decode_view, DecodedHeader, RecordView, ViewValue};
pub use encode::RecordEncoder;
pub use error::{FfsError, Result};
pub use registry::FormatRegistry;
pub use types::{BaseType, DimSpec, FieldDesc, FormatBuilder, FormatDesc, Record, Value};

/// Wire-format magic bytes at the start of every encoded record.
pub(crate) const MAGIC: [u8; 4] = *b"FFS1";
