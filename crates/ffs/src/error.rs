//! Error types for encoding and decoding.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FfsError>;

/// Errors produced while building formats or encoding/decoding records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FfsError {
    /// A format declared two fields with the same name.
    DuplicateField(String),
    /// An array dimension referenced a field that does not exist or is
    /// declared *after* the array (FFS requires size fields to precede
    /// the arrays they size, so a streaming decoder never back-tracks).
    BadVarDim { array: String, dim: String },
    /// An array's size field is not a `u64` scalar.
    NonIntegerDim { array: String, dim: String },
    /// A field of a shape no [`Value`](crate::Value) has: the format
    /// carries `u64`, `f64` and `str` scalars and `u8` and `u64` arrays.
    Unsupported { field: String, ty: String },
    /// A name or the field list is longer than its `u16` length prefix
    /// on the wire can count.
    TooLong { what: &'static str, len: usize },
    /// `Record::set` used a field name absent from the format.
    NoSuchField(String),
    /// The value's type does not match the field declaration.
    TypeMismatch {
        field: String,
        expected: String,
        got: String,
    },
    /// An array value's length disagrees with its (resolved) dimensions.
    LengthMismatch {
        field: String,
        expected: u64,
        got: u64,
    },
    /// Encoding was attempted while some field was still unset.
    UnsetField(String),
    /// The buffer does not start with the FFS magic bytes.
    BadMagic,
    /// The wire version byte is not supported.
    BadVersion(u8),
    /// The buffer ended before the structure it promised.
    Truncated(&'static str),
    /// A length or tag on the wire is out of the permitted range.
    Corrupt(&'static str),
    /// Attribute-related error (e.g. oversized attribute list).
    Attr(&'static str),
}

impl fmt::Display for FfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FfsError::DuplicateField(n) => write!(f, "duplicate field `{n}` in format"),
            FfsError::BadVarDim { array, dim } => {
                write!(
                    f,
                    "array `{array}` sized by `{dim}`, which is missing or declared later"
                )
            }
            FfsError::NonIntegerDim { array, dim } => {
                write!(f, "array `{array}` sized by `{dim}`, which is not a u64 scalar")
            }
            FfsError::Unsupported { field, ty } => write!(
                f,
                "field `{field}`: no {ty} on the wire (scalars are u64, f64, str; arrays u8[], u64[])"
            ),
            FfsError::TooLong { what, len } => {
                write!(f, "{what} too long for the wire: {len} > {}", u16::MAX)
            }
            FfsError::NoSuchField(n) => write!(f, "no field `{n}` in format"),
            FfsError::TypeMismatch {
                field,
                expected,
                got,
            } => {
                write!(f, "field `{field}`: expected {expected}, got {got}")
            }
            FfsError::LengthMismatch {
                field,
                expected,
                got,
            } => {
                write!(
                    f,
                    "array `{field}`: dimensions give {expected} elements, value has {got}"
                )
            }
            FfsError::UnsetField(n) => write!(f, "field `{n}` was never set"),
            FfsError::BadMagic => write!(f, "buffer does not begin with FFS magic"),
            FfsError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FfsError::Truncated(what) => write!(f, "buffer truncated while reading {what}"),
            FfsError::Corrupt(what) => write!(f, "corrupt wire data: {what}"),
            FfsError::Attr(what) => write!(f, "attribute error: {what}"),
        }
    }
}

impl std::error::Error for FfsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FfsError::TypeMismatch {
            field: "px".into(),
            expected: "u64[]".into(),
            got: "f64".into(),
        };
        let s = e.to_string();
        assert!(s.contains("px") && s.contains("u64[]") && s.contains("f64"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FfsError>();
    }
}
