//! Element types of BP variables.

/// Element types of the BP-like format: the ones the pipeline writes
/// (particle rows and fields in `f64`, counts, labels and offsets in
/// `u64`). ADIOS has more; tags 0 and 2–4 named `f32`, `i32`, `i64` and
/// `u32`, which a reader now refuses as corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    F64,
    U64,
}

impl Dtype {
    /// Element size in bytes: both types are eight bytes wide.
    pub(crate) fn size(self) -> usize {
        8
    }

    pub fn name(self) -> &'static str {
        match self {
            Dtype::F64 => "f64",
            Dtype::U64 => "u64",
        }
    }

    pub(crate) fn tag(self) -> u8 {
        match self {
            Dtype::F64 => 1,
            Dtype::U64 => 5,
        }
    }

    pub(crate) fn from_tag(t: u8) -> Option<Self> {
        match t {
            1 => Some(Dtype::F64),
            5 => Some(Dtype::U64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip_and_retired_tags_are_refused() {
        for d in [Dtype::F64, Dtype::U64] {
            assert_eq!(Dtype::from_tag(d.tag()), Some(d));
        }
        for t in [0, 2, 3, 4, 6, 99] {
            assert_eq!(Dtype::from_tag(t), None);
        }
    }
}
