//! Payload sizing traits.
//!
//! MPI knows the byte size of every transfer from its datatype arguments;
//! we recover the same information through [`MpiData::byte_len`] so the
//! traffic counters (and the `simhec` cost models fed from them) see
//! realistic volumes instead of `size_of::<Vec<_>>() == 24`.

/// Marker for plain-old-data element types whose size is
/// `size_of::<Self>()`. Implement it for your own `#[derive(Clone, Copy)]`
/// structs to ship them through `minimpi` containers.
pub(crate) trait MpiScalar: Copy + Send + 'static {}

macro_rules! impl_scalar {
    ($($t:ty),*) => { $(impl MpiScalar for $t {})* };
}
impl_scalar!(
    i8,
    u8,
    i16,
    u16,
    i32,
    u32,
    i64,
    u64,
    i128,
    u128,
    isize,
    usize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl<T: MpiScalar, const N: usize> MpiScalar for [T; N] {}
impl<A: MpiScalar, B: MpiScalar> MpiScalar for (A, B) {}
impl<A: MpiScalar, B: MpiScalar, C: MpiScalar> MpiScalar for (A, B, C) {}

/// Anything that can be sent through a communicator, with a byte-size
/// estimate used for traffic accounting.
pub trait MpiData: Send + 'static {
    fn byte_len(&self) -> usize;
}

impl<T: MpiScalar> MpiData for T {
    fn byte_len(&self) -> usize {
        std::mem::size_of::<T>()
    }
}

impl<T: MpiScalar> MpiData for Vec<T> {
    fn byte_len(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(3u8.byte_len(), 1);
        assert_eq!(3.0f64.byte_len(), 8);
        assert_eq!((1u32, 2.0f64).byte_len(), std::mem::size_of::<(u32, f64)>());
    }

    #[test]
    fn vec_sizes_count_elements() {
        assert_eq!(vec![0f64; 100].byte_len(), 800);
        assert_eq!(vec![(0u32, 0u32); 3].byte_len(), 24);
    }

    #[test]
    fn custom_pod_struct() {
        #[derive(Clone, Copy)]
        struct P {
            _x: f64,
            _id: u64,
        }
        impl MpiScalar for P {}
        assert_eq!(vec![P { _x: 0.0, _id: 0 }; 4].byte_len(), 64);
    }
}
