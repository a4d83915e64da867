//! Offline stand-in for the `bytes` crate: just [`Bytes`], the
//! cheaply-cloneable shared byte buffer the output path threads from
//! operator serializers through shuffle to the BP writer.
//!
//! A `Bytes` is a reference-counted backing allocation plus a
//! sub-range. Cloning or slicing never copies payload — only the
//! reference count moves — which is the whole point: once an operator
//! has serialized a result, those bytes travel through `minimpi`
//! mailboxes and into `bpio` without being reassembled. Converting an
//! owned `Vec<u8>` in is also copy-free (the vector itself moves
//! behind the `Arc`; an `Arc<[u8]>` conversion would relocate the
//! contents next to the refcount header), and the way back out —
//! [`Bytes::is_unique`] then `Vec::from` — is what lets a producer
//! recycle a buffer once every consumer has dropped it. The API is the (tiny) subset
//! of the real crate the workspace uses; anything fancier (`BytesMut`,
//! vtables, rope splitting) is out of scope.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// The shared allocation behind a [`Bytes`]. Two shapes because the two
/// producers differ: serializers hand over `Vec<u8>`s (moved as-is),
/// the transport hands over pull buffers already shaped `Arc<[u8]>`.
#[derive(Clone)]
enum Backing {
    Vec(Arc<Vec<u8>>),
    Shared(Arc<[u8]>),
}

impl Backing {
    fn as_slice(&self) -> &[u8] {
        match self {
            Backing::Vec(v) => v,
            Backing::Shared(s) => s,
        }
    }
}

/// A cheaply-cloneable, immutable slice of shared bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    /// Backing allocation; `None` is the canonical empty buffer so
    /// `Bytes::new()` allocates nothing.
    data: Option<Backing>,
    start: usize,
    len: usize,
}

impl Bytes {
    /// The empty buffer. Allocation-free.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copy `data` into a fresh shared buffer. The one intentionally
    /// copying constructor: use `From<Vec<u8>>` when the caller can
    /// give up ownership.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view sharing the same backing allocation (no copy).
    ///
    /// # Panics
    /// Panics when the range falls outside `0..len`, like slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of bounds for Bytes of length {}",
            self.len
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + start,
            len: end - start,
        }
    }

    /// Whether this is the only handle on its backing allocation *and*
    /// `Vec<u8>::from(self)` would take that allocation over instead of
    /// copying it — the test a producer makes before recycling a buffer
    /// it once shared. Like the real crate's, it is `false` for storage
    /// a `Vec` cannot adopt (here an `Arc<[u8]>`, whose bytes sit beside
    /// the reference count) and for the empty buffer.
    pub fn is_unique(&self) -> bool {
        match &self.data {
            Some(Backing::Vec(v)) => Arc::strong_count(v) == 1,
            Some(Backing::Shared(_)) | None => false,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d.as_slice()[self.start..self.start + self.len],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Moves the vector behind the refcount — contents are not copied.
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            data: Some(Backing::Vec(Arc::new(v))),
            start: 0,
            len,
        }
    }
}

impl From<Bytes> for Vec<u8> {
    /// Takes the backing vector over when `b` is its only handle (no
    /// copy: the allocation, capacity included, comes back); otherwise
    /// copies the viewed range.
    fn from(b: Bytes) -> Vec<u8> {
        let Bytes { data, start, len } = b;
        match data {
            Some(Backing::Vec(v)) => match Arc::try_unwrap(v) {
                Ok(mut v) => {
                    v.truncate(start + len);
                    v.drain(..start);
                    v
                }
                Err(shared) => shared[start..start + len].to_vec(),
            },
            Some(Backing::Shared(s)) => s[start..start + len].to_vec(),
            None => Vec::new(),
        }
    }
}

impl From<Arc<[u8]>> for Bytes {
    fn from(data: Arc<[u8]>) -> Bytes {
        let len = data.len();
        Bytes {
            data: Some(Backing::Shared(data)),
            start: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Bytes {
        Bytes::from(Arc::<[u8]>::from(v))
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_allocation_free() {
        let b = Bytes::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(&b[..], &[] as &[u8]);
        assert!(b.data.is_none());
    }

    #[test]
    fn from_vec_moves_the_allocation() {
        let v = vec![1u8, 2, 3, 4];
        let p = v.as_ptr();
        let b = Bytes::from(v);
        // The vector's heap buffer is reused, not copied.
        assert_eq!(b.as_ptr(), p);
    }

    #[test]
    fn clone_shares_the_backing() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.as_ptr(), c.as_ptr());
    }

    #[test]
    fn slice_shares_backing_and_respects_range() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.as_ptr(), unsafe { b.as_ptr().add(2) });
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(b.slice(..), b);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1u8, 2]).slice(1..4);
    }

    #[test]
    fn deref_gives_slice_methods() {
        let b = Bytes::from(vec![1u8, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
        let sums: Vec<u64> = b
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(sums, vec![1, 2]);
        assert_eq!(u64::from_le_bytes(b[..8].try_into().unwrap()), 1);
    }

    #[test]
    fn from_arc_is_zero_copy() {
        let a: Arc<[u8]> = Arc::from(vec![9u8, 8, 7]);
        let p = a.as_ptr();
        let b = Bytes::from(a);
        assert_eq!(&b[..], &[9, 8, 7]);
        assert_eq!(b.as_ptr(), p);
    }

    #[test]
    fn unique_vec_backing_comes_back_without_a_copy() {
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(&[1u8, 2, 3, 4]);
        let p = v.as_ptr();
        let b = Bytes::from(v);
        let held = b.clone();
        assert!(!b.is_unique(), "a second handle is alive");
        assert_eq!(Vec::from(held.clone()), vec![1, 2, 3, 4], "shared: copied");
        drop(held);
        assert!(b.is_unique());
        let back = Vec::from(b);
        assert_eq!((back.as_ptr(), back.capacity()), (p, 64));
        assert_eq!(back, vec![1, 2, 3, 4]);
    }

    #[test]
    fn unique_sub_view_and_other_backings_convert_by_contents() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]).slice(2..5);
        assert!(b.is_unique());
        assert_eq!(Vec::from(b), vec![2, 3, 4]);
        let shared = Bytes::from(Arc::<[u8]>::from(vec![9u8, 8]));
        assert!(!shared.is_unique(), "a Vec cannot adopt an Arc<[u8]>");
        assert_eq!(Vec::from(shared), vec![9, 8]);
        assert!(!Bytes::new().is_unique());
        assert!(Vec::from(Bytes::new()).is_empty());
    }

    #[test]
    fn eq_and_hash_follow_contents() {
        use std::collections::HashSet;
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::from(vec![0u8, 1, 2, 3]).slice(1..);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
