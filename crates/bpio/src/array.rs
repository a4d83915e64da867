//! Typed data arrays and N-dimensional box arithmetic.
//!
//! All arrays are row-major (C order): the last dimension is contiguous.
//! These helpers are shared by the writer (chunk encode), reader (global
//! assembly), and the PreDatA re-organization operator (chunk merging).

use crate::dtype::Dtype;
use crate::error::{BpError, Result};

/// An owned, typed 1-D buffer holding the elements of an N-D array.
#[derive(Debug, Clone, PartialEq)]
pub enum DataArray {
    F64(Vec<f64>),
    U64(Vec<u64>),
}

impl DataArray {
    pub fn dtype(&self) -> Dtype {
        match self {
            DataArray::F64(_) => Dtype::F64,
            DataArray::U64(_) => Dtype::U64,
        }
    }

    #[allow(clippy::len_without_is_empty)] // callers size buffers; none asks for emptiness
    pub fn len(&self) -> usize {
        match self {
            DataArray::F64(v) => v.len(),
            DataArray::U64(v) => v.len(),
        }
    }

    pub fn byte_len(&self) -> usize {
        self.len() * self.dtype().size()
    }

    /// Zero-filled array of `n` elements.
    pub fn zeros(dtype: Dtype, n: usize) -> DataArray {
        match dtype {
            Dtype::F64 => DataArray::F64(vec![0.0; n]),
            Dtype::U64 => DataArray::U64(vec![0; n]),
        }
    }

    /// Little-endian payload bytes: the big-endian fallback of
    /// [`as_le_bytes`](Self::as_le_bytes), and its oracle in the tests.
    #[cfg(any(test, not(target_endian = "little")))]
    fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        match self {
            DataArray::F64(v) => v
                .iter()
                .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            DataArray::U64(v) => v
                .iter()
                .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        }
        out
    }

    /// Little-endian payload bytes, borrowed when possible.
    ///
    /// On little-endian targets (every platform this runs on in
    /// practice) the in-memory element buffer *is* the wire encoding,
    /// so this returns a borrowed byte view of it — the writer hands
    /// the view straight to a vectored write and the payload is never
    /// re-assembled. Other targets fall back to the byte-swapping copy
    /// of `to_le_bytes`.
    pub fn as_le_bytes(&self) -> std::borrow::Cow<'_, [u8]> {
        #[cfg(target_endian = "little")]
        {
            fn view<T>(v: &[T]) -> &[u8] {
                // Safety: T is f64 or u64:
                // no padding, no invalid byte patterns, and the slice
                // spans exactly len * size_of::<T>() initialized bytes.
                unsafe {
                    std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v))
                }
            }
            std::borrow::Cow::Borrowed(match self {
                DataArray::F64(v) => view(v),
                DataArray::U64(v) => view(v),
            })
        }
        #[cfg(not(target_endian = "little"))]
        {
            std::borrow::Cow::Owned(self.to_le_bytes())
        }
    }

    /// Decode from little-endian payload bytes.
    pub(crate) fn from_le_bytes(dtype: Dtype, bytes: &[u8]) -> Result<DataArray> {
        let mut data = DataArray::zeros(dtype, 0);
        data.assign_le_bytes(dtype, bytes)?;
        Ok(data)
    }

    /// Replace the elements with little-endian payload `bytes` read as
    /// `dtype` — the one conversion from a payload to a whole array.
    /// The buffer is reused when it already holds `dtype`, so a warm
    /// array of at least that many elements allocates nothing. On error
    /// the array is left as it was.
    pub(crate) fn assign_le_bytes(&mut self, dtype: Dtype, bytes: &[u8]) -> Result<()> {
        if !bytes.len().is_multiple_of(dtype.size()) {
            return Err(BpError::Corrupt("payload not a multiple of element size"));
        }
        fn refill<T, const N: usize>(v: &mut Vec<T>, bytes: &[u8], from: impl Fn([u8; N]) -> T) {
            v.clear();
            v.extend(
                bytes
                    .chunks_exact(N)
                    .map(|c| from(c.try_into().expect("chunks_exact yields N bytes"))),
            );
        }
        if self.dtype() != dtype {
            *self = DataArray::zeros(dtype, 0);
        }
        match self {
            DataArray::F64(v) => refill(v, bytes, f64::from_le_bytes),
            DataArray::U64(v) => refill(v, bytes, u64::from_le_bytes),
        }
        Ok(())
    }

    /// Overwrite elements `at` with little-endian payload `bytes` — the
    /// reader's one conversion from a file range to its place in the
    /// output. `bytes` holds exactly `at.len()` elements.
    pub(crate) fn fill_from_le_bytes(&mut self, at: std::ops::Range<usize>, bytes: &[u8]) {
        crate::with_elem!(self.dtype(), T => {
            let dst = &mut T::slice_mut(self).expect("dispatched on own dtype")[at];
            debug_assert_eq!(bytes.len(), std::mem::size_of_val(dst));
            for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(std::mem::size_of::<T>())) {
                *d = T::from_le_bytes(c.try_into().expect("chunks_exact yields whole elements"));
            }
        })
    }

    /// (min, max) of the elements, widened to f64 — the per-chunk
    /// characteristics stored in the footer index. Empty arrays give None.
    ///
    /// The result is the in-order fold's (keep `x` if `x < lo`, `x > hi`):
    /// a NaN first element gives `(NaN, NaN)`, a later NaN never wins, and
    /// of the elements equal to an extreme the first one seen is kept —
    /// which only shows for ±0.0. Integer extremes are exact.
    pub(crate) fn min_max(&self) -> Option<(f64, f64)> {
        match self {
            DataArray::F64(v) => {
                lane_min_max(v).map(|(lo, hi)| (first_zero(v, lo), first_zero(v, hi)))
            }
            DataArray::U64(v) => lane_min_max(v).map(|(lo, hi)| (lo as f64, hi as f64)),
        }
    }

    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            DataArray::F64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<&[u64]> {
        match self {
            DataArray::U64(v) => Some(v),
            _ => None,
        }
    }
}

/// Independent running extremes in [`lane_min_max`]: enough to fill a
/// vector register's worth of compares, with no chain between lanes.
const LANES: usize = 8;

/// The extreme *values* of `v` under the in-order fold's strict compares,
/// folded in [`LANES`] lanes that each start from `v[0]` and are merged
/// at the end. A NaN `v[0]` stays in every lane, a later NaN never enters
/// one. Which of two equal elements a lane keeps is not the fold's
/// choice; only ±0.0 can tell, and [`first_zero`] settles it.
fn lane_min_max<T: Copy + PartialOrd>(v: &[T]) -> Option<(T, T)> {
    let (&first, rest) = v.split_first()?;
    let (mut lo, mut hi) = ([first; LANES], [first; LANES]);
    let mut fold = |lane: usize, x: T| {
        lo[lane] = if x < lo[lane] { x } else { lo[lane] };
        hi[lane] = if x > hi[lane] { x } else { hi[lane] };
    };
    let mut blocks = rest.chunks_exact(LANES);
    for block in &mut blocks {
        for (lane, &x) in block.iter().enumerate() {
            fold(lane, x);
        }
    }
    for (lane, &x) in blocks.remainder().iter().enumerate() {
        fold(lane, x);
    }
    let lo = lo.into_iter().fold(first, |m, x| if x < m { x } else { m });
    let hi = hi.into_iter().fold(first, |m, x| if x > m { x } else { m });
    Some((lo, hi))
}

/// The element the in-order fold keeps for extreme `m`: the first one
/// equal to it. Only a zero has a twin that compares equal (−0.0 vs
/// 0.0), so any other `m` is already that element.
fn first_zero(v: &[f64], m: f64) -> f64 {
    if m != 0.0 {
        return m;
    }
    v.iter().copied().find(|&x| x == m).unwrap_or(m)
}

/// Element count of a box with the given extents.
pub(crate) fn linear_len(extents: &[u64]) -> u64 {
    extents.iter().product()
}

/// Row-major linear index of `coord` within a box of `extents`.
pub fn box_to_linear(coord: &[u64], extents: &[u64]) -> u64 {
    debug_assert_eq!(coord.len(), extents.len());
    let mut idx = 0;
    for (c, e) in coord.iter().zip(extents) {
        debug_assert!(c < e);
        idx = idx * e + c;
    }
    idx
}

/// A primitive element type a [`DataArray`] can hold: the bridge from
/// a generic kernel back to the array's typed buffer.
pub trait Elem: Copy + Send + Sync + 'static {
    const DTYPE: Dtype;
    /// The elements of `data`, or `None` when it holds another type.
    fn slice(data: &DataArray) -> Option<&[Self]>;
    fn slice_mut(data: &mut DataArray) -> Option<&mut [Self]>;
    /// `data` as the array of this element type.
    fn into_array(data: Vec<Self>) -> DataArray;
    /// Widened to f64 (the type reductions accumulate in).
    fn to_f64(self) -> f64;
}

macro_rules! impl_elem {
    ($($t:ty => $v:ident),*) => {$(
        impl Elem for $t {
            const DTYPE: Dtype = Dtype::$v;
            fn slice(data: &DataArray) -> Option<&[Self]> {
                match data {
                    DataArray::$v(v) => Some(v),
                    _ => None,
                }
            }
            fn slice_mut(data: &mut DataArray) -> Option<&mut [Self]> {
                match data {
                    DataArray::$v(v) => Some(v),
                    _ => None,
                }
            }
            fn into_array(data: Vec<Self>) -> DataArray {
                DataArray::$v(data)
            }
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    )*};
}
impl_elem!(f64 => F64, u64 => U64);

/// Evaluate `$body` with `$T` bound to the element type of `$dtype` —
/// the one dispatch from a runtime [`Dtype`] to a kernel generic over
/// [`Elem`].
#[macro_export]
macro_rules! with_elem {
    ($dtype:expr, $T:ident => $body:expr) => {
        match $dtype {
            $crate::Dtype::F64 => {
                type $T = f64;
                $body
            }
            $crate::Dtype::U64 => {
                type $T = u64;
                $body
            }
        }
    };
}

/// The contiguous last-dimension runs of a sub-box inside an enclosing
/// row-major box, as element ranges of the enclosing box's buffer, in
/// row-major order of the sub-box. Every run is [`run_len`] long.
/// Allocation-free at any rank: the offset advances by stride, and a
/// carry out of the second-to-last dimension is resolved from the run
/// counter.
///
/// Two `BoxRuns` over one sub-box step in lockstep, so zipping them
/// pairs each source run with its destination run.
///
/// [`run_len`]: BoxRuns::run_len
#[derive(Debug, Clone)]
pub struct BoxRuns<'a> {
    outer: &'a [u64],
    inner: &'a [u64],
    /// Start of the next run.
    next: usize,
    /// Runs yielded so far.
    run: u64,
    n_runs: u64,
    /// Runs left before the second-to-last dimension wraps.
    left: u64,
}

impl<'a> BoxRuns<'a> {
    /// Runs of the box (`corner`, `extent`) inside the box
    /// (`outer_corner`, `outer_extent`), all in global coordinates.
    /// Errors unless the ranks agree and the sub-box lies inside.
    pub fn new(
        outer_corner: &[u64],
        outer_extent: &'a [u64],
        corner: &[u64],
        extent: &'a [u64],
    ) -> Result<BoxRuns<'a>> {
        let ndim = outer_extent.len();
        if ndim == 0 || [outer_corner.len(), corner.len(), extent.len()] != [ndim; 3] {
            return Err(BpError::Corrupt("rank mismatch between boxes"));
        }
        // Every offset below is bounded by the enclosing volume.
        outer_extent
            .iter()
            .try_fold(1u64, |v, &e| v.checked_mul(e))
            .ok_or(BpError::Corrupt("box volume overflows"))?;
        let mut start = 0u64;
        for d in 0..ndim {
            let hi = corner[d].checked_add(extent[d]);
            let outer_hi = outer_corner[d].checked_add(outer_extent[d]);
            match (hi, outer_hi) {
                (Some(hi), Some(outer_hi)) if corner[d] >= outer_corner[d] && hi <= outer_hi => {}
                _ => return Err(BpError::OutOfBounds { var: String::new() }),
            }
            // Below the volume for a non-empty sub-box; an empty one
            // yields no run, so a wrapped start is never used.
            start = start
                .wrapping_mul(outer_extent[d])
                .wrapping_add(corner[d] - outer_corner[d]);
        }
        let n_runs = linear_len(&extent[..ndim - 1]);
        Ok(BoxRuns {
            outer: outer_extent,
            inner: extent,
            next: start as usize,
            run: 0,
            n_runs: if extent[ndim - 1] == 0 { 0 } else { n_runs },
            left: if ndim >= 2 { extent[ndim - 2] } else { 1 },
        })
    }

    /// Elements per run (the sub-box's last-dimension extent).
    pub fn run_len(&self) -> usize {
        self.inner[self.inner.len() - 1] as usize
    }

    /// The second-to-last dimension wrapped: rewind it and step the
    /// next outer one, repeating while that one wraps too. `run` counts
    /// whole rows of dimension `d` once divided by the inner extents
    /// below it, so `k` a multiple of `inner[d]` is "dimension `d` wrapped".
    fn carry(&mut self) {
        let mut d = self.outer.len() - 2;
        let mut stride = self.outer[d + 1] as usize;
        let mut k = self.run / self.inner[d];
        self.left = self.inner[d];
        loop {
            self.next -= (self.inner[d] - 1) as usize * stride;
            stride *= self.outer[d] as usize;
            d -= 1;
            if !k.is_multiple_of(self.inner[d]) {
                self.next += stride;
                return;
            }
            k /= self.inner[d];
        }
    }
}

impl Iterator for BoxRuns<'_> {
    type Item = std::ops::Range<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.run == self.n_runs {
            return None;
        }
        let start = self.next;
        self.run += 1;
        self.left -= 1;
        if self.left > 0 {
            self.next += self.outer[self.outer.len() - 1] as usize;
        } else if self.run < self.n_runs {
            self.carry();
        }
        Some(start..start + self.run_len())
    }
}

/// Copy the box `isect` (given in global coordinates) from a row-major
/// `src` buffer occupying box (`src_corner`, `src_extent`) into a
/// row-major `dst` buffer occupying (`dst_corner`, `dst_extent`).
/// `isect` must lie within both boxes. Returns contiguous runs copied.
#[allow(clippy::too_many_arguments)]
pub fn copy_box_between(
    src: &DataArray,
    src_corner: &[u64],
    src_extent: &[u64],
    dst: &mut DataArray,
    dst_corner: &[u64],
    dst_extent: &[u64],
    isect_corner: &[u64],
    isect_extent: &[u64],
) -> Result<u64> {
    let src_runs = BoxRuns::new(src_corner, src_extent, isect_corner, isect_extent)?;
    let dst_runs = BoxRuns::new(dst_corner, dst_extent, isect_corner, isect_extent)?;
    if src.len() as u64 != linear_len(src_extent) || dst.len() as u64 != linear_len(dst_extent) {
        return Err(BpError::Corrupt("buffer length does not match its box"));
    }
    with_elem!(src.dtype(), T => {
        let mismatch = BpError::DtypeMismatch {
            var: String::new(),
            expected: dst.dtype().name(),
            got: src.dtype().name(),
        };
        let s = T::slice(src).expect("dispatched on src's dtype");
        let d = T::slice_mut(dst).ok_or(mismatch)?;
        let mut runs = 0;
        for (from, to) in src_runs.zip(dst_runs) {
            d[to].copy_from_slice(&s[from]);
            runs += 1;
        }
        Ok(runs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Copy a row-major chunk (`src`, occupying the box at `offset` with
    /// `extents`) into a row-major global buffer (`dst`, with `global`
    /// extents), one contiguous last-dimension run at a time. Returns the
    /// number of runs copied.
    fn copy_box(
        src: &DataArray,
        dst: &mut DataArray,
        offset: &[u64],
        extents: &[u64],
        global: &[u64],
    ) -> Result<u64> {
        let origin = vec![0; global.len()];
        copy_box_between(src, offset, extents, dst, &origin, global, offset, extents)
    }

    #[test]
    fn le_bytes_roundtrip_all_dtypes() {
        let arrays = [
            DataArray::F64(vec![1.0e300, -0.5]),
            DataArray::U64(vec![u64::MAX, 42]),
        ];
        for a in arrays {
            let bytes = a.to_le_bytes();
            let back = DataArray::from_le_bytes(a.dtype(), &bytes).unwrap();
            assert_eq!(a, back);
        }
    }

    #[test]
    fn as_le_bytes_matches_owned_encoding() {
        let arrays = [
            DataArray::F64(vec![1.0e300, -0.5]),
            DataArray::U64(vec![u64::MAX, 42]),
        ];
        for a in arrays {
            assert_eq!(&a.as_le_bytes()[..], &a.to_le_bytes()[..]);
        }
        assert_eq!(&DataArray::F64(vec![]).as_le_bytes()[..], &[] as &[u8]);
    }

    #[test]
    fn from_le_rejects_ragged() {
        assert!(DataArray::from_le_bytes(Dtype::F64, &[0u8; 12]).is_err());
    }

    #[test]
    fn min_max_characteristics() {
        assert_eq!(
            DataArray::F64(vec![3.0, -1.0, 2.0]).min_max(),
            Some((-1.0, 3.0))
        );
        assert_eq!(DataArray::U64(vec![]).min_max(), None);
        assert_eq!(DataArray::U64(vec![5]).min_max(), Some((5.0, 5.0)));
    }

    /// The in-order scalar fold `min_max` must equal to the bit.
    fn scalar_min_max(a: &DataArray) -> Option<(f64, f64)> {
        fn mm<T: Copy + PartialOrd>(v: &[T], to: fn(T) -> f64) -> Option<(f64, f64)> {
            let (&first, rest) = v.split_first()?;
            let (mut lo, mut hi) = (first, first);
            for &x in rest {
                if x < lo {
                    lo = x;
                }
                if x > hi {
                    hi = x;
                }
            }
            Some((to(lo), to(hi)))
        }
        match a {
            DataArray::F64(v) => mm(v, |x| x),
            DataArray::U64(v) => mm(v, |x| x as f64),
        }
    }

    fn bits(mm: Option<(f64, f64)>) -> Option<(u64, u64)> {
        mm.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
    }

    /// Floats that tie (±0.0), never compare (NaN) or bound everything
    /// (±∞), drawn often enough that every lane sees them.
    fn odd_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop::sample::select(vec![
                f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.5,
                -1.5,
            ]),
            -1e3f64..1e3,
        ]
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn lane_min_max_is_the_in_order_fold(
            xs in prop::collection::vec(odd_f64(), 0..=40),
            ints in prop::collection::vec(
                prop_oneof![prop::sample::select(vec![0, 1, u64::MAX, 1 << 31, 1 << 63]), any::<u64>()],
                0..=40,
            ),
            nan_at in 0usize..40,
            sign in 0u8..3,
        ) {
            // As drawn, or folded to one sign so that a zero is often the
            // min (or the max) — the folds keep ±0.0 apart.
            let xs: Vec<f64> = match sign {
                0 => xs,
                1 => xs.into_iter().map(|x| if x < 0.0 { -x } else { x }).collect(),
                _ => xs.into_iter().map(|x| if x > 0.0 { -x } else { x }).collect(),
            };
            // As drawn, with a NaN at index 0, with one at `nan_at`, and
            // with every element NaN.
            let mut at_k = xs.clone();
            if let Some(x) = at_k.get_mut(nan_at) {
                *x = f64::NAN;
            }
            let mut at_0 = xs.clone();
            if let Some(x) = at_0.first_mut() {
                *x = f64::NAN;
            }
            let cases = [xs.clone(), at_k, at_0, vec![f64::NAN; xs.len()]];
            let arrays = cases.into_iter().map(DataArray::F64).chain([DataArray::U64(ints)]);
            for a in arrays {
                prop_assert_eq!(bits(a.min_max()), bits(scalar_min_max(&a)), "{:?}", a);
            }
        }
    }

    #[test]
    fn signed_zero_ties_keep_the_first_seen() {
        for (v, lo, hi) in [
            (vec![0.0, -0.0], 0.0f64, 0.0f64),
            (vec![-0.0, 0.0], -0.0, -0.0),
            // The first zero sits in a later lane than the second (lane 5
            // of the first block against lane 2 of the next).
            (
                [vec![1.0; 6], vec![-0.0], vec![1.0; 4], vec![0.0]].concat(),
                -0.0,
                1.0,
            ),
            (
                [vec![-1.0; 6], vec![0.0], vec![-1.0; 4], vec![-0.0]].concat(),
                -1.0,
                0.0,
            ),
        ] {
            let (got_lo, got_hi) = DataArray::F64(v.clone()).min_max().unwrap();
            assert_eq!(
                (got_lo.to_bits(), got_hi.to_bits()),
                (lo.to_bits(), hi.to_bits()),
                "{v:?}"
            );
        }
    }

    #[test]
    fn linear_index_row_major() {
        // 2x3 array: (1,2) → 1*3+2 = 5
        assert_eq!(box_to_linear(&[1, 2], &[2, 3]), 5);
        assert_eq!(box_to_linear(&[0, 0, 0], &[4, 4, 4]), 0);
        assert_eq!(box_to_linear(&[3, 3, 3], &[4, 4, 4]), 63);
    }

    #[test]
    fn copy_box_2d_quadrants() {
        // Assemble a 4x4 global from four 2x2 chunks.
        let mut global = DataArray::zeros(Dtype::U64, 16);
        let mk = |v: u64| DataArray::U64(vec![v; 4]);
        for (v, off) in [(1, [0, 0]), (2, [0, 2]), (3, [2, 0]), (4, [2, 2])] {
            let runs = copy_box(&mk(v), &mut global, &off, &[2, 2], &[4, 4]).unwrap();
            assert_eq!(runs, 2); // two rows per 2x2 chunk
        }
        let DataArray::U64(g) = global else {
            unreachable!()
        };
        #[rustfmt::skip]
        assert_eq!(g, vec![
            1, 1, 2, 2,
            1, 1, 2, 2,
            3, 3, 4, 4,
            3, 3, 4, 4,
        ]);
    }

    #[test]
    fn copy_box_full_width_is_single_runs_per_row() {
        // A chunk spanning entire rows: run length = global row.
        let chunk = DataArray::U64((0..8).collect());
        let mut global = DataArray::zeros(Dtype::U64, 16);
        let runs = copy_box(&chunk, &mut global, &[2, 0], &[2, 4], &[4, 4]).unwrap();
        assert_eq!(runs, 2);
        let DataArray::U64(g) = global else {
            unreachable!()
        };
        assert_eq!(&g[8..], &(0..8).collect::<Vec<u64>>()[..]);
    }

    #[test]
    fn copy_box_3d() {
        // 2x2x2 chunk into 2x2x4 global at offset (0,0,2).
        let chunk = DataArray::F64((0..8).map(|x| x as f64).collect());
        let mut global = DataArray::zeros(Dtype::F64, 16);
        copy_box(&chunk, &mut global, &[0, 0, 2], &[2, 2, 2], &[2, 2, 4]).unwrap();
        let DataArray::F64(g) = global else {
            unreachable!()
        };
        // Element (i,j,k) of chunk lands at linear ((i*2)+j)*4 + (k+2).
        assert_eq!(g[2], 0.0 + 0.0); // (0,0,2) ← chunk (0,0,0)=0
        assert_eq!(g[3], 1.0); // (0,0,3) ← chunk 1
        assert_eq!(g[6], 2.0); // (0,1,2) ← chunk 2
        assert_eq!(g[15], 7.0); // (1,1,3) ← chunk 7
        assert_eq!(g[0], 0.0);
        assert_eq!(g[4], 0.0);
    }

    #[test]
    fn copy_box_bounds_checked() {
        let chunk = DataArray::U64(vec![0; 4]);
        let mut global = DataArray::zeros(Dtype::U64, 16);
        assert!(matches!(
            copy_box(&chunk, &mut global, &[3, 3], &[2, 2], &[4, 4]),
            Err(BpError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn copy_box_between_partial_overlap() {
        // src box at (2,2) 4x4 holding 1..16; dst box at (0,0) 6x6 zeros;
        // copy the intersection (4,4)..(6,6).
        let src = DataArray::U64((1..=16).collect());
        let mut dst = DataArray::zeros(Dtype::U64, 36);
        let runs = copy_box_between(
            &src,
            &[2, 2],
            &[4, 4],
            &mut dst,
            &[0, 0],
            &[6, 6],
            &[4, 4],
            &[2, 2],
        )
        .unwrap();
        assert_eq!(runs, 2);
        let DataArray::U64(d) = dst else {
            unreachable!()
        };
        // src element at global (4,4) = local (2,2) = idx 2*4+2 = 10 → value 11.
        assert_eq!(d[4 * 6 + 4], 11);
        assert_eq!(d[4 * 6 + 5], 12);
        assert_eq!(d[5 * 6 + 4], 15);
        assert_eq!(d[5 * 6 + 5], 16);
        assert_eq!(d.iter().filter(|&&x| x != 0).count(), 4);
    }

    #[test]
    fn copy_box_between_bounds_checked() {
        let src = DataArray::U64(vec![0; 4]);
        let mut dst = DataArray::zeros(Dtype::U64, 4);
        assert!(copy_box_between(
            &src,
            &[0, 0],
            &[2, 2],
            &mut dst,
            &[0, 0],
            &[2, 2],
            &[1, 1],
            &[2, 2], // exceeds both boxes
        )
        .is_err());
    }

    /// Hostile corners: `corner + extent` must not wrap into bounds.
    #[test]
    fn copy_box_rejects_wrapping_offsets() {
        let chunk = DataArray::U64(vec![0; 4]);
        let mut global = DataArray::zeros(Dtype::U64, 16);
        assert!(matches!(
            copy_box(&chunk, &mut global, &[u64::MAX - 1, 0], &[2, 2], &[4, 4]),
            Err(BpError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn copy_box_between_rejects_wrapping_corners() {
        let src = DataArray::U64(vec![0; 4]);
        let mut dst = DataArray::zeros(Dtype::U64, 4);
        let big = u64::MAX - 1;
        // The intersection wraps...
        assert!(matches!(
            copy_box_between(
                &src,
                &[0, 0],
                &[2, 2],
                &mut dst,
                &[0, 0],
                &[2, 2],
                &[big, 0],
                &[2, 2]
            ),
            Err(BpError::OutOfBounds { .. })
        ));
        // ...or an enclosing box does.
        assert!(matches!(
            copy_box_between(
                &src,
                &[big, 0],
                &[2, 2],
                &mut dst,
                &[0, 0],
                &[2, 2],
                &[0, 0],
                &[1, 1]
            ),
            Err(BpError::OutOfBounds { .. })
        ));
        // Extents whose product overflows are refused, not multiplied.
        assert!(matches!(
            copy_box_between(
                &src,
                &[0, 0],
                &[1 << 40, 1 << 40],
                &mut dst,
                &[0, 0],
                &[2, 2],
                &[0, 0],
                &[1, 1]
            ),
            Err(BpError::Corrupt(_))
        ));
    }

    #[test]
    fn copy_box_between_checks_buffer_lengths() {
        let src = DataArray::U64(vec![0; 3]); // box says 4
        let mut dst = DataArray::zeros(Dtype::U64, 4);
        assert!(matches!(
            copy_box_between(
                &src,
                &[0, 0],
                &[2, 2],
                &mut dst,
                &[0, 0],
                &[2, 2],
                &[0, 0],
                &[2, 2]
            ),
            Err(BpError::Corrupt(_))
        ));
    }

    /// Every sub-box of a rank 1-4 box: the runs are exactly the
    /// per-element row-major walk, cut at last-dimension boundaries.
    #[test]
    fn box_runs_match_per_element_walk() {
        fn walk(outer: &[u64], corner: &[u64], extent: &[u64]) -> Vec<usize> {
            let mut out = Vec::new();
            let mut coord = vec![0u64; outer.len()];
            for _ in 0..linear_len(extent) {
                let at: Vec<u64> = coord.iter().zip(corner).map(|(c, o)| c + o).collect();
                out.push(box_to_linear(&at, outer) as usize);
                for d in (0..outer.len()).rev() {
                    coord[d] += 1;
                    if coord[d] < extent[d] {
                        break;
                    }
                    coord[d] = 0;
                }
            }
            out
        }
        for outer in [vec![7], vec![3, 5], vec![2, 3, 4], vec![2, 3, 2, 3]] {
            let n = outer.len();
            let origin = vec![0; n];
            // Enumerate every (corner, extent) with extent ≥ 0.
            let mut corner = vec![0u64; n];
            'corners: loop {
                let mut extent = vec![0u64; n];
                'extents: loop {
                    let runs = BoxRuns::new(&origin, &outer, &corner, &extent).unwrap();
                    let len = runs.run_len();
                    let flat: Vec<usize> = runs
                        .inspect(|r| assert_eq!(r.len(), len))
                        .flatten()
                        .collect();
                    assert_eq!(
                        flat,
                        walk(&outer, &corner, &extent),
                        "{outer:?} {corner:?} {extent:?}"
                    );
                    for d in (0..n).rev() {
                        extent[d] += 1;
                        if corner[d] + extent[d] <= outer[d] {
                            continue 'extents;
                        }
                        extent[d] = 0;
                    }
                    break;
                }
                for d in (0..n).rev() {
                    corner[d] += 1;
                    if corner[d] <= outer[d] {
                        continue 'corners;
                    }
                    corner[d] = 0;
                }
                break;
            }
        }
        assert!(
            BoxRuns::new(&[], &[], &[], &[]).is_err(),
            "rank 0 has no last dimension"
        );
    }

    #[test]
    fn copy_box_dtype_checked() {
        let chunk = DataArray::U64(vec![0; 4]);
        let mut global = DataArray::zeros(Dtype::F64, 16);
        assert!(matches!(
            copy_box(&chunk, &mut global, &[0, 0], &[2, 2], &[4, 4]),
            Err(BpError::DtypeMismatch { .. })
        ));
    }
}
