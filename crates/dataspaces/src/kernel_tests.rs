//! Property tests holding the run kernels, the per-block summaries and
//! the scans built on them to a per-element reference. The reference —
//! one coordinate walk per element, the shape the kernels replaced —
//! lives only here.

use std::sync::Arc;
use std::time::Duration;

use bpio::{with_elem, DataArray, Dtype, Elem};
use proptest::prelude::*;
use proptest::TestRng;

use crate::index::{Block, Summary};
use crate::session::finish_reduction;
use crate::{
    DataSpaces, DsConfig, DsError, QueryKind, QueryService, QueryServiceConfig, Reduction, Region,
};

const DTYPES: [Dtype; 2] = [Dtype::F64, Dtype::U64];
const REDUCTIONS: [Reduction; 5] = [
    Reduction::Min,
    Reduction::Max,
    Reduction::Sum,
    Reduction::Count,
    Reduction::Avg,
];

/// Every coordinate of `region`, row-major.
fn coords(region: &Region) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    let mut at = region.corner.clone();
    for _ in 0..region.volume() {
        out.push(at.clone());
        for d in (0..region.rank()).rev() {
            at[d] += 1;
            if at[d] < region.corner[d] + region.extent[d] {
                break;
            }
            at[d] = region.corner[d];
        }
    }
    out
}

/// Linear index of global coordinate `at` in a buffer laid out over `over`.
fn linear(at: &[u64], over: &Region) -> usize {
    let local: Vec<u64> = at.iter().zip(&over.corner).map(|(a, c)| a - c).collect();
    bpio::box_to_linear(&local, &over.extent) as usize
}

/// A random box inside `outer`; never empty.
fn sub_box(rng: &mut TestRng, outer: &Region) -> Region {
    let mut corner = Vec::new();
    let mut extent = Vec::new();
    for d in 0..outer.rank() {
        let off = rng.below(outer.extent[d]);
        corner.push(outer.corner[d] + off);
        extent.push(1 + rng.below(outer.extent[d] - off));
    }
    Region::new(corner, extent)
}

/// A random box of `rank` dimensions. Long enough in its last dimension
/// that runs cross the mask's 64-bit words.
fn some_box(rng: &mut TestRng, rank: usize) -> Region {
    let corner = (0..rank).map(|_| rng.below(50)).collect();
    let mut extent: Vec<u64> = (0..rank).map(|_| 1 + rng.below(5)).collect();
    extent[rank - 1] = 1 + rng.below(if rank == 1 { 200 } else { 40 });
    Region::new(corner, extent)
}

/// `n` values of `dtype`, none an integer where the type allows it, so
/// a sum's rounding depends on its order.
fn values(rng: &mut TestRng, dtype: Dtype, n: usize) -> DataArray {
    let mut raw = || rng.below(2_000_001) as f64 / 7.0 - 100_000.0;
    match dtype {
        Dtype::F64 => DataArray::F64((0..n).map(|_| raw()).collect()),
        Dtype::U64 => DataArray::U64((0..n).map(|_| raw().abs() as u64 * (1 << 33)).collect()),
    }
}

fn value_at(data: &DataArray, idx: usize) -> f64 {
    with_elem!(data.dtype(), T => T::slice(data).unwrap()[idx].to_f64())
}

/// The reference fold: the filled elements of `isect`, one at a time in
/// row-major order, from the fold identity.
fn fold_ref(isect: &Region, value: impl Fn(&[u64]) -> Option<f64>) -> Summary {
    let mut acc = Summary::EMPTY;
    for v in coords(isect).iter().filter_map(|at| value(at)) {
        acc.min = acc.min.min(v);
        acc.max = acc.max.max(v);
        acc.sum += v;
        acc.n_filled += 1;
    }
    acc
}

fn same(a: &Summary, b: &Summary) -> bool {
    a.min == b.min
        && a.max == b.max
        && a.sum.to_bits() == b.sum.to_bits()
        && a.n_filled == b.n_filled
}

/// The global array a space should hold.
struct Model {
    domain: Region,
    data: DataArray,
    /// Whether any put covered the cell.
    filled: Vec<bool>,
}

impl Model {
    fn new(domain: Region, dtype: Dtype) -> Model {
        let n = domain.volume() as usize;
        Model {
            data: DataArray::zeros(dtype, n),
            filled: vec![false; n],
            domain,
        }
    }

    fn put(&mut self, region: &Region, data: &DataArray) {
        with_elem!(data.dtype(), T => {
            let (src, dst) = (T::slice(data).unwrap(), T::slice_mut(&mut self.data).unwrap());
            for (i, at) in coords(region).iter().enumerate() {
                let cell = linear(at, &self.domain);
                dst[cell] = src[i];
                self.filled[cell] = true;
            }
        })
    }

    fn at(&self, at: &[u64]) -> Option<f64> {
        let cell = linear(at, &self.domain);
        self.filled[cell].then(|| value_at(&self.data, cell))
    }

    /// The reduction contract, element by element: blocks in
    /// `blocks_of` order, within a block the row-major fold from the
    /// identity.
    fn reduce(&self, cfg: &DsConfig, region: &Region) -> Summary {
        let mut total = Summary::EMPTY;
        for g in cfg.blocks_of(region) {
            let isect = cfg.block_region(&g).intersect(region).unwrap();
            total.merge(&fold_ref(&isect, |at| self.at(at)));
        }
        total
    }

    /// What a range query over `region` must answer.
    fn get(&self, region: &Region) -> Result<DataArray, DsError> {
        let cells: Vec<usize> = coords(region)
            .iter()
            .map(|at| linear(at, &self.domain))
            .collect();
        match cells.iter().filter(|&&c| !self.filled[c]).count() as u64 {
            0 => Ok(with_elem!(self.data.dtype(), T => {
                let mut out = DataArray::zeros(T::DTYPE, cells.len());
                let (src, dst) = (T::slice(&self.data).unwrap(), T::slice_mut(&mut out).unwrap());
                for (d, &c) in dst.iter_mut().zip(&cells) {
                    *d = src[c];
                }
                out
            })),
            missing_elems => Err(DsError::Incomplete { missing_elems }),
        }
    }
}

/// Every reduction and the range query over `q`, directly on the space
/// and through a service, against the model.
fn check_queries(
    ds: &Arc<DataSpaces>,
    svc: &QueryService,
    model: &Model,
    q: &Region,
) -> Result<(), TestCaseError> {
    let t = Duration::from_secs(5);
    // Sums (and the averages read off them) must agree to the bit.
    let eq = |how, got: f64, want: f64| match how {
        Reduction::Sum | Reduction::Avg => got.to_bits() == want.to_bits(),
        _ => got == want,
    };
    for how in REDUCTIONS {
        let want = finish_reduction(how, &model.reduce(ds.config(), q));
        let got = ds.reduce("f", 0, q, how, t).unwrap();
        prop_assert!(eq(how, got, want), "{how:?} over {q:?}: {got} != {want}");
        let got = svc
            .query("f", 0, QueryKind::Reduce(q.clone(), how))
            .unwrap()
            .output
            .value();
        prop_assert!(
            eq(how, got, want),
            "served {how:?} over {q:?}: {got} != {want}"
        );
    }
    let want = model.get(q);
    prop_assert_eq!(&ds.get("f", 0, q, t), &want);
    let served = svc.query("f", 0, QueryKind::Range(q.clone()));
    prop_assert_eq!(served.map(|r| r.output.into_data()), want);
    Ok(())
}

/// Gets at ranks 3 and 4 whose region starts and ends inside blocks
/// and spans at least two blocks in every dimension, so the rows of
/// different bands interleave in the answer: directly and through a
/// service, every dtype answers as the model does.
#[test]
fn band_walk_interleaves_bands_at_ranks_3_and_4() {
    let t = Duration::from_secs(5);
    let cases: [[&[u64]; 4]; 2] = [
        // dims, block, corner, extent
        [&[9, 10, 11], &[3, 4, 5], &[1, 2, 3], &[7, 7, 6]],
        [&[7, 6, 8, 9], &[2, 3, 3, 4], &[1, 1, 2, 3], &[4, 4, 5, 4]],
    ];
    for [dims, block, corner, extent] in cases {
        let cfg = DsConfig::new(dims.to_vec(), block.to_vec(), 3);
        let q = Region::new(corner.to_vec(), extent.to_vec());
        for d in 0..dims.len() {
            let end = corner[d] + extent[d];
            assert!(corner[d] % block[d] != 0 && end % block[d] != 0);
            assert!(
                (end - 1) / block[d] > corner[d] / block[d],
                "two blocks in dim {d}"
            );
        }
        for (i, dtype) in DTYPES.into_iter().enumerate() {
            let domain = Region::whole(dims);
            let ds = Arc::new(DataSpaces::new(cfg.clone()));
            let data = values(&mut TestRng::new(i as u64), dtype, domain.volume() as usize);
            let mut model = Model::new(domain.clone(), dtype);
            model.put(&domain, &data);
            ds.put("f", 0, &domain, data).unwrap();
            ds.commit("f", 0);
            let want = model.get(&q).unwrap();
            assert_eq!(ds.get("f", 0, &q, t).unwrap(), want, "{dtype:?} over {q:?}");
            let svc = QueryService::new(Arc::clone(&ds), QueryServiceConfig::default());
            let served = svc.query("f", 0, QueryKind::Range(q.clone())).unwrap();
            assert_eq!(
                served.output.into_data(),
                want,
                "served {dtype:?} over {q:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One block, overlapping marks: the mask, the counts and the fold
    /// agree with the per-element walk after every mark.
    #[test]
    fn block_kernels_match_per_element_reference(
        seed in any::<u64>(),
        rank in 1usize..=4,
        dtype in 0usize..DTYPES.len(),
    ) {
        let rng = &mut TestRng::new(seed);
        let region = some_box(rng, rank);
        let n = region.volume() as usize;
        let mut block = Block::new(region.clone(), DTYPES[dtype]);
        block.data = values(rng, DTYPES[dtype], n);
        let mut mask = vec![false; n];
        for _ in 0..1 + rng.below(5) {
            let put = sub_box(rng, &region);
            block.mark_region(&put);
            for at in coords(&put) {
                mask[linear(&at, &region)] = true;
            }
            for (i, &m) in mask.iter().enumerate() {
                prop_assert_eq!(block.is_set(i), m, "mask bit {}", i);
            }
            prop_assert_eq!(block.n_filled, mask.iter().filter(|&&m| m).count() as u64);

            let q = sub_box(rng, &region);
            let filled = |at: &[u64]| {
                let i = linear(at, &region);
                mask[i].then(|| value_at(&block.data, i))
            };
            let want = fold_ref(&q, filled);
            prop_assert_eq!(block.count_filled(&q), want.n_filled);
            prop_assert!(same(&block.fold(&q), &want), "{:?} != {:?}", block.fold(&q), want);

        }
    }

    /// A space filled by overlapping puts (holes left where none
    /// landed): every reduction — whether a block is served from its
    /// summary or scanned — and every range query agrees with the model,
    /// bit for bit; and the summaries follow the data through a
    /// put-after-commit re-commit.
    #[test]
    fn queries_match_per_element_reference(
        seed in any::<u64>(),
        rank in 1usize..=4,
        dtype in 0usize..DTYPES.len(),
    ) {
        let rng = &mut TestRng::new(seed);
        let dtype = DTYPES[dtype];
        let dims: Vec<u64> = (0..rank).map(|_| 1 + rng.below(if rank < 3 { 24 } else { 6 })).collect();
        let block: Vec<u64> = dims.iter().map(|d| 1 + rng.below(*d)).collect();
        let cfg = DsConfig::new(dims.clone(), block, 1 + rng.below(4) as usize);
        let domain = Region::whole(&dims);
        let ds = Arc::new(DataSpaces::new(cfg.clone()));
        let svc = QueryService::new(
            Arc::clone(&ds),
            QueryServiceConfig { workers: 2, ..QueryServiceConfig::default() },
        );
        let mut model = Model::new(domain.clone(), dtype);
        let put = |rng: &mut TestRng, model: &mut Model| {
            let r = sub_box(rng, &domain);
            let data = values(rng, dtype, r.volume() as usize);
            model.put(&r, &data);
            ds.put("f", 0, &r, data).unwrap();
        };
        for _ in 0..1 + rng.below(6) {
            put(rng, &mut model);
        }
        ds.commit("f", 0);
        check_queries(&ds, &svc, &model, &domain)?;
        check_queries(&ds, &svc, &model, &sub_box(rng, &domain))?;
        // One block exactly: served from its summary alone.
        let one = cfg.block_region(&cfg.blocks_of(&sub_box(rng, &domain))[0]);
        check_queries(&ds, &svc, &model, &one)?;

        // A put after the commit shows only once re-committed, and the
        // touched blocks' summaries are computed afresh.
        put(rng, &mut model);
        ds.commit("f", 0);
        check_queries(&ds, &svc, &model, &domain)?;
    }
}
