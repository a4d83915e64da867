//! Snapshot-bound read sessions.
//!
//! A [`Session`] is a query's view of the space: it binds to one
//! `(variable, version)` at admission by cloning the committed shard
//! snapshots (one `Arc` pointer copy per shard) and the variable's
//! directory entry. From then on every scan runs against frozen
//! [`Arc`]'d blocks — **no locks**, so committed reads never block puts
//! and a concurrent commit or `evict_before` can never corrupt an
//! in-flight scan (the old maps stay alive until the last session drops
//! them: snapshot isolation by reference counting).
//!
//! A reduction's rounding is defined: block partials merge in
//! `blocks_of` order and each is a row-major fold, so an answer is a
//! pure function of the query and the committed data.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bpio::{with_elem, DataArray, Dtype, Elem};

use crate::domain::{DsConfig, Region};
use crate::error::DsError;
use crate::index::{runs, Block, BlockMap, Summary};
use crate::space::{Reduction, SpaceStats};

/// A read session pinned to the committed snapshot of one
/// `(variable, version)`. Cheap to clone and `Send + Sync`: scans from
/// any thread see the same frozen data.
#[derive(Clone)]
pub struct Session {
    pub(crate) cfg: Arc<DsConfig>,
    pub(crate) var_id: u32,
    pub(crate) version: u64,
    /// `None` when the version was committed without any put (a scan
    /// then covers nothing).
    pub(crate) dtype: Option<Dtype>,
    pub(crate) shards: Vec<Arc<BlockMap>>,
    pub(crate) stats: Arc<SpaceStats>,
}

impl Session {
    /// Retrieve the data of `region` from the pinned snapshot. Errors
    /// if a block holds another element type than the variable, then if
    /// parts of the region were never put (holes). The answer is
    /// appended band by band into a buffer that is never zeroed, so
    /// each element is written once, in answer order (`band_walk`).
    /// This is where every range answer, direct or served, is counted
    /// in [`SpaceStats`].
    pub fn get(&self, region: &Region) -> Result<DataArray, DsError> {
        self.cfg.check(region)?;
        let dtype = self.dtype.unwrap_or(Dtype::F64);
        let blocks: Vec<_> = self.blocks(region).collect();
        if blocks.iter().any(|(block, _)| block.data.dtype() != dtype) {
            return Err(DsError::DtypeMismatch);
        }
        let covered = blocks.iter().map(|(b, isect)| b.count_filled(isect));
        complete(region, covered.sum())?;
        let out = with_elem!(dtype, T => T::into_array(band_walk(&self.cfg, region, &blocks)));
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_got
            .fetch_add(out.byte_len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Reduction over `region` on the pinned snapshot. Holes are
    /// skipped, matching [`crate::DataSpaces::reduce`]. A block lying
    /// wholly inside the region contributes its summary — the same
    /// row-major fold a scan of it performs, so which one serves a block
    /// never shows in the answer.
    pub fn reduce(&self, region: &Region, how: Reduction) -> Result<f64, DsError> {
        self.cfg.check(region)?;
        let mut total = Summary::EMPTY;
        for (block, isect) in self.blocks(region) {
            if isect.extent == block.region.extent {
                total.merge(block.summary());
            } else {
                total.merge(&block.fold(&isect));
            }
        }
        Ok(finish_reduction(how, &total))
    }

    /// The committed blocks intersecting `region`, in `blocks_of` order,
    /// each with its intersection.
    fn blocks<'a>(&'a self, region: &'a Region) -> impl Iterator<Item = (&'a Block, Region)> {
        self.cfg.blocks_of(region).into_iter().filter_map(move |g| {
            let key = (self.var_id, self.version, self.cfg.grid_index(&g));
            let block = self.shards[self.cfg.shard_of(&g)].get(&key)?;
            let isect = block.region.intersect(region)?;
            Some((&**block, isect))
        })
    }
}

/// A range answer must cover its whole region.
fn complete(region: &Region, covered: u64) -> Result<(), DsError> {
    match region.volume() - covered {
        0 => Ok(()),
        missing_elems => Err(DsError::Incomplete { missing_elems }),
    }
}

/// The answer of `region`. `blocks` must be every block it intersects,
/// none missing (the completeness check guarantees it), in `blocks_of`
/// order and all of element type `T`. Consecutive blocks
/// that share every grid coordinate but the last form a *band*, and an
/// answer row (one run of the last dimension) is the concatenation of
/// one run from each block of its band. An odometer over the region's
/// leading coordinates picks each row's band; each block keeps a cursor
/// over its own runs, which it meets in its own row-major order. At
/// rank 2 the bands follow one another in the answer; above it they
/// interleave.
fn band_walk<T: Elem>(cfg: &DsConfig, region: &Region, blocks: &[(&Block, Region)]) -> Vec<T> {
    let mut out = Vec::with_capacity(region.volume() as usize);
    if region.is_empty() {
        return out;
    }
    let lead = region.rank() - 1;
    let first = |d: usize| region.corner[d] / cfg.block[d];
    let span = |d: usize| (region.corner[d] + region.extent[d] - 1) / cfg.block[d] - first(d) + 1;
    let band_len = span(lead) as usize;
    let mut cursors: Vec<_> = blocks
        .iter()
        .map(|(block, isect)| {
            let src = T::slice(&block.data).expect("every block holds the answer's dtype");
            (src, runs(&block.region, isect))
        })
        .collect();
    let mut at = region.corner[..lead].to_vec();
    for _ in 0..region.extent[..lead].iter().product::<u64>() {
        let band = (0..lead).fold(0, |b, d| b * span(d) + at[d] / cfg.block[d] - first(d));
        let band = band as usize * band_len;
        for (src, runs) in &mut cursors[band..band + band_len] {
            out.extend_from_slice(&src[runs.next().expect("a band block has a run per row")]);
        }
        for d in (0..lead).rev() {
            at[d] += 1;
            if at[d] < region.corner[d] + region.extent[d] {
                break;
            }
            at[d] = region.corner[d];
        }
    }
    out
}

/// Read the query's answer off the merged partial.
pub(crate) fn finish_reduction(how: Reduction, total: &Summary) -> f64 {
    match how {
        Reduction::Min => total.min,
        Reduction::Max => total.max,
        Reduction::Sum => total.sum,
        Reduction::Count => total.n_filled as f64,
        Reduction::Avg if total.n_filled > 0 => total.sum / total.n_filled as f64,
        Reduction::Avg => f64::NAN,
    }
}
