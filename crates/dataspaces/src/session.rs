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

use std::sync::Arc;

use bpio::{with_elem, DataArray, Dtype, Elem};

use crate::domain::{DsConfig, Region};
use crate::error::DsError;
use crate::index::{Block, BlockMap, Summary};
use crate::space::Reduction;

/// A read session pinned to the committed snapshot of one
/// `(variable, version)`. Cheap to clone and `Send + Sync`: scans from
/// any thread see the same frozen data.
#[derive(Clone)]
pub struct Session {
    pub(crate) cfg: Arc<DsConfig>,
    pub(crate) var: Arc<str>,
    pub(crate) var_id: u32,
    pub(crate) version: u64,
    /// `None` when the version was committed without any put (a scan
    /// then covers nothing).
    pub(crate) dtype: Option<Dtype>,
    pub(crate) epoch: u64,
    pub(crate) shards: Vec<Arc<BlockMap>>,
}

impl Session {
    pub fn var(&self) -> &str {
        &self.var
    }

    pub fn version(&self) -> u64 {
        self.version
    }

    /// The publication epoch this session is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Retrieve the data of `region` from the pinned snapshot, copying
    /// block runs straight to their place in the answer. Errors if
    /// parts of the region were never put (holes).
    pub fn get(&self, region: &Region) -> Result<DataArray, DsError> {
        self.cfg.check(region)?;
        let dtype = self.dtype.unwrap_or(Dtype::F64);
        let mut out = DataArray::zeros(dtype, region.volume() as usize);
        let mut covered = 0;
        with_elem!(dtype, T => {
            let dst = T::slice_mut(&mut out).expect("dispatched on out's dtype");
            for (block, isect) in self.blocks(region) {
                covered += block.count_filled(&isect);
                block
                    .copy_to(&isect, dst, region)
                    .ok_or(DsError::DtypeMismatch)?;
            }
        });
        complete(region, covered)?;
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
pub(crate) fn complete(region: &Region, covered: u64) -> Result<(), DsError> {
    match region.volume() - covered {
        0 => Ok(()),
        missing_elems => Err(DsError::Incomplete { missing_elems }),
    }
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
