//! The sharded, versioned block index.
//!
//! Storage is split per shard into two planes:
//!
//! * a **pending** plane — mutable blocks still being filled by `put`s,
//!   guarded by one fine-grained mutex per shard (rustc-`Sharded` style,
//!   cache-line padded so neighbouring shard locks never false-share);
//! * a **committed** plane — immutable [`Arc`]'d blocks published as a
//!   whole-map snapshot behind a [`SnapCell`].
//!
//! `commit` *freezes* a version's pending blocks and publishes a new
//! committed map per touched shard (copy-on-write of the map, `Arc`
//! clones of untouched blocks), bumping the global **epoch**. Readers of
//! committed data clone the shard snapshots once at admission and then
//! scan without touching any lock a writer uses: puts only ever lock the
//! pending plane, so committed-version queries never block puts and puts
//! never block queries. An in-flight scan holds its snapshot `Arc`s, so
//! a concurrent `evict_before` or commit can never corrupt it — eviction
//! publishes a *new* map and the old one dies when the last reader drops
//! it (snapshot isolation by reference counting).
//!
//! Keys are fully numeric — `(interned var id, version, linear grid
//! index)` — so index probes allocate nothing.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bpio::{with_elem, BoxRuns, DataArray, Dtype, Elem};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::domain::Region;

/// Key of one stored block: (var id, version, linear grid index).
pub(crate) type BlockKey = (u32, u64, u64);

/// The fold of a set of filled elements: what every reduction is read
/// from. A fold visits a block's elements in row-major order, and
/// partials [`merge`](Summary::merge) in `blocks_of` order, so `sum`
/// has one defined rounding whoever computes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Summary {
    pub min: f64,
    pub max: f64,
    pub sum: f64,
    pub n_filled: u64,
}

impl Summary {
    pub const EMPTY: Summary = Summary {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        sum: 0.0,
        n_filled: 0,
    };

    /// By value, so a fold's accumulator lives in registers.
    fn push(mut self, v: f64) -> Summary {
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.sum += v;
        self.n_filled += 1;
        self
    }

    /// Fold a later partial into this one (ties keep the earlier
    /// value, as in `push`, so even the sign of a zero is defined).
    pub fn merge(&mut self, later: &Summary) {
        if later.min < self.min {
            self.min = later.min;
        }
        if later.max > self.max {
            self.max = later.max;
        }
        self.sum += later.sum;
        self.n_filled += later.n_filled;
    }
}

/// One stored block: the clipped block region, its data, and a
/// per-element fill mask (puts may cover a block partially, from several
/// writers).
#[derive(Clone)]
pub(crate) struct Block {
    pub region: Region,
    pub data: DataArray,
    filled: Vec<u64>, // bitmask words
    pub n_filled: u64,
    /// The fold of the whole block, kept by the first reduction that
    /// asks for it. Only a frozen block is asked:
    /// [`ShardIndex::publish`] empties the cell as it freezes one.
    summary: OnceLock<Summary>,
}

/// Per 64-bit mask word, the bits that `range` (of element indices)
/// covers.
fn word_masks(range: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
    let (lo, hi) = (range.start, range.end);
    (lo / 64..hi.div_ceil(64)).map(move |w| {
        let from = lo.max(w * 64) - w * 64;
        let to = hi.min(w * 64 + 64) - w * 64;
        (w, (!0u64 >> (64 - to)) & (!0u64 << from))
    })
}

/// The runs of `isect` (global coordinates, inside `region`) as ranges
/// of the linear index local to `region`.
fn runs<'a>(region: &'a Region, isect: &'a Region) -> BoxRuns<'a> {
    BoxRuns::new(&region.corner, &region.extent, &isect.corner, &isect.extent)
        .expect("an intersection lies inside both of its boxes")
}

impl Block {
    pub fn new(region: Region, dtype: Dtype) -> Self {
        let n = region.volume() as usize;
        Block {
            data: DataArray::zeros(dtype, n),
            filled: vec![0; n.div_ceil(64)],
            n_filled: 0,
            summary: OnceLock::new(),
            region,
        }
    }

    pub fn is_set(&self, local_idx: usize) -> bool {
        self.filled[local_idx / 64] & (1 << (local_idx % 64)) != 0
    }

    fn is_full(&self) -> bool {
        self.n_filled == self.region.volume()
    }

    /// Mark every element of `isect` filled.
    pub fn mark_region(&mut self, isect: &Region) {
        if self.is_full() {
            return;
        }
        for run in runs(&self.region, isect) {
            for (w, mask) in word_masks(run) {
                self.n_filled += (mask & !self.filled[w]).count_ones() as u64;
                self.filled[w] |= mask;
            }
        }
    }

    /// How many elements of `isect` are filled.
    pub fn count_filled(&self, isect: &Region) -> u64 {
        if self.is_full() {
            return isect.volume();
        }
        runs(&self.region, isect)
            .flat_map(word_masks)
            .map(|(w, mask)| (self.filled[w] & mask).count_ones() as u64)
            .sum()
    }

    /// Fold the filled elements of `isect`, row-major.
    pub fn fold(&self, isect: &Region) -> Summary {
        with_elem!(self.data.dtype(), T => {
            let data = T::slice(&self.data).expect("dispatched on the block's dtype");
            let full = self.is_full();
            runs(&self.region, isect).fold(Summary::EMPTY, |acc, run| {
                if full {
                    data[run].iter().fold(acc, |acc, v| acc.push(v.to_f64()))
                } else {
                    run.filter(|&i| self.is_set(i))
                        .fold(acc, |acc, i| acc.push(data[i].to_f64()))
                }
            })
        })
    }

    /// The fold of the whole block — computed once, then O(1).
    pub fn summary(&self) -> &Summary {
        self.summary.get_or_init(|| self.fold(&self.region))
    }

    /// Copy the elements of `isect` into `dst`, a buffer laid out
    /// row-major over the box `dst_box`. `None` when the block holds
    /// another element type than `T`.
    pub fn copy_to<T: Elem>(&self, isect: &Region, dst: &mut [T], dst_box: &Region) -> Option<()> {
        let src = T::slice(&self.data)?;
        bpio::copy_runs(src, runs(&self.region, isect), dst, runs(dst_box, isect));
        Some(())
    }
}

/// The published (immutable) face of one shard.
pub(crate) type BlockMap = HashMap<BlockKey, Arc<Block>>;

/// Pad shard state to a cache line so adjacent shard locks do not
/// false-share under concurrent writers.
#[repr(align(64))]
struct CacheAligned<T>(T);

/// An atomically-swappable published snapshot. Writers replace the
/// `Arc` wholesale (brief exclusive access at commit/evict only);
/// readers clone the `Arc` under a shared guard held for a pointer
/// copy. Put traffic never touches this cell at all.
pub(crate) struct SnapCell<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> SnapCell<T> {
    fn new(value: T) -> Self {
        SnapCell {
            slot: RwLock::new(Arc::new(value)),
        }
    }

    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.read())
    }

    fn store(&self, value: Arc<T>) {
        *self.slot.write() = value;
    }
}

struct Shard {
    /// Uncommitted, mutable blocks. The only lock `put` takes.
    pending: Mutex<HashMap<BlockKey, Block>>,
    /// Committed, frozen blocks, published as a whole map.
    committed: SnapCell<BlockMap>,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            pending: Mutex::new(HashMap::new()),
            committed: SnapCell::new(BlockMap::new()),
        }
    }
}

/// All shards plus the publication epoch.
pub(crate) struct ShardIndex {
    shards: Box<[CacheAligned<Shard>]>,
    /// Bumped on every publication (commit or evict). A snapshot
    /// records the epoch it was taken at; two snapshots with the same
    /// epoch are identical.
    epoch: AtomicU64,
    /// Put-side lock contention: how often a pending-plane lock was
    /// found held (the per-shard contention signal in the obs registry).
    contended: obs::Counter,
}

impl ShardIndex {
    pub fn new(n_shards: usize) -> Self {
        ShardIndex {
            shards: (0..n_shards)
                .map(|_| CacheAligned(Shard::default()))
                .collect(),
            epoch: AtomicU64::new(0),
            contended: obs::global().counter("dataspaces.shard_contended", &[]),
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Lock one shard's pending plane, counting contention.
    fn lock_pending(&self, shard: usize) -> MutexGuard<'_, HashMap<BlockKey, Block>> {
        let m = &self.shards[shard].0.pending;
        match m.try_lock() {
            Some(g) => g,
            None => {
                self.contended.inc();
                m.lock()
            }
        }
    }

    /// Run `f` on the pending block `key` of `shard`, creating it first
    /// if absent. A put that lands on an already-committed block
    /// (put-after-commit, made visible by a later re-commit) starts from
    /// a private clone of the committed block, so the published snapshot
    /// stays frozen.
    pub fn with_block<R>(
        &self,
        shard: usize,
        key: BlockKey,
        mk: impl FnOnce() -> Block,
        f: impl FnOnce(&mut Block) -> R,
    ) -> R {
        let mut pending = self.lock_pending(shard);
        let block = pending.entry(key).or_insert_with(|| {
            match self.shards[shard].0.committed.load().get(&key) {
                Some(frozen) => Block::clone(frozen),
                None => mk(),
            }
        });
        f(block)
    }

    /// Freeze and publish every pending block of `(var, version)`:
    /// the epoch/snapshot publication point. Returns the number of
    /// blocks moved. Publication is copy-on-write per shard — map
    /// clones share untouched blocks by `Arc` — and serialized by the
    /// shard's pending lock, so concurrent commits of different
    /// variables cannot lose each other's blocks.
    pub fn publish(&self, var: u32, version: u64) -> usize {
        let mut moved = 0;
        for shard in self.shards.iter() {
            let shard = &shard.0;
            let mut pending = shard.pending.lock();
            let keys: Vec<BlockKey> = pending
                .keys()
                .filter(|(v, ver, _)| *v == var && *ver == version)
                .copied()
                .collect();
            if keys.is_empty() {
                continue;
            }
            let mut map = BlockMap::clone(&shard.committed.load());
            for key in keys {
                let mut block = pending.remove(&key).expect("key just enumerated");
                block.summary = OnceLock::new();
                map.insert(key, Arc::new(block));
                moved += 1;
            }
            shard.committed.store(Arc::new(map));
        }
        self.bump_epoch();
        moved
    }

    /// Drop every block (pending and committed) of `var` with a version
    /// below `keep_from`. In-flight snapshots keep the old maps alive —
    /// eviction is publication of a smaller map, not destruction.
    pub fn evict_before(&self, var: u32, keep_from: u64) -> usize {
        let mut dropped = 0;
        for shard in self.shards.iter() {
            let shard = &shard.0;
            let mut pending = shard.pending.lock();
            let before = pending.len();
            pending.retain(|(v, ver, _), _| *v != var || *ver >= keep_from);
            dropped += before - pending.len();
            let committed = shard.committed.load();
            let doomed = committed
                .keys()
                .filter(|(v, ver, _)| *v == var && *ver < keep_from)
                .count();
            if doomed > 0 {
                let mut map = BlockMap::clone(&committed);
                map.retain(|(v, ver, _), _| *v != var || *ver >= keep_from);
                shard.committed.store(Arc::new(map));
                dropped += doomed;
            }
        }
        self.bump_epoch();
        dropped
    }

    /// Clone every shard's committed snapshot: the admission step of a
    /// lock-free committed read. One shared-guarded pointer copy per
    /// shard; no put-side lock is touched.
    pub fn snapshot(&self) -> Vec<Arc<BlockMap>> {
        self.shards.iter().map(|s| s.0.committed.load()).collect()
    }

    /// Distinct blocks held per shard (pending ∪ committed) — the
    /// first-level load-balance view.
    pub fn block_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                let shard = &s.0;
                let pending = shard.pending.lock();
                let committed = shard.committed.load();
                let shadowed = pending
                    .keys()
                    .filter(|k| committed.contains_key(*k))
                    .count();
                pending.len() + committed.len() - shadowed
            })
            .collect()
    }

    /// Hold every shard's pending (put-side) lock — test hook proving
    /// committed reads take none of them.
    #[cfg(test)]
    pub fn lock_all_pending(&self) -> Vec<MutexGuard<'_, HashMap<BlockKey, Block>>> {
        self.shards.iter().map(|s| s.0.pending.lock()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(corner: u64, len: u64) -> Region {
        Region::new(vec![corner], vec![len])
    }

    #[test]
    fn publish_moves_pending_to_committed_and_bumps_epoch() {
        let idx = ShardIndex::new(2);
        let e0 = idx.epoch();
        idx.with_block(
            0,
            (1, 0, 0),
            || Block::new(region(0, 4), Dtype::F64),
            |b| b.mark_region(&region(0, 1)),
        );
        assert!(idx.snapshot()[0].is_empty(), "pending is not published");
        assert_eq!(idx.publish(1, 0), 1);
        assert!(idx.epoch() > e0);
        assert!(idx.snapshot()[0].contains_key(&(1, 0, 0)));
        // Re-publishing with nothing pending moves nothing.
        assert_eq!(idx.publish(1, 0), 0);
    }

    #[test]
    fn snapshots_survive_eviction() {
        let idx = ShardIndex::new(1);
        idx.with_block(
            0,
            (1, 0, 0),
            || Block::new(region(0, 4), Dtype::F64),
            |b| b.mark_region(&region(1, 1)),
        );
        idx.publish(1, 0);
        let snap = idx.snapshot();
        assert_eq!(idx.evict_before(1, 5), 1);
        assert!(idx.snapshot()[0].is_empty(), "new readers see the eviction");
        assert!(
            snap[0].contains_key(&(1, 0, 0)),
            "old snapshot still holds the block"
        );
    }

    #[test]
    fn put_after_commit_clones_the_frozen_block() {
        let idx = ShardIndex::new(1);
        idx.with_block(
            0,
            (1, 0, 0),
            || Block::new(region(0, 4), Dtype::F64),
            |b| b.mark_region(&region(0, 1)),
        );
        idx.publish(1, 0);
        // A later put unshares; the published block is untouched.
        idx.with_block(
            0,
            (1, 0, 0),
            || unreachable!("committed block must seed the clone"),
            |b| {
                assert!(b.is_set(0), "clone carries the committed fill");
                b.mark_region(&region(2, 1));
            },
        );
        assert_eq!(idx.snapshot()[0][&(1, 0, 0)].n_filled, 1);
        idx.publish(1, 0);
        assert_eq!(idx.snapshot()[0][&(1, 0, 0)].n_filled, 2);
    }
}
