//! Domain geometry: regions, block decomposition, shard hashing.

use crate::error::DsError;

/// An axis-aligned box in the global domain: `[corner, corner+extent)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    pub corner: Vec<u64>,
    pub extent: Vec<u64>,
}

impl Region {
    pub fn new(corner: Vec<u64>, extent: Vec<u64>) -> Self {
        assert_eq!(corner.len(), extent.len());
        Region { corner, extent }
    }

    /// The whole box `[0, dims)`.
    pub fn whole(dims: &[u64]) -> Self {
        Region {
            corner: vec![0; dims.len()],
            extent: dims.to_vec(),
        }
    }

    pub(crate) fn rank(&self) -> usize {
        self.corner.len()
    }

    /// Element count. Panics when the product overflows: a region that
    /// passed [`DsConfig::check`] lies inside a domain whose own volume
    /// fits, so only an unvalidated region gets here.
    pub fn volume(&self) -> u64 {
        checked_volume(&self.extent).expect("region volume overflows u64")
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.extent.contains(&0)
    }

    /// Intersection, or `None` when disjoint/empty — or when either
    /// box's `corner + extent` overflows, which is no box at all.
    pub(crate) fn intersect(&self, other: &Region) -> Option<Region> {
        debug_assert_eq!(self.rank(), other.rank());
        let mut corner = Vec::with_capacity(self.rank());
        let mut extent = Vec::with_capacity(self.rank());
        for d in 0..self.rank() {
            let lo = self.corner[d].max(other.corner[d]);
            let hi = (self.corner[d].checked_add(self.extent[d])?)
                .min(other.corner[d].checked_add(other.extent[d])?);
            if lo >= hi {
                return None;
            }
            corner.push(lo);
            extent.push(hi - lo);
        }
        Some(Region { corner, extent })
    }
}

/// Product of `extent`, or `None` when it overflows.
fn checked_volume(extent: &[u64]) -> Option<u64> {
    extent.iter().try_fold(1u64, |v, &e| v.checked_mul(e))
}

/// Static configuration of one space.
#[derive(Debug, Clone)]
pub struct DsConfig {
    /// Global domain extents (the application's discretization).
    pub domain: Vec<u64>,
    /// Block extents — the unit of distribution. Smaller blocks spread
    /// load better but cost more index arithmetic per operation.
    pub(crate) block: Vec<u64>,
    /// Number of server shards (staging processes running DataSpaces).
    pub n_shards: usize,
}

impl DsConfig {
    /// Checked constructor.
    pub fn new(domain: Vec<u64>, block: Vec<u64>, n_shards: usize) -> Self {
        assert!(!domain.is_empty() && domain.len() == block.len());
        assert!(block.iter().all(|&b| b > 0) && domain.iter().all(|&d| d > 0));
        assert!(n_shards > 0);
        // Bounds the volume of every region `check` accepts.
        assert!(
            checked_volume(&domain).is_some(),
            "domain volume overflows u64"
        );
        DsConfig {
            domain,
            block,
            n_shards,
        }
    }

    /// The paper's GTC particle-index domain: `2·10⁶ × 256` over (local
    /// id, rank), scaled by `scale` for laptop-sized runs.
    pub fn gtc_particles(n_ranks: u64, ids_per_rank: u64, n_shards: usize) -> Self {
        let block_ids = (ids_per_rank / 32).max(1);
        let block_ranks = (n_ranks / 16).max(1);
        DsConfig::new(
            vec![ids_per_rank, n_ranks],
            vec![block_ids, block_ranks],
            n_shards,
        )
    }

    pub(crate) fn rank(&self) -> usize {
        self.domain.len()
    }

    /// Validate a region against the domain.
    pub fn check(&self, region: &Region) -> Result<(), DsError> {
        if region.rank() != self.rank() {
            return Err(DsError::RankMismatch {
                domain: self.rank(),
                region: region.rank(),
            });
        }
        for d in 0..self.rank() {
            // `checked_add`: a corner near `u64::MAX` must not wrap into
            // the domain.
            match region.corner[d].checked_add(region.extent[d]) {
                Some(end) if end <= self.domain[d] => {}
                _ => return Err(DsError::OutOfDomain),
            }
        }
        Ok(())
    }

    /// The block region for grid coordinate `g` (clipped to the domain).
    pub(crate) fn block_region(&self, g: &[u64]) -> Region {
        let corner: Vec<u64> = g.iter().zip(&self.block).map(|(gi, b)| gi * b).collect();
        let extent: Vec<u64> = (0..self.rank())
            .map(|d| (self.block[d]).min(self.domain[d] - corner[d]))
            .collect();
        Region { corner, extent }
    }

    /// Grid coordinates of all blocks intersecting `region`.
    pub(crate) fn blocks_of(&self, region: &Region) -> Vec<Vec<u64>> {
        if region.is_empty() {
            return Vec::new();
        }
        let lo: Vec<u64> = (0..self.rank())
            .map(|d| region.corner[d] / self.block[d])
            .collect();
        let hi: Vec<u64> = (0..self.rank())
            .map(|d| (region.corner[d] + region.extent[d] - 1) / self.block[d])
            .collect();
        let mut out = Vec::new();
        let mut cur = lo.clone();
        loop {
            out.push(cur.clone());
            // Odometer increment.
            let mut d = self.rank();
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                cur[d] += 1;
                if cur[d] <= hi[d] {
                    break;
                }
                cur[d] = lo[d];
            }
        }
    }

    /// Linear index of grid coordinate `g`, row-major over [`grid`]
    /// (the allocation-free block key used by the sharded index).
    ///
    /// [`grid`]: DsConfig::grid
    pub(crate) fn grid_index(&self, g: &[u64]) -> u64 {
        let mut idx = 0;
        for (d, gd) in g.iter().enumerate().take(self.rank()) {
            idx = idx * self.domain[d].div_ceil(self.block[d]) + gd;
        }
        idx
    }

    /// The shard owning a block: FNV hash of its grid coordinate — the
    /// first level of load balancing (even data spread, no master).
    pub(crate) fn shard_of(&self, g: &[u64]) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &c in g {
            for b in c.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (h % self.n_shards as u64) as usize
    }

    /// The shard holding the *directory* entry for a variable — the
    /// second level of load balancing (index traffic spread by name).
    pub(crate) fn dir_shard_of(&self, var: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in var.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.n_shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DsConfig {
        DsConfig::new(vec![100, 40], vec![32, 16], 4)
    }

    #[test]
    fn region_volume_and_intersection() {
        let a = Region::new(vec![0, 0], vec![10, 10]);
        let b = Region::new(vec![5, 5], vec![10, 10]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, Region::new(vec![5, 5], vec![5, 5]));
        assert_eq!(i.volume(), 25);
        let c = Region::new(vec![20, 20], vec![1, 1]);
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn empty_region_is_disjoint_from_everything() {
        let e = Region::new(vec![5, 5], vec![0, 3]);
        assert!(e.is_empty());
        assert!(Region::whole(&[10, 10]).intersect(&e).is_none());
    }

    #[test]
    fn grid_covers_domain_with_clipping() {
        let c = cfg();
        // Last block in dim 0 is clipped to 4 wide (100 - 3*32).
        let last = c.block_region(&[3, 2]);
        assert_eq!(last.corner, vec![96, 32]);
        assert_eq!(last.extent, vec![4, 8]);
    }

    #[test]
    fn blocks_of_enumerates_intersecting_blocks() {
        let c = cfg();
        let r = Region::new(vec![30, 10], vec![40, 10]); // dims 0: blocks 0..2; dim 1: blocks 0..1
        let blocks = c.blocks_of(&r);
        assert_eq!(blocks.len(), 3 * 2);
        for g in &blocks {
            assert!(c.block_region(g).intersect(&r).is_some());
        }
        assert!(c.blocks_of(&Region::new(vec![0, 0], vec![0, 5])).is_empty());
    }

    #[test]
    fn whole_domain_blocks_count() {
        let c = cfg();
        assert_eq!(c.blocks_of(&Region::whole(&c.domain)).len(), 12);
    }

    #[test]
    fn check_validates_rank_and_bounds() {
        let c = cfg();
        assert!(c.check(&Region::new(vec![0], vec![5])).is_err());
        assert!(c.check(&Region::new(vec![90, 0], vec![20, 1])).is_err());
        assert!(c.check(&Region::new(vec![90, 0], vec![10, 40])).is_ok());
    }

    /// Hostile corner: `corner + extent` wraps to a small number and must
    /// still be out of domain.
    #[test]
    fn check_rejects_wrapping_corners() {
        let c = cfg();
        for r in [
            Region::new(vec![u64::MAX - 1, 0], vec![2, 1]),
            Region::new(vec![0, u64::MAX], vec![1, 1]),
            Region::new(vec![1, 0], vec![u64::MAX, 1]),
        ] {
            assert_eq!(c.check(&r), Err(DsError::OutOfDomain), "{r:?}");
        }
    }

    /// A hostile subscription region reaches `intersect` unchecked: a
    /// wrapping end must not alias a box inside the domain.
    #[test]
    fn intersect_refuses_wrapping_corners() {
        let whole = Region::whole(&[100, 40]);
        for r in [
            Region::new(vec![u64::MAX - 1, 0], vec![12, 1]),
            Region::new(vec![5, 1], vec![1, u64::MAX]),
        ] {
            assert_eq!(whole.intersect(&r), None, "{r:?}");
            assert_eq!(r.intersect(&whole), None, "{r:?}");
        }
        // An end of exactly `u64::MAX` is still a box.
        let edge = Region::new(vec![u64::MAX - 4], vec![4]);
        assert_eq!(edge.intersect(&edge), Some(edge.clone()));
    }

    /// `2^32 · 2^32` wraps to 0 in release arithmetic — an "empty" box
    /// that any zero-length payload would match.
    #[test]
    #[should_panic(expected = "region volume overflows")]
    fn volume_refuses_an_overflowing_product() {
        Region::new(vec![0, 0], vec![1 << 32, 1 << 32]).volume();
    }

    #[test]
    #[should_panic(expected = "domain volume overflows")]
    fn domain_volume_must_fit() {
        DsConfig::new(vec![1 << 32, 1 << 32], vec![64, 64], 2);
    }

    #[test]
    fn shard_hash_spreads_blocks() {
        let c = DsConfig::new(vec![1024, 1024], vec![32, 32], 8);
        let mut counts = vec![0usize; 8];
        for g in c.blocks_of(&Region::whole(&c.domain)) {
            counts[c.shard_of(&g)] += 1;
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 1024);
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max < min * 2, "load balance within 2x: {counts:?}");
    }

    #[test]
    fn grid_index_is_row_major_and_dense() {
        let c = cfg(); // grid 4 × 3
        let mut seen = Vec::new();
        for g in c.blocks_of(&Region::whole(&c.domain)) {
            seen.push(c.grid_index(&g));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<u64>>());
        assert_eq!(c.grid_index(&[3, 2]), 3 * 3 + 2);
    }

    #[test]
    fn gtc_preset_shapes() {
        let c = DsConfig::gtc_particles(256, 2_000_000, 64);
        assert_eq!(c.domain, vec![2_000_000, 256]);
        assert_eq!(c.rank(), 2);
    }
}
