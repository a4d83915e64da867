//! Binned counts over particle attributes: GTC's 1-D histograms (online
//! monitoring) and 2-D histograms (parallel-coordinate visualization,
//! after Jones et al.) are one operator, [`BinnedCountOp`], whose keys
//! have one or two attribute columns.
//!
//! Compute-side pass: each writer attaches its local particle count and
//! per-attribute min/max. Staging aggregation turns those into global
//! ranges, so every staging rank bins into identical, globally-correct
//! histograms without a second pass over the data. Each key's cells are
//! reduced on the staging rank owning its tag; `finalize` exposes the
//! counts as values and writes one small BP file per owned key — the
//! "8 MB histogram files" whose synchronous write cost the paper measures
//! at 0.25–7 s in the In-Compute-Node configuration.
//!
//! Both forms are computation-dominant with tiny communication; two axes
//! mean quadratically more cells and heavier binning math, which is why
//! the paper reports higher compute times for the 2-D form (Fig. 7c/f)
//! and stores roughly 4× more result bytes.

use std::sync::Arc;

use bpio::{DataArray, Dim, Dtype, GroupDef, ProcessGroup, VarDef};
use ffs::{AttrList, Value};

use super::kit::{attach_particle_stats, bin_index, global_range, write_output};
use crate::agg::Aggregates;
use crate::chunk::PackedChunk;
use crate::op::{ChunkMapper, ComputeSideOp, MapCtx, OpCtx, OpResult, StageRows, StreamOp, Tagged};
use crate::schema::{particles_of, PARTICLE_ATTRS, PARTICLE_WIDTH};

/// Configuration + per-step state of a binned-count operation whose keys
/// have `AXES` attribute columns each.
pub struct BinnedCountOp<const AXES: usize> {
    /// Attribute columns of each key: the column to histogram, or the
    /// (column, column) pair to correlate.
    pub(crate) keys: Vec<[usize; AXES]>,
    /// Bins per axis (cells per key = bins^AXES).
    pub(crate) bins: usize,
    /// When false, `map` emits one intermediate per (chunk × key) and
    /// the combine pass is skipped — the ablation baseline showing how
    /// much local combining shrinks the shuffle.
    pub(crate) combine_enabled: bool,
    /// Shuffle tag of each key, which decides the rank that owns its
    /// file: the column itself for one axis, the key's position for two.
    tags: Vec<u64>,
    /// Operator (and group) name, value-key and file-name prefix, name
    /// of the bin-count scalar in the file.
    names: [&'static str; 3],
    /// The operator's rows in the `obs` fold, after `names[0]`.
    rows: StageRows,
    /// Global (min, max) per key and axis, from `initialize`.
    ranges: Vec<[(f64, f64); AXES]>,
    /// Reduced cells for keys this rank owns.
    owned: Vec<(u64, Vec<u64>)>,
}

/// 1-D histograms over attribute columns.
pub type HistogramOp = BinnedCountOp<1>;

/// 2-D histograms over attribute pairs.
pub type Histogram2dOp = BinnedCountOp<2>;

/// Per-chunk binning half of [`BinnedCountOp`]: snapshots the keys, their
/// tags, the bin count, and the global ranges frozen by `initialize`.
struct CountsMapper<const AXES: usize> {
    keys: Vec<[usize; AXES]>,
    tags: Vec<u64>,
    bins: usize,
    ranges: Vec<[(f64, f64); AXES]>,
}

/// Counts on the wire: little-endian `u64`s.
fn counts_to_bytes(counts: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(counts.len() * 8);
    for c in counts {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    bytes
}

/// Add the counts encoded in `bytes` onto `sum`, cell by cell.
fn add_counts(sum: &mut [u64], bytes: &[u8]) {
    for (cell, w) in sum.iter_mut().zip(bytes.chunks_exact(8)) {
        *cell += u64::from_le_bytes(w.try_into().expect("8-byte window"));
    }
}

/// One tagged item per key.
fn tagged(tags: &[u64], counts: &[Vec<u64>]) -> Vec<Tagged> {
    tags.iter()
        .zip(counts)
        .map(|(&tag, cells)| Tagged::new(tag, counts_to_bytes(cells)))
        .collect()
}

impl<const AXES: usize> ChunkMapper for CountsMapper<AXES> {
    fn map_chunk(&self, chunk: &PackedChunk, _ctx: &MapCtx) -> Vec<Tagged> {
        let Some(rows) = particles_of(&chunk.pg) else {
            return Vec::new();
        };
        let mut per_chunk = vec![vec![0u64; self.bins.pow(AXES as u32)]; self.keys.len()];
        for row in rows.chunks_exact(PARTICLE_WIDTH) {
            for (i, key) in self.keys.iter().enumerate() {
                // The row's cell under this key, row-major over its axes.
                let mut cell = 0;
                for (&c, &(lo, hi)) in key.iter().zip(&self.ranges[i]) {
                    cell = cell * self.bins + bin_index(lo, hi, self.bins, row[c]);
                }
                per_chunk[i][cell] += 1;
            }
        }
        tagged(&self.tags, &per_chunk)
    }
}

impl<const AXES: usize> BinnedCountOp<AXES> {
    fn with_keys(
        keys: Vec<[usize; AXES]>,
        tags: Vec<u64>,
        bins: usize,
        names: [&'static str; 3],
        rows: StageRows,
    ) -> Self {
        assert!(bins > 0 && !keys.is_empty());
        assert!(keys.iter().flatten().all(|&c| c < PARTICLE_WIDTH));
        BinnedCountOp {
            keys,
            bins,
            combine_enabled: true,
            tags,
            names,
            rows,
            ranges: Vec::new(),
            owned: Vec::new(),
        }
    }

    /// Position in `keys` of the key a tag stands for.
    fn key_of(&self, tag: u64) -> usize {
        let key = self.tags.iter().position(|&t| t == tag);
        key.expect("tag is a configured key")
    }
}

impl BinnedCountOp<1> {
    /// Histogram the given attribute columns with `bins` bins each.
    pub fn new(columns: Vec<usize>, bins: usize) -> Self {
        let tags = columns.iter().map(|&c| c as u64).collect();
        let keys = columns.into_iter().map(|c| [c]).collect();
        let names = ["histogram", "hist", "nbins"];
        Self::with_keys(keys, tags, bins, names, crate::stage_rows!("histogram"))
    }

    /// Ablation variant: ship per-chunk bins through the shuffle instead
    /// of combining locally first.
    pub fn without_combine(columns: Vec<usize>, bins: usize) -> Self {
        let mut op = Self::new(columns, bins);
        op.combine_enabled = false;
        op
    }

    /// All eight particle attributes.
    pub fn all_attrs(bins: usize) -> Self {
        Self::new((0..PARTICLE_WIDTH).collect(), bins)
    }

    #[cfg(test)]
    fn bin_of(&self, col_idx: usize, v: f64) -> usize {
        let [(lo, hi)] = self.ranges[col_idx];
        bin_index(lo, hi, self.bins, v)
    }
}

impl BinnedCountOp<2> {
    /// Correlate the given (column, column) pairs with `bins` bins per
    /// axis.
    pub fn new(pairs: Vec<(usize, usize)>, bins: usize) -> Self {
        let tags = (0..pairs.len() as u64).collect();
        let keys = pairs.into_iter().map(|(a, b)| [a, b]).collect();
        let names = ["histogram2d", "hist2d", "bins"];
        Self::with_keys(keys, tags, bins, names, crate::stage_rows!("histogram2d"))
    }
}

impl<const AXES: usize> ComputeSideOp for BinnedCountOp<AXES> {
    fn partial_calculate(&self, pg: &ProcessGroup, out: &mut AttrList) {
        attach_particle_stats(pg, out);
    }
}

impl<const AXES: usize> StreamOp for BinnedCountOp<AXES> {
    fn name(&self) -> &str {
        self.names[0]
    }

    fn stage_rows(&self) -> StageRows {
        self.rows
    }

    fn initialize(&mut self, agg: &Aggregates, _ctx: &OpCtx) {
        let ranges = |key: &[usize; AXES]| key.map(|c| global_range(agg, c));
        self.ranges = self.keys.iter().map(ranges).collect();
        self.owned.clear();
    }

    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        Arc::new(CountsMapper {
            keys: self.keys.clone(),
            tags: self.tags.clone(),
            bins: self.bins,
            ranges: self.ranges.clone(),
        })
    }

    fn combine(&mut self, items: Vec<Tagged>) -> Vec<Tagged> {
        if !self.combine_enabled {
            // Ablation baseline: ship per-chunk bins through the shuffle.
            return items;
        }
        // Sum per-chunk cells into one item per key (u64 addition is
        // order-independent, so this is deterministic regardless of how
        // the per-chunk outputs were produced).
        let mut sums = vec![vec![0u64; self.bins.pow(AXES as u32)]; self.keys.len()];
        for item in items {
            add_counts(&mut sums[self.key_of(item.tag)], &item.bytes);
        }
        tagged(&self.tags, &sums)
    }

    fn reduce(&mut self, tag: u64, items: Vec<bytes::Bytes>, _ctx: &OpCtx) {
        let mut sum = vec![0u64; self.bins.pow(AXES as u32)];
        for item in items {
            add_counts(&mut sum, &item);
        }
        self.owned.push((tag, sum));
    }

    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        let [op, prefix, bins_var] = self.names;
        let mut result = OpResult::new(op);
        let def = GroupDef::new(vec![
            VarDef::scalar(bins_var, Dtype::U64),
            VarDef::local("counts", Dtype::U64, vec![Dim::r(bins_var); AXES]),
        ])
        .expect("static group");
        for (tag, cells) in std::mem::take(&mut self.owned) {
            let name = self.keys[self.key_of(tag)]
                .map(|c| PARTICLE_ATTRS[c])
                .join("_");
            result
                .values
                .set(format!("{prefix}_{name}"), Value::ArrU64(cells.clone()));
            // Persist as a small BP file (one per owned key).
            let path = ctx
                .out_dir
                .join(format!("{prefix}_{name}_step{}.bp", ctx.step));
            let mut pg = ProcessGroup::new(op, ctx.my_rank() as u64, ctx.step);
            pg.write(&def, bins_var, DataArray::U64(vec![self.bins as u64]))
                .expect("declared scalar");
            pg.write(&def, "counts", DataArray::U64(cells))
                .expect("bins^AXES cells");
            write_output(ctx, &mut result, path, &[], &pg);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::make_particle_pg;
    use minimpi::World;
    use proptest::prelude::*;

    fn particle(vals: [f64; 8]) -> Vec<f64> {
        vals.to_vec()
    }

    fn chunk(rank: u64, rows: Vec<f64>) -> PackedChunk {
        PackedChunk::new(make_particle_pg(rank, 0, rows))
    }

    #[test]
    fn partial_calculate_attaches_global_stat_inputs() {
        let op = HistogramOp::new(vec![0], 4);
        let pg = make_particle_pg(
            0,
            0,
            [
                particle([1.0, 0., 0., 0., 0., 0., 0., 0.]),
                particle([-2.0, 0., 0., 0., 0., 0., 0., 1.]),
            ]
            .concat(),
        );
        let mut attrs = AttrList::new();
        op.partial_calculate(&pg, &mut attrs);
        assert_eq!(attrs.get_u64("np"), Some(2));
        assert_eq!(attrs.get_f64("min_x"), Some(-2.0));
        assert_eq!(attrs.get_f64("max_x"), Some(1.0));
    }

    /// The values a careless bin formula gets wrong, for rows and for
    /// range ends alike (so `hi <= lo` and infinite ranges come up often).
    const ODD: [f64; 8] = [f64::NAN, -0.0, 0.0, -1.5, 2.5, 7.0, f64::INFINITY, -1e300];

    fn arb_rows(max_rows: usize) -> impl Strategy<Value = Vec<f64>> {
        (0..=max_rows).prop_flat_map(|n| {
            let cell = prop_oneof![prop::sample::select(ODD.to_vec()), -9.0f64..9.0];
            prop::collection::vec(cell, n * PARTICLE_WIDTH..=n * PARTICLE_WIDTH)
        })
    }

    /// The per-element reference: every row, every key, one cell each,
    /// `bin_index` once per axis.
    fn naive_counts<const AXES: usize>(
        keys: &[[usize; AXES]],
        ranges: &[(f64, f64)],
        bins: usize,
        chunks: &[Vec<f64>],
    ) -> Vec<Vec<u64>> {
        let mut counts = vec![vec![0u64; bins.pow(AXES as u32)]; keys.len()];
        for row in chunks.iter().flat_map(|c| c.chunks_exact(PARTICLE_WIDTH)) {
            for (k, key) in keys.iter().enumerate() {
                let b = key.map(|c| bin_index(ranges[c].0, ranges[c].1, bins, row[c]));
                let cell = if AXES == 1 { b[0] } else { b[0] * bins + b[1] };
                counts[k][cell] += 1;
            }
        }
        counts
    }

    /// Map every chunk, combine, group by tag (the shuffle of one rank)
    /// and reduce: the items that went into the shuffle and the reduced
    /// cells in key order.
    fn run_counts<const AXES: usize>(
        mut op: BinnedCountOp<AXES>,
        ranges: &[(f64, f64)],
        chunks: &[Vec<f64>],
    ) -> (usize, Vec<Vec<u64>>) {
        let mut attrs = AttrList::new();
        for (name, (lo, hi)) in PARTICLE_ATTRS.iter().zip(ranges) {
            attrs.set(format!("min_{name}"), Value::F64(*lo));
            attrs.set(format!("max_{name}"), Value::F64(*hi));
        }
        let (_world, comms) = World::with_size(1);
        let ctx = OpCtx {
            comm: &comms[0],
            out_dir: std::path::Path::new(""),
            step: 0,
            n_compute: chunks.len(),
            agg: None,
        };
        op.initialize(&Aggregates::local_only(&[(0, attrs)]), &ctx);
        let mut mapped = Vec::new();
        for (r, rows) in chunks.iter().enumerate() {
            mapped.extend(op.map(&chunk(r as u64, rows.clone()), &ctx));
        }
        let shuffled = op.combine(mapped);
        let n_shuffled = shuffled.len();
        let mut grouped = std::collections::BTreeMap::<u64, Vec<bytes::Bytes>>::new();
        for item in shuffled {
            grouped.entry(item.tag).or_default().push(item.bytes);
        }
        for (tag, items) in grouped {
            op.reduce(tag, items, &ctx);
        }
        let mut owned = std::mem::take(&mut op.owned);
        owned.sort_by_key(|(tag, _)| op.key_of(*tag));
        (
            n_shuffled,
            owned.into_iter().map(|(_, cells)| cells).collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn counts_equal_the_per_element_reference(
            chunks in prop::collection::vec(arb_rows(30), 1..=4),
            ends in prop::collection::vec(prop::sample::select(ODD[1..].to_vec()), 16..=16),
            first_column in 0usize..PARTICLE_WIDTH,
            pairs in prop::collection::vec((0usize..PARTICLE_WIDTH, 0usize..PARTICLE_WIDTH), 1..=3),
            bins in 1usize..=6,
        ) {
            let ranges: Vec<(f64, f64)> = ends.chunks_exact(2).map(|e| (e[0], e[1])).collect();
            let columns: Vec<usize> = (first_column..PARTICLE_WIDTH).step_by(3).collect();
            let keys: Vec<[usize; 1]> = columns.iter().map(|&c| [c]).collect();
            let expect = naive_counts(&keys, &ranges, bins, &chunks);
            let (n, got) = run_counts(HistogramOp::new(columns.clone(), bins), &ranges, &chunks);
            prop_assert_eq!((n, &got), (keys.len(), &expect));
            // The ablation ships every chunk's cells and reduces to the same.
            let raw = HistogramOp::without_combine(columns, bins);
            let (n, got) = run_counts(raw, &ranges, &chunks);
            prop_assert_eq!((n, &got), (keys.len() * chunks.len(), &expect));

            let keys: Vec<[usize; 2]> = pairs.iter().map(|&(a, b)| [a, b]).collect();
            let expect = naive_counts(&keys, &ranges, bins, &chunks);
            let (n, got) = run_counts(Histogram2dOp::new(pairs, bins), &ranges, &chunks);
            prop_assert_eq!((n, &got), (keys.len(), &expect));
        }
    }

    #[test]
    fn end_to_end_counts_match_naive() {
        // 2 pipeline ranks, each mapping one chunk; column 0 in [0, 8).
        let out = World::run(2, |comm| {
            let mut op = HistogramOp::new(vec![0], 4);
            let dir = std::env::temp_dir().join(format!("hist-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 2,
                agg: None,
            };

            let mut a0 = AttrList::new();
            a0.set("min_x", Value::F64(0.0));
            a0.set("max_x", Value::F64(8.0));
            let agg = Aggregates::local_only(&[(0, a0)]);
            op.initialize(&agg, &ctx);

            // Rank r maps values r*4 + [0,1,2,3] in column 0.
            let rows: Vec<f64> = (0..4)
                .flat_map(|i| {
                    particle([
                        (comm.rank() * 4 + i) as f64,
                        0.,
                        0.,
                        0.,
                        0.,
                        0.,
                        0.,
                        i as f64,
                    ])
                })
                .collect();
            let mapped = op.map(&chunk(comm.rank() as u64, rows), &ctx);
            let result = crate::op::complete_pipeline(&mut op, mapped, &ctx);
            result.values.get("hist_x").cloned()
        });
        // Tag 0 (column x) is owned by rank 0; values 0..8 over 4 bins of
        // width 2 → 2 per bin.
        assert_eq!(out[0], Some(Value::ArrU64(vec![2, 2, 2, 2])));
        assert_eq!(out[1], None);
    }

    #[test]
    fn degenerate_range_goes_to_bin_zero() {
        let mut op = HistogramOp::new(vec![2], 8);
        op.ranges = vec![[(5.0, 5.0)]];
        assert_eq!(op.bin_of(0, 5.0), 0);
    }

    #[test]
    fn out_of_range_clamps_to_last_bin() {
        let mut op = HistogramOp::new(vec![0], 4);
        op.ranges = vec![[(0.0, 4.0)]];
        assert_eq!(op.bin_of(0, 99.0), 3);
        assert_eq!(op.bin_of(0, 4.0), 3);
        assert_eq!(op.bin_of(0, 0.0), 0);
    }

    #[test]
    fn marginals_match_1d() {
        // One rank, one chunk: the 2-D histogram's row sums must equal a
        // 1-D histogram of the first attribute.
        let out = World::run(1, |comm| {
            let mut op = Histogram2dOp::new(vec![(0, 1)], 2);
            let dir = std::env::temp_dir().join(format!("h2d-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 1,
                agg: None,
            };
            let mut a = ffs::AttrList::new();
            a.set("min_x", Value::F64(0.0));
            a.set("max_x", Value::F64(4.0));
            a.set("min_y", Value::F64(0.0));
            a.set("max_y", Value::F64(4.0));
            op.initialize(&Aggregates::local_only(&[(0, a)]), &ctx);
            // Particles at (x, y): (0,0), (1,3), (3,1), (3,3).
            let rows: Vec<f64> = [(0., 0.), (1., 3.), (3., 1.), (3., 3.)]
                .iter()
                .flat_map(|&(x, y)| vec![x, y, 0., 0., 0., 0., 0., 0.])
                .collect();
            let mapped = op.map(&PackedChunk::new(make_particle_pg(0, 0, rows)), &ctx);
            let r = crate::op::complete_pipeline(&mut op, mapped, &ctx);
            r.values.get("hist2d_x_y").cloned()
        });
        // 2x2 bins of width 2: (0,0)→(0,0); (1,3)→(0,1); (3,1)→(1,0); (3,3)→(1,1).
        assert_eq!(out[0], Some(Value::ArrU64(vec![1, 1, 1, 1])));
    }

    #[test]
    fn bins_quadratic_in_axis_count() {
        let op = Histogram2dOp::new(vec![(0, 1)], 16);
        assert_eq!(op.bins * op.bins, 256);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_columns() {
        Histogram2dOp::new(vec![(0, 99)], 4);
    }
}
