//! 1-D histograms over particle attributes (GTC online monitoring).
//!
//! Compute-side pass: each writer attaches its local particle count and
//! per-attribute min/max. Staging aggregation turns those into global
//! ranges, so every staging rank bins into identical, globally-correct
//! histograms without a second pass over the data. Each attribute's bins
//! are reduced on the staging rank owning its tag; `finalize` exposes the
//! counts as values and writes one small BP file per owned attribute —
//! the "8 MB histogram files" whose synchronous write cost the paper
//! measures at 0.25–7 s in the In-Compute-Node configuration.

use ffs::{AttrList, Value};

use std::sync::Arc;

use crate::agg::Aggregates;
use crate::chunk::PackedChunk;
use crate::op::{ChunkMapper, ComputeSideOp, MapCtx, OpCtx, OpResult, StreamOp, Tagged};
use crate::schema::{particles_of, PARTICLE_ATTRS, PARTICLE_WIDTH};

fn bin_index(lo: f64, hi: f64, bins: usize, v: f64) -> usize {
    if hi <= lo {
        return 0;
    }
    (((v - lo) / (hi - lo) * bins as f64) as usize).min(bins - 1)
}

/// Configuration + per-step state of the 1-D histogram operation.
pub struct HistogramOp {
    /// Attribute columns to histogram.
    pub columns: Vec<usize>,
    /// Bin count per histogram.
    pub bins: usize,
    /// When false, `map` emits one intermediate per (chunk × column) and
    /// the combine pass is skipped — the ablation baseline showing how
    /// much local combining shrinks the shuffle.
    pub combine_enabled: bool,
    /// Global (min, max) per configured column, from `initialize`.
    ranges: Vec<(f64, f64)>,
    /// Reduced bins for columns this rank owns.
    owned: Vec<(u64, Vec<u64>)>,
}

/// Per-chunk binning half of [`HistogramOp`]: snapshots the columns,
/// bin count, and global ranges frozen by `initialize`.
struct HistogramMapper {
    columns: Vec<usize>,
    bins: usize,
    ranges: Vec<(f64, f64)>,
}

impl ChunkMapper for HistogramMapper {
    fn map_chunk(&self, chunk: &PackedChunk, _ctx: &MapCtx) -> Vec<Tagged> {
        let Some(rows) = particles_of(&chunk.pg) else {
            return Vec::new();
        };
        let mut per_chunk = vec![vec![0u64; self.bins]; self.columns.len()];
        for row in rows.chunks_exact(PARTICLE_WIDTH) {
            for (i, &c) in self.columns.iter().enumerate() {
                let (lo, hi) = self.ranges[i];
                per_chunk[i][bin_index(lo, hi, self.bins, row[c])] += 1;
            }
        }
        per_chunk
            .into_iter()
            .enumerate()
            .map(|(i, bins)| {
                let mut bytes = Vec::with_capacity(bins.len() * 8);
                for b in bins {
                    bytes.extend_from_slice(&b.to_le_bytes());
                }
                Tagged::new(self.columns[i] as u64, bytes)
            })
            .collect()
    }
}

impl HistogramOp {
    /// Histogram the given attribute columns with `bins` bins each.
    pub fn new(columns: Vec<usize>, bins: usize) -> Self {
        assert!(bins > 0 && !columns.is_empty());
        assert!(columns.iter().all(|&c| c < PARTICLE_WIDTH));
        HistogramOp {
            columns,
            bins,
            combine_enabled: true,
            ranges: Vec::new(),
            owned: Vec::new(),
        }
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
        let (lo, hi) = self.ranges[col_idx];
        bin_index(lo, hi, self.bins, v)
    }
}

/// Attribute keys used on fetch requests.
pub fn attach_particle_stats(pg: &bpio::ProcessGroup, out: &mut AttrList) {
    let Some(rows) = particles_of(pg) else { return };
    out.set("np", Value::U64((rows.len() / PARTICLE_WIDTH) as u64));
    // One row-major pass, eight running (min, max) lanes.
    let mut lo = [f64::INFINITY; PARTICLE_WIDTH];
    let mut hi = [f64::NEG_INFINITY; PARTICLE_WIDTH];
    for row in rows.chunks_exact(PARTICLE_WIDTH) {
        for c in 0..PARTICLE_WIDTH {
            lo[c] = lo[c].min(row[c]);
            hi[c] = hi[c].max(row[c]);
        }
    }
    for (c, name) in PARTICLE_ATTRS.iter().enumerate() {
        if lo[c] <= hi[c] {
            out.set(format!("min_{name}"), Value::F64(lo[c]));
            out.set(format!("max_{name}"), Value::F64(hi[c]));
        }
    }
}

impl ComputeSideOp for HistogramOp {
    fn partial_calculate(&self, pg: &bpio::ProcessGroup, out: &mut AttrList) {
        attach_particle_stats(pg, out);
    }
}

impl StreamOp for HistogramOp {
    fn name(&self) -> &str {
        "histogram"
    }

    fn initialize(&mut self, agg: &Aggregates, _ctx: &OpCtx) {
        self.ranges = self
            .columns
            .iter()
            .map(|&c| {
                let name = PARTICLE_ATTRS[c];
                let lo = agg.min_f64(&format!("min_{name}")).unwrap_or(0.0);
                let hi = agg.max_f64(&format!("max_{name}")).unwrap_or(1.0);
                (lo, hi)
            })
            .collect();
        self.owned.clear();
    }

    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        Arc::new(HistogramMapper {
            columns: self.columns.clone(),
            bins: self.bins,
            ranges: self.ranges.clone(),
        })
    }

    fn combine(&mut self, items: Vec<Tagged>) -> Vec<Tagged> {
        if !self.combine_enabled {
            // Ablation baseline: ship per-chunk bins through the shuffle.
            return items;
        }
        // Sum per-chunk bins into one item per column (u64 addition is
        // order-independent, so this is deterministic regardless of how
        // the per-chunk outputs were produced).
        let mut sums = vec![vec![0u64; self.bins]; self.columns.len()];
        for item in items {
            let idx = self
                .columns
                .iter()
                .position(|&c| c as u64 == item.tag)
                .expect("tag is a configured column");
            for (i, w) in item.bytes.chunks_exact(8).enumerate() {
                sums[idx][i] += u64::from_le_bytes(w.try_into().unwrap());
            }
        }
        sums.into_iter()
            .enumerate()
            .map(|(i, bins)| {
                let mut bytes = Vec::with_capacity(bins.len() * 8);
                for b in bins {
                    bytes.extend_from_slice(&b.to_le_bytes());
                }
                Tagged::new(self.columns[i] as u64, bytes)
            })
            .collect()
    }

    fn reduce(&mut self, tag: u64, items: Vec<bytes::Bytes>, _ctx: &OpCtx) {
        let mut sum = vec![0u64; self.bins];
        for item in items {
            for (i, w) in item.chunks_exact(8).enumerate() {
                sum[i] += u64::from_le_bytes(w.try_into().unwrap());
            }
        }
        self.owned.push((tag, sum));
    }

    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        let mut result = OpResult {
            op: "histogram".into(),
            ..Default::default()
        };
        for (tag, bins) in self.owned.drain(..) {
            let name = PARTICLE_ATTRS[tag as usize];
            result
                .values
                .set(format!("hist_{name}"), Value::ArrU64(bins.clone()));
            // Persist as a small BP file (one per owned attribute).
            let path = ctx.out_dir.join(format!("hist_{name}_step{}.bp", ctx.step));
            if let Ok(mut w) = bpio::BpWriter::create(&path) {
                let def = bpio::GroupDef::new(
                    "histogram",
                    vec![
                        bpio::VarDef::scalar("nbins", bpio::Dtype::U64),
                        bpio::VarDef::local(
                            "counts",
                            bpio::Dtype::U64,
                            vec![bpio::Dim::r("nbins")],
                        ),
                    ],
                )
                .expect("static group");
                let mut pg = bpio::ProcessGroup::new("histogram", ctx.my_rank() as u64, ctx.step);
                pg.write(&def, "nbins", bpio::DataArray::U64(vec![self.bins as u64]))
                    .unwrap();
                pg.write(&def, "counts", bpio::DataArray::U64(bins))
                    .unwrap();
                if w.append_pg(&pg).is_ok() && w.finish().is_ok() {
                    result.files.push(path);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::make_particle_pg;
    use minimpi::World;

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

    /// The eight-pass reference: one strided pass per attribute.
    fn stats_by_column(rows: &[f64], out: &mut AttrList) {
        out.set("np", Value::U64((rows.len() / PARTICLE_WIDTH) as u64));
        for (c, name) in PARTICLE_ATTRS.iter().enumerate() {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for v in rows.chunks_exact(PARTICLE_WIDTH).map(|r| r[c]) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if lo <= hi {
                out.set(format!("min_{name}"), Value::F64(lo));
                out.set(format!("max_{name}"), Value::F64(hi));
            }
        }
    }

    #[test]
    fn particle_stats_match_the_per_column_passes() {
        const NAN: f64 = f64::NAN;
        let chunks: [Vec<f64>; 5] = [
            vec![],
            vec![3.0, -0.0, NAN, 1e300, -1e-300, 0.0, 2.0, 7.0],
            // A NaN first, last and alone in a column; -0.0 against 0.0.
            [
                [NAN, 1.0, NAN, -0.0, 0.0, 5.0, 0.0, 0.0],
                [2.0, NAN, NAN, 0.0, -0.0, 5.0, 1.0, 1.0],
                [-2.0, 3.0, NAN, -0.0, 0.0, NAN, 1.0, 2.0],
            ]
            .concat(),
            vec![NAN; 8],
            (0..800).map(|i| ((i * 37) % 101) as f64 - 50.0).collect(),
        ];
        for rows in chunks {
            let (mut got, mut expect) = (AttrList::new(), AttrList::new());
            attach_particle_stats(&make_particle_pg(0, 0, rows.clone()), &mut got);
            stats_by_column(&rows, &mut expect);
            // Encoded form: same keys in the same order, values to the bit.
            assert_eq!(got.to_bytes().unwrap(), expect.to_bytes().unwrap());
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
        op.ranges = vec![(5.0, 5.0)];
        assert_eq!(op.bin_of(0, 5.0), 0);
    }

    #[test]
    fn out_of_range_clamps_to_last_bin() {
        let mut op = HistogramOp::new(vec![0], 4);
        op.ranges = vec![(0.0, 4.0)];
        assert_eq!(op.bin_of(0, 99.0), 3);
        assert_eq!(op.bin_of(0, 4.0), 3);
        assert_eq!(op.bin_of(0, 0.0), 0);
    }
}
