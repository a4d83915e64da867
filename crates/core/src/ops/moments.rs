//! Streaming statistical moments (mean / variance / skewness) per
//! particle attribute.
//!
//! The paper motivates PreDatA with "statistical measures that can be
//! used to validate the veracity of the ongoing simulation, gain
//! understanding of the simulation progress, and potentially, take early
//! action when the simulation operates improperly". This operator
//! computes exact first three central moments over the full dump in one
//! streaming pass, using the numerically-stable pairwise-merge update
//! (Chan/Golub/LeVeque) so chunk-at-a-time accumulation and the
//! cross-rank reduce are both well-conditioned.

use std::sync::Arc;

use ffs::Value;

use crate::agg::Aggregates;
use crate::chunk::PackedChunk;
use crate::op::{ChunkMapper, ComputeSideOp, MapCtx, OpCtx, OpResult, StreamOp, Tagged};
use crate::schema::{particles_of, PARTICLE_ATTRS, PARTICLE_WIDTH};

/// Partial moment state: count, mean, and 2nd/3rd central sums.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MomentState {
    pub n: f64,
    pub mean: f64,
    pub m2: f64,
    pub m3: f64,
}

impl MomentState {
    /// Accumulate one observation (Welford with third moment).
    pub fn push(&mut self, x: f64) {
        let n1 = self.n;
        self.n += 1.0;
        let delta = x - self.mean;
        let delta_n = delta / self.n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m3 += term1 * delta_n * (self.n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Merge two partials (pairwise update; exact up to FP rounding).
    pub fn merge(a: MomentState, b: MomentState) -> MomentState {
        if a.n == 0.0 {
            return b;
        }
        if b.n == 0.0 {
            return a;
        }
        let n = a.n + b.n;
        let delta = b.mean - a.mean;
        let delta2 = delta * delta;
        let mean = a.mean + delta * b.n / n;
        let m2 = a.m2 + b.m2 + delta2 * a.n * b.n / n;
        let m3 = a.m3
            + b.m3
            + delta2 * delta * a.n * b.n * (a.n - b.n) / (n * n)
            + 3.0 * delta * (a.n * b.m2 - b.n * a.m2) / n;
        MomentState { n, mean, m2, m3 }
    }

    pub fn variance(&self) -> f64 {
        if self.n < 2.0 {
            0.0
        } else {
            self.m2 / self.n
        }
    }

    /// Standardized skewness; 0 for degenerate distributions.
    pub fn skewness(&self) -> f64 {
        let var = self.variance();
        if self.n < 3.0 || var <= 0.0 {
            0.0
        } else {
            (self.m3 / self.n) / var.powf(1.5)
        }
    }

    fn to_bytes(self) -> Vec<u8> {
        [self.n, self.mean, self.m2, self.m3]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect()
    }

    fn from_bytes(b: &[u8]) -> Option<MomentState> {
        if b.len() < 32 {
            return None;
        }
        let f = |i: usize| f64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
        Some(MomentState {
            n: f(0),
            mean: f(1),
            m2: f(2),
            m3: f(3),
        })
    }
}

/// The in-transit statistics operation: one [`MomentState`] per attribute
/// column, reduced across the pipeline.
pub struct MomentsOp {
    pub columns: Vec<usize>,
    owned: Vec<(u64, MomentState)>,
}

/// Per-chunk Welford pass: one [`MomentState`] per configured column,
/// emitted as one tagged item per column. The op's `combine` merges the
/// per-chunk states in canonical chunk order, so results don't depend on
/// how many workers produced them.
struct MomentsMapper {
    columns: Vec<usize>,
}

impl ChunkMapper for MomentsMapper {
    fn map_chunk(&self, chunk: &PackedChunk, _ctx: &MapCtx) -> Vec<Tagged> {
        let Some(rows) = particles_of(&chunk.pg) else {
            return Vec::new();
        };
        let mut states = vec![MomentState::default(); self.columns.len()];
        for row in rows.chunks_exact(PARTICLE_WIDTH) {
            for (i, &c) in self.columns.iter().enumerate() {
                states[i].push(row[c]);
            }
        }
        states
            .into_iter()
            .enumerate()
            .map(|(i, st)| Tagged::new(self.columns[i] as u64, st.to_bytes()))
            .collect()
    }
}

impl MomentsOp {
    pub fn new(columns: Vec<usize>) -> Self {
        assert!(!columns.is_empty());
        assert!(columns.iter().all(|&c| c < PARTICLE_WIDTH));
        MomentsOp {
            columns,
            owned: Vec::new(),
        }
    }

    /// All eight attributes.
    pub fn all_attrs() -> Self {
        Self::new((0..PARTICLE_WIDTH).collect())
    }
}

impl ComputeSideOp for MomentsOp {
    fn partial_calculate(&self, pg: &bpio::ProcessGroup, out: &mut ffs::AttrList) {
        if let Some(np) = crate::schema::particle_count(pg) {
            out.set("np", Value::U64(np));
        }
    }
}

impl StreamOp for MomentsOp {
    fn name(&self) -> &str {
        "moments"
    }

    fn initialize(&mut self, _agg: &Aggregates, _ctx: &OpCtx) {
        self.owned.clear();
    }

    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        Arc::new(MomentsMapper {
            columns: self.columns.clone(),
        })
    }

    fn combine(&mut self, items: Vec<Tagged>) -> Vec<Tagged> {
        // Merge per-chunk states in item (= canonical chunk) order: the
        // single place floating-point accumulation order is fixed.
        let mut acc = vec![MomentState::default(); self.columns.len()];
        for item in items {
            let idx = self
                .columns
                .iter()
                .position(|&c| c as u64 == item.tag)
                .expect("tag is a configured column");
            if let Some(st) = MomentState::from_bytes(&item.bytes) {
                acc[idx] = MomentState::merge(acc[idx], st);
            }
        }
        acc.into_iter()
            .enumerate()
            .map(|(i, st)| Tagged::new(self.columns[i] as u64, st.to_bytes()))
            .collect()
    }

    fn reduce(&mut self, tag: u64, items: Vec<bytes::Bytes>, _ctx: &OpCtx) {
        let merged = items
            .iter()
            .filter_map(|b| MomentState::from_bytes(b))
            .fold(MomentState::default(), MomentState::merge);
        self.owned.push((tag, merged));
    }

    fn finalize(&mut self, _ctx: &OpCtx) -> OpResult {
        let mut result = OpResult::new("moments");
        for (tag, st) in self.owned.drain(..) {
            let name = PARTICLE_ATTRS[tag as usize];
            result.values.set(format!("count_{name}"), Value::F64(st.n));
            result
                .values
                .set(format!("mean_{name}"), Value::F64(st.mean));
            result
                .values
                .set(format!("var_{name}"), Value::F64(st.variance()));
            result
                .values
                .set(format!("skew_{name}"), Value::F64(st.skewness()));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::complete_pipeline;
    use crate::schema::make_particle_pg;
    use minimpi::World;

    fn naive_moments(xs: &[f64]) -> (f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m3 = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        (mean, var, if var > 0.0 { m3 / var.powf(1.5) } else { 0.0 })
    }

    #[test]
    fn welford_matches_naive() {
        let xs: Vec<f64> = (0..500)
            .map(|i| ((i as f64) * 0.37).sin() * 4.0 + 1.0)
            .collect();
        let mut st = MomentState::default();
        for &x in &xs {
            st.push(x);
        }
        let (mean, var, skew) = naive_moments(&xs);
        assert!((st.mean - mean).abs() < 1e-10);
        assert!((st.variance() - var).abs() < 1e-10);
        assert!((st.skewness() - skew).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..37).map(|i| -3.0 + i as f64).collect();
        let mut sa = MomentState::default();
        a.iter().for_each(|&x| sa.push(x));
        let mut sb = MomentState::default();
        b.iter().for_each(|&x| sb.push(x));
        let merged = MomentState::merge(sa, sb);
        let mut whole = MomentState::default();
        a.iter().chain(&b).for_each(|&x| whole.push(x));
        assert!((merged.mean - whole.mean).abs() < 1e-10);
        assert!((merged.m2 - whole.m2).abs() < 1e-7);
        assert!((merged.m3 - whole.m3).abs() < 1e-6);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = MomentState::default();
        [1.0, 2.0, 4.0].iter().for_each(|&x| s.push(x));
        assert_eq!(MomentState::merge(s, MomentState::default()), s);
        assert_eq!(MomentState::merge(MomentState::default(), s), s);
    }

    /// Rank r's chunk rows, as a pure function — so the serial reference
    /// and each pipeline rank regenerate them instead of cloning a shared
    /// per-rank table into the closure.
    fn chunk_rows(r: usize) -> Vec<f64> {
        (0..40)
            .flat_map(|i| {
                let x = ((r * 40 + i) as f64 * 0.11).cos() * 2.0;
                vec![x, 0., 0., 0., 0., 0., r as f64, i as f64]
            })
            .collect()
    }

    #[test]
    fn pipeline_moments_match_reference() {
        // 3 pipeline ranks each map one chunk; verify the reduced mean
        // and variance of column 0 against a serial pass.
        let reference: Vec<f64> = (0..3)
            .flat_map(|r| {
                chunk_rows(r)
                    .chunks_exact(PARTICLE_WIDTH)
                    .map(|row| row[0])
                    .collect::<Vec<f64>>()
            })
            .collect();
        let (r_mean, r_var, _) = naive_moments(&reference);

        let out = World::run(3, move |comm| {
            let mut op = MomentsOp::new(vec![0]);
            let dir = std::env::temp_dir();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 3,
                agg: None,
            };
            op.initialize(&Aggregates::local_only(&[]), &ctx);
            let chunk = PackedChunk::new(make_particle_pg(
                comm.rank() as u64,
                0,
                chunk_rows(comm.rank()),
            ));
            let mapped = op.map(&chunk, &ctx);
            let res = complete_pipeline(&mut op, mapped, &ctx);
            (res.values.get_f64("mean_x"), res.values.get_f64("var_x"))
        });
        // Column 0's tag lands on rank 0.
        let (mean, var) = out[0];
        assert!((mean.unwrap() - r_mean).abs() < 1e-10);
        assert!((var.unwrap() - r_var).abs() < 1e-10);
        assert_eq!(out[1], (None, None));
    }
}
