//! In-transit filtering and reduction of particle data.
//!
//! PreDatA's operator classes include "filtering and reduction" (§III):
//! drop the data end users will never read *before* it costs disk
//! bandwidth and capacity. This operator keeps only particles whose
//! attributes fall inside configured ranges (e.g. a spatial region of
//! interest or a velocity band) and writes the surviving subset, reporting
//! the achieved reduction factor.
//!
//! The compute-side pass attaches each chunk's per-attribute min/max, so
//! staging ranks can skip mapping chunks that cannot intersect the
//! predicate at all — the same characteristics-based pruning the BP
//! format applies at read time.

use std::sync::Arc;

use ffs::Value;

use crate::agg::Aggregates;
use crate::chunk::PackedChunk;
use crate::op::{ChunkMapper, ComputeSideOp, MapCtx, OpCtx, OpResult, StreamOp, Tagged};
use crate::schema::{particles_of, PARTICLE_ATTRS, PARTICLE_WIDTH};

/// One predicate clause: attribute `column` must lie in `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeClause {
    pub column: usize,
    pub lo: f64,
    pub hi: f64,
}

impl RangeClause {
    pub fn new(column: usize, lo: f64, hi: f64) -> Self {
        assert!(column < PARTICLE_WIDTH && lo <= hi);
        RangeClause { column, lo, hi }
    }

    fn matches(&self, row: &[f64]) -> bool {
        (self.lo..=self.hi).contains(&row[self.column])
    }
}

/// Conjunctive range filter over particle rows.
pub struct FilterOp {
    pub clauses: Vec<RangeClause>,
    kept: Vec<f64>,
    seen_rows: u64,
    chunks_skipped: u64,
    chunks_total: u64,
}

impl FilterOp {
    pub fn new(clauses: Vec<RangeClause>) -> Self {
        assert!(!clauses.is_empty());
        FilterOp {
            clauses,
            kept: Vec::new(),
            seen_rows: 0,
            chunks_skipped: 0,
            chunks_total: 0,
        }
    }
}

/// Can any row of a chunk with the attached min/max match the clauses?
fn chunk_may_match(clauses: &[RangeClause], attrs: Option<&ffs::AttrList>) -> bool {
    let Some(attrs) = attrs else { return true };
    for c in clauses {
        let name = PARTICLE_ATTRS[c.column];
        let (lo, hi) = (
            attrs.get_f64(&format!("min_{name}")),
            attrs.get_f64(&format!("max_{name}")),
        );
        if let (Some(lo), Some(hi)) = (lo, hi) {
            if hi < c.lo || lo > c.hi {
                return false;
            }
        }
    }
    true
}

/// Per-chunk filtering pass. Emits exactly one item per chunk carrying
/// `[rows_seen u64][chunk_skipped u64][surviving rows f64…]`; the op's
/// `combine` absorbs these locally (filtering needs no shuffle), in
/// canonical chunk order so the surviving-row order is worker-invariant.
struct FilterMapper {
    clauses: Vec<RangeClause>,
}

impl ChunkMapper for FilterMapper {
    fn map_chunk(&self, chunk: &PackedChunk, ctx: &MapCtx) -> Vec<Tagged> {
        let Some(rows) = particles_of(&chunk.pg) else {
            // Non-particle chunks still count toward the chunk totals.
            return vec![Tagged::new(0, encode_chunk(0, false, &[]))];
        };
        let seen = (rows.len() / PARTICLE_WIDTH) as u64;
        // Characteristics-based chunk pruning from the aggregated attrs.
        let attrs = ctx.agg.and_then(|a| a.attrs_of(chunk.writer_rank as usize));
        if !chunk_may_match(&self.clauses, attrs) {
            return vec![Tagged::new(0, encode_chunk(seen, true, &[]))];
        }
        // Upper bound: every row survives. One reservation instead of
        // doubling growth while the filter streams through the chunk.
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows.chunks_exact(PARTICLE_WIDTH) {
            if self.clauses.iter().all(|c| c.matches(row)) {
                kept.extend_from_slice(row);
            }
        }
        vec![Tagged::new(0, encode_chunk(seen, false, &kept))]
    }
}

fn encode_chunk(seen: u64, skipped: bool, kept: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(16 + kept.len() * 8);
    bytes.extend_from_slice(&seen.to_le_bytes());
    bytes.extend_from_slice(&(skipped as u64).to_le_bytes());
    for v in kept {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

impl ComputeSideOp for FilterOp {
    fn partial_calculate(&self, pg: &bpio::ProcessGroup, out: &mut ffs::AttrList) {
        super::kit::attach_particle_stats(pg, out);
    }
}

impl StreamOp for FilterOp {
    fn name(&self) -> &str {
        "filter"
    }

    fn initialize(&mut self, _agg: &Aggregates, _ctx: &OpCtx) {
        self.kept.clear();
        self.seen_rows = 0;
        self.chunks_skipped = 0;
        self.chunks_total = 0;
    }

    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        Arc::new(FilterMapper {
            clauses: self.clauses.clone(),
        })
    }

    fn combine(&mut self, items: Vec<Tagged>) -> Vec<Tagged> {
        // Absorb the per-chunk summaries locally — survivors stay on this
        // rank; nothing goes through the shuffle.
        for item in items {
            self.chunks_total += 1;
            let b = &item.bytes;
            self.seen_rows += u64::from_le_bytes(b[..8].try_into().unwrap());
            self.chunks_skipped += u64::from_le_bytes(b[8..16].try_into().unwrap());
            for w in b[16..].chunks_exact(8) {
                self.kept.push(f64::from_le_bytes(w.try_into().unwrap()));
            }
        }
        Vec::new()
    }

    fn reduce(&mut self, _tag: u64, _items: Vec<bytes::Bytes>, _ctx: &OpCtx) {}

    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        let kept_rows = (self.kept.len() / PARTICLE_WIDTH) as u64;
        let total: u64 = ctx.comm.allreduce(self.seen_rows, |a, b| a + b);
        let total_kept: u64 = ctx.comm.allreduce(kept_rows, |a, b| a + b);
        let mut result = OpResult::new("filter");
        result.values.set("rows_seen", Value::U64(self.seen_rows));
        result.values.set("rows_kept", Value::U64(kept_rows));
        result.values.set("total_kept", Value::U64(total_kept));
        result
            .values
            .set("chunks_skipped", Value::U64(self.chunks_skipped));
        result.values.set(
            "reduction_factor",
            Value::F64(if total_kept > 0 {
                total as f64 / total_kept as f64
            } else {
                f64::INFINITY
            }),
        );

        if kept_rows > 0 {
            let path = ctx.out_dir.join(format!(
                "filtered_step{}_rank{}.bp",
                ctx.step,
                ctx.my_rank()
            ));
            let def = crate::schema::gtc_particle_group();
            let mut pg = bpio::ProcessGroup::new("gtc_particles", ctx.my_rank() as u64, ctx.step);
            pg.write(&def, "np", bpio::DataArray::U64(vec![kept_rows]))
                .unwrap();
            pg.write(
                &def,
                "particles",
                bpio::DataArray::F64(std::mem::take(&mut self.kept)),
            )
            .unwrap();
            super::kit::write_output(&mut result, path, &[], &pg);
        }
        self.kept = Vec::new();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::complete_pipeline;
    use crate::schema::make_particle_pg;
    use minimpi::World;

    fn rows_with_x(xs: &[f64]) -> Vec<f64> {
        xs.iter()
            .enumerate()
            .flat_map(|(i, &x)| vec![x, 0., 0., 0., 0., 1.0, 0.0, i as f64])
            .collect()
    }

    #[test]
    fn clause_matching() {
        let c = RangeClause::new(0, -1.0, 1.0);
        assert!(c.matches(&[0.0, 9., 9., 9., 9., 9., 9., 9.]));
        assert!(c.matches(&[1.0, 9., 9., 9., 9., 9., 9., 9.]));
        assert!(!c.matches(&[1.01, 9., 9., 9., 9., 9., 9., 9.]));
    }

    #[test]
    fn filters_and_reports_reduction() {
        let out = World::run(1, |comm| {
            let mut op = FilterOp::new(vec![RangeClause::new(0, 2.0, 5.0)]);
            let dir = std::env::temp_dir().join(format!("filter-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 1,
                agg: None,
            };
            op.initialize(&Aggregates::local_only(&[]), &ctx);
            let chunk = PackedChunk::new(make_particle_pg(
                0,
                0,
                rows_with_x(&[0.0, 2.0, 3.5, 5.0, 7.0, 9.0]),
            ));
            let mapped = op.map(&chunk, &ctx);
            let res = complete_pipeline(&mut op, mapped, &ctx);
            // Verify the written subset.
            let mut r = bpio::BpReader::open(&res.files[0]).unwrap();
            let kept = r.read_local("particles", 0, comm.rank() as u64);
            std::fs::remove_dir_all(&dir).ok();
            (
                res.values.get_u64("rows_kept"),
                res.values.get_f64("reduction_factor"),
                kept.ok().and_then(|d| d.as_f64().map(|v| v.to_vec())),
            )
        });
        let (kept, factor, data) = &out[0];
        assert_eq!(*kept, Some(3)); // 2.0, 3.5, 5.0
        assert_eq!(*factor, Some(2.0));
        let xs: Vec<f64> = data
            .as_ref()
            .unwrap()
            .chunks_exact(PARTICLE_WIDTH)
            .map(|r| r[0])
            .collect();
        assert_eq!(xs, vec![2.0, 3.5, 5.0]);
    }

    #[test]
    fn characteristic_pruning_skips_disjoint_chunks() {
        let out = World::run(1, |comm| {
            let mut op = FilterOp::new(vec![RangeClause::new(0, 100.0, 200.0)]);
            let dir = std::env::temp_dir();
            // Aggregates carry the chunk's min/max: x ∈ [0, 9].
            let mut a = ffs::AttrList::new();
            a.set("min_x", Value::F64(0.0));
            a.set("max_x", Value::F64(9.0));
            let agg = Aggregates::local_only(&[(0, a)]);
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 1,
                agg: None,
            }
            .with_agg(&agg);
            op.initialize(&agg, &ctx);
            let chunk = PackedChunk::new(make_particle_pg(0, 0, rows_with_x(&[1.0, 5.0, 9.0])));
            let mapped = op.map(&chunk, &ctx);
            let res = complete_pipeline(&mut op, mapped, &ctx);
            (
                res.values.get_u64("chunks_skipped"),
                res.values.get_u64("rows_kept"),
            )
        });
        assert_eq!(out[0], (Some(1), Some(0)));
    }

    #[test]
    fn empty_result_writes_no_file() {
        let out = World::run(1, |comm| {
            let mut op = FilterOp::new(vec![RangeClause::new(2, 50.0, 60.0)]);
            let dir = std::env::temp_dir();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 1,
                agg: None,
            };
            op.initialize(&Aggregates::local_only(&[]), &ctx);
            let chunk = PackedChunk::new(make_particle_pg(0, 0, rows_with_x(&[1.0])));
            let mapped = op.map(&chunk, &ctx);
            let res = complete_pipeline(&mut op, mapped, &ctx);
            res.files.len()
        });
        assert_eq!(out[0], 0);
    }
}
