//! Array layout re-organization (Pixie3D).
//!
//! The In-Compute-Node configuration writes one small chunk of each global
//! array per process, scattering every array across thousands of extents;
//! reading one global array back then costs thousands of seeks (paper
//! Fig. 11, "unmerged"). This operation merges chunks *in transit*: the
//! global space of every variable is split into one slab per pipeline
//! rank along the slowest dimension; `map` routes each chunk piece to its
//! slab owner, `reduce` copies pieces into contiguous slab buffers, and
//! `finalize` writes each slab as one large contiguous extent ("merged").
//!
//! A payload byte is copied twice on its way from the decoded chunk to
//! the file: `map` frames each piece with one slice copy, `reduce` copies
//! the piece's rows from that frame into the slab, and `finalize` lends
//! the slabs to the writer. The slabs themselves live as long as the
//! operator: `initialize` re-zeroes them, so a step allocates no slab.

use std::sync::Arc;

use bpio::{BoxRuns, DataArray, Dtype};
use ffs::Value;

use crate::agg::Aggregates;
use crate::chunk::PackedChunk;
use crate::op::{ChunkMapper, ComputeSideOp, MapCtx, OpCtx, OpResult, StreamOp, Tagged};

/// Merge the named 3-D global variables into per-rank contiguous slabs.
pub struct ReorgOp {
    /// Variables to merge (must be global chunks in incoming PGs).
    pub vars: Vec<String>,
    /// Global extents, discovered in `initialize` from attached attrs.
    global: Vec<u64>,
    /// This rank's slab `[lo, hi)` along dimension 0.
    slab: (u64, u64),
    /// Slab buffers, one per variable, kept across steps. Between
    /// `initialize` and `finalize` each reads 0.0 wherever no piece of
    /// this step has landed.
    buffers: Vec<Vec<f64>>,
}

/// A mapped piece: seven little-endian `u64` words — variable index,
/// global corner (d0, d1, d2), extents (n0, n1, n2) — then the piece's
/// `f64` payload, row-major.
const PIECE_HEADER: usize = 7 * 8;

impl ReorgOp {
    pub fn new(vars: Vec<String>) -> Self {
        assert!(!vars.is_empty());
        ReorgOp {
            vars,
            global: Vec::new(),
            slab: (0, 0),
            buffers: Vec::new(),
        }
    }

    /// Pixie3D's eight fields.
    pub fn pixie3d() -> Self {
        Self::new(
            crate::schema::PIXIE_FIELDS
                .iter()
                .map(|s| s.to_string())
                .collect(),
        )
    }

    fn slab_of(d0: u64, n_ranks: usize, total_d0: u64) -> usize {
        // Inverse of `slab_range` (whose bounds are floor(total·r/n)):
        // start from the proportional estimate, then correct to the slab
        // actually containing d0.
        let total = total_d0.max(1);
        let mut r = ((d0 as u128 * n_ranks as u128 / total as u128) as usize).min(n_ranks - 1);
        while r > 0 && d0 < Self::slab_range(r, n_ranks, total_d0).0 {
            r -= 1;
        }
        while r + 1 < n_ranks && d0 >= Self::slab_range(r, n_ranks, total_d0).1 {
            r += 1;
        }
        r
    }

    fn slab_range(rank: usize, n_ranks: usize, total_d0: u64) -> (u64, u64) {
        let lo = (total_d0 as u128 * rank as u128 / n_ranks as u128) as u64;
        let hi = (total_d0 as u128 * (rank as u128 + 1) / n_ranks as u128) as u64;
        (lo, hi)
    }
}

/// Attach the global extents so `initialize` can size slabs before any
/// bulk data arrives.
impl ComputeSideOp for ReorgOp {
    fn partial_calculate(&self, pg: &bpio::ProcessGroup, out: &mut ffs::AttrList) {
        if let Some(v) = self.vars.first().and_then(|n| pg.var(n)) {
            if v.global.len() == 3 {
                out.set("gx", Value::U64(v.global[0]));
                out.set("gy", Value::U64(v.global[1]));
                out.set("gz", Value::U64(v.global[2]));
            }
        }
    }
}

impl StreamOp for ReorgOp {
    fn name(&self) -> &str {
        "reorg"
    }

    fn initialize(&mut self, agg: &Aggregates, ctx: &OpCtx) {
        let g = |k: &str| agg.max_f64(k).unwrap_or(0.0) as u64;
        self.global = vec![g("gx"), g("gy"), g("gz")];
        self.slab = Self::slab_range(ctx.my_rank(), ctx.n_ranks(), self.global[0]);
        let slab_elems = ((self.slab.1 - self.slab.0) * self.global[1] * self.global[2]) as usize;
        // Re-zero, don't reallocate: whatever the last step left behind
        // (its slabs come back from `finalize`) must not show through
        // where this step delivers no piece — a skipped chunk.
        self.buffers.resize_with(self.vars.len(), Vec::new);
        for slab in &mut self.buffers {
            slab.clear();
            slab.resize(slab_elems, 0.0);
        }
    }

    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        struct ReorgMapper {
            vars: Vec<String>,
            global: Vec<u64>,
        }
        impl ChunkMapper for ReorgMapper {
            fn map_chunk(&self, chunk: &PackedChunk, ctx: &MapCtx) -> Vec<Tagged> {
                let n_ranks = ctx.n_ranks();
                let mut out = Vec::new();
                for (vi, var) in self.vars.iter().enumerate() {
                    let Some(v) = chunk.pg.var(var) else { continue };
                    if v.data.dtype() != Dtype::F64 || v.global.len() != 3 {
                        continue;
                    }
                    let data = v.data.as_le_bytes();
                    // Split the chunk along dim 0 by destination slab.
                    let (o, l) = (&v.offset, &v.local);
                    let mut d0 = o[0];
                    while d0 < o[0] + l[0] {
                        let dest = ReorgOp::slab_of(d0, n_ranks, self.global[0]);
                        let (_, slab_hi) = ReorgOp::slab_range(dest, n_ranks, self.global[0]);
                        let hi = (o[0] + l[0]).min(slab_hi);
                        // Rows d0..hi of the chunk go to `dest` as one piece.
                        let rows_per_d0 = (l[1] * l[2]) as usize;
                        let start = ((d0 - o[0]) as usize) * rows_per_d0;
                        let end = ((hi - o[0]) as usize) * rows_per_d0;
                        let mut bytes = Vec::with_capacity(PIECE_HEADER + (end - start) * 8);
                        for v in [vi as u64, d0, o[1], o[2], hi - d0, l[1], l[2]] {
                            bytes.extend_from_slice(&v.to_le_bytes());
                        }
                        bytes.extend_from_slice(&data[start * 8..end * 8]);
                        out.push(Tagged::new(dest as u64, bytes));
                        d0 = hi;
                    }
                }
                out
            }
        }
        Arc::new(ReorgMapper {
            vars: self.vars.clone(),
            global: self.global.clone(),
        })
    }

    /// Tags are destination ranks directly.
    fn partition(&self, tag: u64, n_ranks: usize) -> usize {
        (tag as usize).min(n_ranks - 1)
    }

    fn reduce(&mut self, _tag: u64, items: Vec<bytes::Bytes>, _ctx: &OpCtx) {
        let slab_corner = [self.slab.0, 0, 0];
        let slab_extent = [self.slab.1 - self.slab.0, self.global[1], self.global[2]];
        for item in items {
            // The header is read where it lies and each row of the piece
            // goes from the item straight to its place in the slab.
            let word =
                |i: usize| u64::from_le_bytes(item[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            let corner = [word(1), word(2), word(3)];
            let extent = [word(4), word(5), word(6)];
            let rows = BoxRuns::new(&slab_corner, &slab_extent, &corner, &extent)
                .expect("piece fits its slab");
            let row_bytes = rows.run_len() * 8;
            let slab = &mut self.buffers[word(0) as usize];
            let payload = &item[PIECE_HEADER..];
            assert_eq!(
                payload.len() as u64,
                extent.iter().product::<u64>() * 8,
                "a piece carries exactly its box"
            );
            for (row, src) in rows.zip(payload.chunks_exact(row_bytes.max(1))) {
                for (x, le) in slab[row].iter_mut().zip(src.chunks_exact(8)) {
                    *x = f64::from_le_bytes(le.try_into().expect("8 bytes"));
                }
            }
        }
    }

    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        let mut result = OpResult::new("reorg");
        result.values.set("slab_lo", Value::U64(self.slab.0));
        result.values.set("slab_hi", Value::U64(self.slab.1));

        // One merged file per pipeline rank: each variable is a single
        // contiguous slab extent of the global array.
        let path = ctx
            .out_dir
            .join(format!("merged_step{}_rank{}.bp", ctx.step, ctx.my_rank()));
        let slab_rows = self.slab.1 - self.slab.0;
        let mut vars = vec![
            bpio::VarDef::scalar("gx", Dtype::U64),
            bpio::VarDef::scalar("gy", Dtype::U64),
            bpio::VarDef::scalar("gz", Dtype::U64),
            bpio::VarDef::scalar("lo", Dtype::U64),
            bpio::VarDef::scalar("rows", Dtype::U64),
        ];
        for v in &self.vars {
            vars.push(bpio::VarDef::global_chunk(
                v,
                Dtype::F64,
                vec![bpio::Dim::r("gx"), bpio::Dim::r("gy"), bpio::Dim::r("gz")],
                vec![bpio::Dim::r("rows"), bpio::Dim::r("gy"), bpio::Dim::r("gz")],
                vec![bpio::Dim::r("lo"), bpio::Dim::c(0), bpio::Dim::c(0)],
            ));
        }
        let def = bpio::GroupDef::new("merged", vars).expect("static group");
        let mut pg = bpio::ProcessGroup::new("merged", ctx.my_rank() as u64, ctx.step);
        for (name, val) in [
            ("gx", self.global[0]),
            ("gy", self.global[1]),
            ("gz", self.global[2]),
            ("lo", self.slab.0),
            ("rows", slab_rows),
        ] {
            pg.write(&def, name, DataArray::U64(vec![val])).unwrap();
        }
        // The slabs are lent to the PG for the write (the writer
        // borrows them again for its vectored write) and taken back.
        let first_slab = pg.vars.len();
        for (v, slab) in self.vars.iter().zip(&mut self.buffers) {
            pg.write(&def, v, DataArray::F64(std::mem::take(slab)))
                .unwrap();
        }
        let annotations = [("layout", "merged"), ("prepared_by", "predata/reorg")];
        super::kit::write_output(&mut result, path, &annotations, &pg);
        for (slab, var) in self.buffers.iter_mut().zip(pg.vars.drain(first_slab..)) {
            if let DataArray::F64(data) = var.data {
                *slab = data;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::complete_pipeline;
    use crate::schema::{make_pixie_pg, PIXIE_FIELDS};
    use ffs::AttrList;
    use minimpi::World;
    use std::collections::HashMap;

    #[test]
    fn slab_ranges_tile_dimension() {
        for n in [1usize, 2, 3, 4] {
            let mut covered = 0;
            for r in 0..n {
                let (lo, hi) = ReorgOp::slab_range(r, n, 10);
                assert_eq!(lo, covered);
                covered = hi;
                for d0 in lo..hi {
                    assert_eq!(ReorgOp::slab_of(d0, n, 10), r);
                }
            }
            assert_eq!(covered, 10);
        }
    }

    #[test]
    fn merges_2x2x2_decomposition_into_slabs() {
        // Global 8x4x4, decomposed into 8 chunks of 4x2x2 by 2 pipeline
        // ranks; each rank maps 4 chunks.
        let out = World::run(2, |comm| {
            let mut op = ReorgOp::pixie3d();
            let dir = std::env::temp_dir().join(format!(
                "reorg-test-{}-{}",
                std::process::id(),
                comm.rank()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 8,
                agg: None,
            };

            let mut a = AttrList::new();
            a.set("gx", Value::U64(8));
            a.set("gy", Value::U64(4));
            a.set("gz", Value::U64(4));
            op.initialize(&Aggregates::local_only(&[(0, a)]), &ctx);

            // Chunks owned by this pipeline rank: compute ranks r where
            // r % 2 == comm.rank(). Offsets over a 2x2x2 block grid.
            let mut mapped = Vec::new();
            for cr in (0..8u64).filter(|r| *r as usize % 2 == comm.rank()) {
                let off = [(cr / 4) * 4, (cr / 2 % 2) * 2, (cr % 2) * 2];
                // Field value = global linear index so the merge is checkable.
                let fields: HashMap<&str, Vec<f64>> = PIXIE_FIELDS
                    .iter()
                    .map(|&f| {
                        let mut v = Vec::with_capacity(16);
                        for i in 0..4 {
                            for j in 0..2 {
                                for k in 0..2 {
                                    let g = ((off[0] + i) * 16 + (off[1] + j) * 4 + (off[2] + k))
                                        as f64;
                                    v.push(g);
                                }
                            }
                        }
                        (f, v)
                    })
                    .collect();
                let pg = make_pixie_pg(cr, 0, [4, 2, 2], [8, 4, 4], off, fields);
                mapped.extend(op.map(&PackedChunk::new(pg), &ctx));
            }
            let result = complete_pipeline(&mut op, mapped, &ctx);
            let path = result.files[0].clone();
            let mut r = bpio::BpReader::open(&path).unwrap();
            let idx = r.index().chunks_of("rho", 0)[0].clone();
            let data = r
                .read_box("rho", 0, &idx.offset_in_global, &idx.local)
                .unwrap();
            let stats = r.take_stats();
            std::fs::remove_dir_all(&dir).ok();
            (
                idx.offset_in_global.clone(),
                data.as_f64().unwrap().to_vec(),
                stats.reads,
            )
        });
        // Rank 0 owns rows 0..4, rank 1 rows 4..8; values = global index.
        for (rank, (off, data, reads)) in out.iter().enumerate() {
            assert_eq!(off[0], rank as u64 * 4);
            let expect: Vec<f64> = (rank as u64 * 64..rank as u64 * 64 + 64)
                .map(|x| x as f64)
                .collect();
            assert_eq!(data, &expect, "slab of rank {rank}");
            assert_eq!(*reads, 1, "merged slab reads back in ONE contiguous op");
        }
    }

    #[test]
    fn chunk_spanning_slab_boundary_is_split() {
        let out = World::run(2, |comm| {
            let mut op = ReorgOp::new(vec!["rho".into()]);
            let dir = std::env::temp_dir().join(format!(
                "reorg-split-{}-{}",
                std::process::id(),
                comm.rank()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 1,
                agg: None,
            };
            let mut a = AttrList::new();
            a.set("gx", Value::U64(4));
            a.set("gy", Value::U64(1));
            a.set("gz", Value::U64(1));
            op.initialize(&Aggregates::local_only(&[(0, a)]), &ctx);

            // One chunk covering the whole 4x1x1 global, mapped on rank 0:
            // must split into two pieces (rows 0-1 → rank 0, rows 2-3 → rank 1).
            let mapped = if comm.rank() == 0 {
                let def = crate::schema::pixie3d_group([4, 1, 1]);
                let mut pg = bpio::ProcessGroup::new("pixie3d", 0, 0);
                for (n, v) in [
                    ("gx", 4u64),
                    ("gy", 1),
                    ("gz", 1),
                    ("ox", 0),
                    ("oy", 0),
                    ("oz", 0),
                ] {
                    pg.write(&def, n, DataArray::U64(vec![v])).unwrap();
                }
                for f in crate::schema::PIXIE_FIELDS {
                    pg.write(&def, f, DataArray::F64(vec![10.0, 11.0, 12.0, 13.0]))
                        .unwrap();
                }
                let m = op.map(&PackedChunk::new(pg), &ctx);
                assert_eq!(m.len(), 2, "boundary-spanning chunk splits into 2 pieces");
                m
            } else {
                Vec::new()
            };
            let result = complete_pipeline(&mut op, mapped, &ctx);
            let mut r = bpio::BpReader::open(&result.files[0]).unwrap();
            let idx = r.index().chunks_of("rho", 0)[0].clone();
            let d = r
                .read_box("rho", 0, &idx.offset_in_global, &idx.local)
                .unwrap();
            std::fs::remove_dir_all(&dir).ok();
            d.as_f64().unwrap().to_vec()
        });
        assert_eq!(out[0], vec![10.0, 11.0]);
        assert_eq!(out[1], vec![12.0, 13.0]);
    }
}
