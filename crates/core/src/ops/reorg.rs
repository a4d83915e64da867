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
//! `map` sends one item per destination slab and chunk: the pieces of all
//! of the chunk's variables that fall in that slab, back to back, each a
//! header and its rows. A Pixie3D chunk inside one slab is one item, not
//! eight, and one that straddles a slab boundary is two.
//!
//! On a staging rank a payload byte is copied four times between the
//! pull and the file: the pull lands the chunk, the decode copies each
//! payload into the rank's kept chunk, `map` copies each piece's rows
//! into its item with one slice copy, and `reduce` copies them from the
//! item into the slab; `finalize` lends the slabs to the writer. The
//! slabs themselves live as long as the operator: `initialize` re-zeroes
//! them, so a step allocates no slab.

use std::sync::Arc;

use bpio::{BoxRuns, DataArray, Dtype, PgVar};
use ffs::Value;

use crate::agg::Aggregates;
use crate::chunk::PackedChunk;
use crate::op::{ChunkMapper, ComputeSideOp, MapCtx, OpCtx, OpResult, StageRows, StreamOp, Tagged};

/// Merge the named 3-D global variables into per-rank contiguous slabs.
pub struct ReorgOp {
    /// Variables to merge (must be global chunks in incoming PGs).
    pub(crate) vars: Vec<String>,
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
/// `f64` payload, row-major. An item is one or more pieces back to back.
const PIECE_HEADER: usize = 7 * 8;

impl ReorgOp {
    pub(crate) fn new(vars: Vec<String>) -> Self {
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

    fn stage_rows(&self) -> StageRows {
        crate::stage_rows!("reorg")
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
                let (n_ranks, total_d0) = (ctx.n_ranks(), self.global[0]);
                // The variables to merge that the chunk holds as 3-D
                // `f64` global chunks, with their index.
                let vars: Vec<(u64, &PgVar)> = (0u64..)
                    .zip(&self.vars)
                    .filter_map(|(vi, name)| {
                        let v = chunk.pg.var(name)?;
                        (v.data.dtype() == Dtype::F64 && v.global.len() == 3).then_some((vi, v))
                    })
                    .collect();
                // Rows [lo, hi) along dim 0 of `v` that lie in `slab`.
                let rows_in = |v: &PgVar, (slab_lo, slab_hi): (u64, u64)| {
                    let (lo, hi) = (
                        v.offset[0].max(slab_lo),
                        (v.offset[0] + v.local[0]).min(slab_hi),
                    );
                    (lo < hi).then_some((lo, hi))
                };
                let row_bytes = |v: &PgVar| (v.local[1] * v.local[2]) as usize * 8;
                // The rows any of them holds, and the slabs those touch.
                let Some((first, end)) = vars
                    .iter()
                    .map(|(_, v)| (v.offset[0], v.offset[0] + v.local[0]))
                    .filter(|(lo, hi)| lo < hi)
                    .reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
                else {
                    return Vec::new();
                };
                let dests = ReorgOp::slab_of(first, n_ranks, total_d0)
                    ..=ReorgOp::slab_of(end - 1, n_ranks, total_d0);
                let mut out = Vec::with_capacity(dests.clone().count());
                for dest in dests {
                    let slab = ReorgOp::slab_range(dest, n_ranks, total_d0);
                    let len: usize = vars
                        .iter()
                        .filter_map(|(_, v)| {
                            rows_in(v, slab)
                                .map(|(lo, hi)| PIECE_HEADER + (hi - lo) as usize * row_bytes(v))
                        })
                        .sum();
                    if len == 0 {
                        continue;
                    }
                    let mut bytes = Vec::with_capacity(len);
                    for &(vi, v) in &vars {
                        let Some((lo, hi)) = rows_in(v, slab) else {
                            continue;
                        };
                        // Rows lo..hi of the variable, as one piece.
                        let (o, l) = (&v.offset, &v.local);
                        for w in [vi, lo, o[1], o[2], hi - lo, l[1], l[2]] {
                            bytes.extend_from_slice(&w.to_le_bytes());
                        }
                        let at = |d0: u64| (d0 - o[0]) as usize * row_bytes(v);
                        bytes.extend_from_slice(&v.data.as_le_bytes()[at(lo)..at(hi)]);
                    }
                    out.push(Tagged::new(dest as u64, bytes));
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
            // Each piece's header is read where it lies and each of its
            // rows goes from the item straight to its place in the slab;
            // the pieces must use up the item exactly.
            let mut rest: &[u8] = &item;
            while !rest.is_empty() {
                assert!(rest.len() >= PIECE_HEADER, "a piece starts with its header");
                let (header, tail) = rest.split_at(PIECE_HEADER);
                let word = |i: usize| {
                    u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
                };
                let corner = [word(1), word(2), word(3)];
                let extent = [word(4), word(5), word(6)];
                let rows = BoxRuns::new(&slab_corner, &slab_extent, &corner, &extent)
                    .expect("piece fits its slab");
                let row_bytes = rows.run_len() * 8;
                let slab = &mut self.buffers[word(0) as usize];
                let len = extent.iter().product::<u64>() * 8;
                assert!(len <= tail.len() as u64, "a piece carries exactly its box");
                let (payload, next) = tail.split_at(len as usize);
                for (row, src) in rows.zip(payload.chunks_exact(row_bytes.max(1))) {
                    for (x, le) in slab[row].iter_mut().zip(src.chunks_exact(8)) {
                        *x = f64::from_le_bytes(le.try_into().expect("8 bytes"));
                    }
                }
                rest = next;
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
        let def = bpio::GroupDef::new(vars).expect("static group");
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
        super::kit::write_output(ctx, &mut result, path, &annotations, &pg);
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

    /// Chunk `cr` of the 2×2×2 grid of 4×2×2 blocks tiling an 8×4×4
    /// global, every field holding its index.
    fn grid_chunk(cr: u64) -> PackedChunk {
        let off = [(cr / 4) * 4, (cr / 2 % 2) * 2, (cr % 2) * 2];
        let fields: HashMap<&str, Vec<f64>> = (0..)
            .zip(PIXIE_FIELDS)
            .map(|(fi, f)| (f, vec![fi as f64; 16]))
            .collect();
        PackedChunk::new(make_pixie_pg(cr, 0, [4, 2, 2], [8, 4, 4], off, fields))
    }

    /// A chunk's pieces for one slab travel as one item: each 4-row chunk
    /// of the 8-row global is one item per slab its rows touch, in slab
    /// order, carrying all eight variables.
    #[test]
    fn one_item_per_destination_per_chunk() {
        let mut op = ReorgOp::pixie3d();
        op.global = vec![8, 4, 4];
        let mapper = op.mapper();
        // Slabs of 8 / n rows: chunk rows 0..4 and 4..8 touch this many.
        for (n_ranks, dests) in [
            (1, [1, 1]),
            (2, [1, 1]),
            (3, [2, 2]),
            (4, [2, 2]),
            (8, [4, 4]),
        ] {
            for cr in 0..8u64 {
                let items = mapper.map_chunk(&grid_chunk(cr), &MapCtx { n_ranks });
                let tags: Vec<u64> = items.iter().map(|t| t.tag).collect();
                assert_eq!(
                    tags.len(),
                    dests[cr as usize / 4],
                    "{n_ranks} slabs, chunk {cr}"
                );
                assert!(tags.windows(2).all(|w| w[0] < w[1]), "{tags:?}");
                let bytes: usize = items.iter().map(|t| t.bytes.len()).sum();
                assert_eq!(bytes, 8 * (tags.len() * PIECE_HEADER + 16 * 8));
            }
        }
    }

    /// `reduce` uses up an item exactly: an item one byte longer than its
    /// pieces is refused.
    #[test]
    #[should_panic(expected = "a piece starts with its header")]
    fn reduce_refuses_an_item_it_does_not_use_up() {
        let (_world, comms) = World::with_size(1);
        let dir = std::env::temp_dir();
        let ctx = OpCtx {
            comm: &comms[0],
            out_dir: &dir,
            step: 0,
            n_compute: 8,
            agg: None,
        };
        let mut op = ReorgOp::pixie3d();
        op.global = vec![8, 4, 4];
        op.slab = (0, 8);
        op.buffers = vec![vec![0.0; 128]; 8];
        let mut item = op.mapper().map_chunk(&grid_chunk(5), &ctx.map_ctx())[0]
            .bytes
            .to_vec();
        op.reduce(0, vec![item.clone().into()], &ctx);
        assert_eq!(op.buffers[7].iter().filter(|&&x| x == 7.0).count(), 16);
        item.push(0);
        op.reduce(0, vec![item.into()], &ctx);
    }

    /// A chunk whose rows straddle the boundary of two slabs is two
    /// items, one per slab, each with the rows of all eight variables
    /// that fall in it.
    #[test]
    fn chunk_spanning_slab_boundary_is_split() {
        let out = World::run(2, |comm| {
            let mut op = ReorgOp::pixie3d();
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
            // must split into two items (rows 0-1 → rank 0, rows 2-3 → rank 1).
            let mapped = if comm.rank() == 0 {
                let fields = (0..)
                    .zip(PIXIE_FIELDS)
                    .map(|(fi, f)| (f, (10..14).map(|x| (fi * 100 + x) as f64).collect()))
                    .collect();
                let pg = make_pixie_pg(0, 0, [4, 1, 1], [4, 1, 1], [0, 0, 0], fields);
                let m = op.map(&PackedChunk::new(pg), &ctx);
                let tags: Vec<u64> = m.iter().map(|t| t.tag).collect();
                assert_eq!(tags, [0, 1], "boundary-spanning chunk splits into 2 items");
                m
            } else {
                Vec::new()
            };
            let result = complete_pipeline(&mut op, mapped, &ctx);
            let mut r = bpio::BpReader::open(&result.files[0]).unwrap();
            let slabs: Vec<Vec<f64>> = PIXIE_FIELDS
                .iter()
                .map(|f| {
                    let idx = r.index().chunks_of(f, 0)[0].clone();
                    let d = r.read_box(f, 0, &idx.offset_in_global, &idx.local);
                    d.unwrap().as_f64().unwrap().to_vec()
                })
                .collect();
            std::fs::remove_dir_all(&dir).ok();
            slabs
        });
        for (fi, (lo, hi)) in (0..).zip(out[0].iter().zip(&out[1])) {
            assert_eq!(lo, &[(fi * 100 + 10) as f64, (fi * 100 + 11) as f64]);
            assert_eq!(hi, &[(fi * 100 + 12) as f64, (fi * 100 + 13) as f64]);
        }
    }
}
