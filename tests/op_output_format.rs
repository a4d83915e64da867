//! The operators' output format, pinned: a fixed, seed-free input through
//! all five operators on two pipeline ranks must give, per rank and
//! operator, the same file names, the same bytes in every file and the
//! same encoded `OpResult::values` as when the constants below were
//! recorded (at the commit before the operators were moved onto one
//! kit). The other tests compare two runs with each other, so a format
//! change that hits both runs alike passes them all; this one does not.

use std::collections::HashMap;

use predata::core::agg::Aggregates;
use predata::core::op::{complete_pipeline, ComputeSideOp, OpCtx, StreamOp};
use predata::core::ops::{BitmapIndexOp, Histogram2dOp, HistogramOp, ReorgOp, SortOp};
use predata::core::schema::{make_particle_pg, make_pixie_pg, PIXIE_FIELDS};
use predata::core::PackedChunk;
use predata::ffs::{AttrList, Value};
use predata::minimpi::World;

/// `rank operator values-hash file:hash…`, one line per (rank, operator),
/// hashes FNV-1a 64.
const EXPECTED: &str = "\
r0 sort b34fb940d445c3ee sorted_step3_rank0.bp:61ed131236e59b4c
r0 histogram 0a32af398df3a617 hist_x_step3.bp:d5744b04287ae437 hist_z_step3.bp:677723b6b0b0dc55
r0 histogram2d fb6d69212304722f hist2d_x_z_step3.bp:4d6873ddb73cff87 hist2d_v_par_v_par_step3.bp:dbe4a3dbeb760283
r0 bitmap_index b57f5d8b6ebad3d9 bitmap_z_step3_rank0.idx:8527001f31c5d402
r0 reorg 6f27b79e18965975 merged_step3_rank0.bp:d536e3a4e5e5b4b1
r1 sort ab25f1892bc014f6 sorted_step3_rank1.bp:469b8e6de12796de
r1 histogram acc6fdfea47a4ea3 hist_y_step3.bp:06f19abd305b0431 hist_v_par_step3.bp:2a74c25bd9c52513 hist_weight_step3.bp:2a74c25bd9c52513
r1 histogram2d 6d554ab125ff9626 hist2d_weight_y_step3.bp:8a6faf8328b27fc6
r1 bitmap_index f6cd9b48b2e84b99 bitmap_z_step3_rank1.idx:8493f10aecb1b686
r1 reorg 937279f56f59f0d5 merged_step3_rank1.bp:ef7ea2cec8123bdc
";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compute rank `rank`'s particle rows: x sweeps both signs and holds a
/// -0.0, y holds NaNs, z leaves the range the aggregates will claim for
/// it, v_par holds an infinity, weight is one value (a degenerate
/// range), and the labels collide across chunks.
fn particle_rows(rank: u64) -> Vec<f64> {
    (0..12u64)
        .flat_map(|i| {
            let t = (rank * 12 + i) as f64;
            let x = if i == 5 { -0.0 } else { t * 0.75 - 17.0 };
            let y = if i % 4 == 1 { f64::NAN } else { 40.0 - t };
            let z = (t * 1.5) % 31.0 - 10.0;
            let v_par = if rank == 2 && i == 7 {
                f64::INFINITY
            } else {
                t * t * 0.01
            };
            let (label_rank, id) = (((rank + i) % 4) as f64, (i % 5) as f64);
            [x, y, z, v_par, -(t % 7.0), 1.0, label_rank, id]
        })
        .collect()
}

/// Pixie chunk `cr` of eight 4×2×2 blocks tiling an 8×4×4 global: every
/// field holds `field index * 1000 + global linear index`.
fn pixie_chunk(cr: u64) -> PackedChunk {
    let off = [(cr / 4) * 4, (cr / 2 % 2) * 2, (cr % 2) * 2];
    let fields: HashMap<&str, Vec<f64>> = PIXIE_FIELDS
        .iter()
        .enumerate()
        .map(|(fi, &f)| {
            let mut v = Vec::with_capacity(16);
            for i in 0..4 {
                for j in 0..2 {
                    for k in 0..2 {
                        let g = (off[0] + i) * 16 + (off[1] + j) * 4 + (off[2] + k);
                        v.push((fi as u64 * 1000 + g) as f64);
                    }
                }
            }
            (f, v)
        })
        .collect();
    PackedChunk::new(make_pixie_pg(cr, 3, [4, 2, 2], [8, 4, 4], off, fields))
}

/// One operator over this rank's chunks: the line of `EXPECTED` it gives.
fn run_op(op: &mut dyn StreamOp, chunks: &[PackedChunk], agg: &Aggregates, ctx: &OpCtx) -> String {
    op.initialize(agg, ctx);
    let mut mapped = Vec::new();
    for chunk in chunks {
        mapped.extend(op.map(chunk, ctx));
    }
    let result = complete_pipeline(op, mapped, ctx);
    let mut line = format!(
        "r{} {} {:016x}",
        ctx.my_rank(),
        result.op,
        fnv1a(&result.values.to_bytes().unwrap())
    );
    for path in &result.files {
        assert_eq!(path.parent(), Some(ctx.out_dir));
        let name = path.file_name().unwrap().to_str().unwrap();
        let bytes = std::fs::read(path).unwrap();
        line.push_str(&format!(" {name}:{:016x}", fnv1a(&bytes)));
    }
    line.push('\n');
    line
}

#[test]
fn every_operator_writes_the_recorded_bytes() {
    let lines = World::run(2, |comm| {
        let me = comm.rank();
        let dir = std::env::temp_dir().join(format!("op-format-{}-{me}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Particle chunks of compute ranks `me` and `me + 2`, with what
        // the compute-side passes attach; z's range is then narrowed by
        // hand so that rows fall below and above it.
        let stats = HistogramOp::new(vec![0], 1);
        let particle_chunks: Vec<PackedChunk> = [me as u64, me as u64 + 2]
            .iter()
            .map(|&r| PackedChunk::new(make_particle_pg(r, 3, particle_rows(r))))
            .collect();
        let particle_attrs: Vec<(usize, AttrList)> = particle_chunks
            .iter()
            .map(|c| {
                let mut attrs = AttrList::new();
                stats.partial_calculate(&c.pg, &mut attrs);
                SortOp::new().partial_calculate(&c.pg, &mut attrs);
                attrs.set("min_z", Value::F64(-4.0));
                attrs.set("max_z", Value::F64(12.5));
                (c.writer_rank as usize, attrs)
            })
            .collect();
        let particle_agg = Aggregates::build(particle_attrs.iter().map(|(r, a)| (*r, a)), &comm);

        let reorg = ReorgOp::pixie3d();
        let pixie_chunks: Vec<PackedChunk> = (0..8u64)
            .filter(|cr| *cr as usize % 2 == me)
            .map(pixie_chunk)
            .collect();
        let pixie_attrs: Vec<(usize, AttrList)> = pixie_chunks
            .iter()
            .map(|c| {
                let mut attrs = AttrList::new();
                reorg.partial_calculate(&c.pg, &mut attrs);
                (c.writer_rank as usize, attrs)
            })
            .collect();
        let pixie_agg = Aggregates::build(pixie_attrs.iter().map(|(r, a)| (*r, a)), &comm);

        let ctx = |n_compute, agg| OpCtx {
            comm: &comm,
            out_dir: &dir,
            step: 3,
            n_compute,
            agg: Some(agg),
        };
        let mut particle_ops: Vec<Box<dyn StreamOp>> = vec![
            Box::new(SortOp::new()),
            Box::new(HistogramOp::new(vec![0, 1, 2, 3, 5], 6)),
            Box::new(Histogram2dOp::new(vec![(0, 2), (5, 1), (3, 3)], 4)),
            Box::new(BitmapIndexOp::new(2, 5)),
        ];
        let mut out = String::new();
        for op in &mut particle_ops {
            let ctx = ctx(4, &particle_agg);
            out.push_str(&run_op(op.as_mut(), &particle_chunks, &particle_agg, &ctx));
        }
        let ctx = ctx(8, &pixie_agg);
        let mut reorg = reorg;
        out.push_str(&run_op(&mut reorg, &pixie_chunks, &pixie_agg, &ctx));
        std::fs::remove_dir_all(&dir).ok();
        out
    });
    let got = lines.concat();
    assert_eq!(got, EXPECTED, "recorded:\n{EXPECTED}\nthis run:\n{got}");
}
