//! Criterion microbenchmarks of the PreDatA operators: per-byte costs of
//! the map phase for sort bucketing, histograms, re-organization
//! splitting, and bitmap index construction. These are the functional
//! counterparts of the `OpCosts` throughput constants used by the
//! machine model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use predata_core::agg::Aggregates;
use predata_core::op::{OpCtx, StreamOp};
use predata_core::ops::{
    attach_particle_stats, BitmapIndex, Histogram2dOp, HistogramOp, ReorgOp, SortOp,
};
use predata_core::schema::make_particle_pg;
use predata_core::PackedChunk;
use std::hint::black_box;

fn particle_chunk(n: usize) -> PackedChunk {
    labelled_chunk(n, |i| ((i % 16) as f64, i as f64))
}

/// `n` particle rows whose `(rank, id)` label columns come from `label`.
fn labelled_chunk(n: usize, label: impl Fn(usize) -> (f64, f64)) -> PackedChunk {
    let rows: Vec<f64> = (0..n)
        .flat_map(|i| {
            let x = (i as f64 * 0.61) % std::f64::consts::TAU;
            let (rank, id) = label(i);
            [x, x * 0.5, 0.1, x - 3.0, x * 0.25, 1.0, rank, id]
        })
        .collect();
    PackedChunk::new(make_particle_pg(0, 0, rows))
}

fn with_ctx<R>(f: impl FnOnce(&OpCtx) -> R) -> R {
    let (_world, mut comms) = minimpi::World::with_size(1);
    let comm = comms.remove(0);
    let dir = std::env::temp_dir();
    let ctx = OpCtx {
        comm: &comm,
        out_dir: &dir,
        step: 0,
        n_compute: 16,
        agg: None,
    };
    f(&ctx)
}

fn stats_attrs() -> Aggregates {
    let mut a = ffs::AttrList::new();
    for n in predata_core::schema::PARTICLE_ATTRS {
        a.set(format!("min_{n}"), ffs::Value::F64(-10.0));
        a.set(format!("max_{n}"), ffs::Value::F64(10.0));
    }
    a.set("np", ffs::Value::U64(1));
    Aggregates::local_only(&[(0, a)])
}

fn bench_map_phase(c: &mut Criterion) {
    let mut g = c.benchmark_group("op_map_phase");
    for n in [10_000usize, 100_000] {
        let chunk = particle_chunk(n);
        let bytes = (n * 64) as u64;
        g.throughput(Throughput::Bytes(bytes));
        g.bench_with_input(BenchmarkId::new("sort_bucketing", n), &chunk, |b, chunk| {
            with_ctx(|ctx| {
                let mut op = SortOp::new();
                op.initialize(&stats_attrs(), ctx);
                b.iter(|| black_box(op.map(chunk, ctx)));
            })
        });
        g.bench_with_input(BenchmarkId::new("histogram", n), &chunk, |b, chunk| {
            with_ctx(|ctx| {
                let mut op = HistogramOp::new(vec![0, 3], 64);
                op.initialize(&stats_attrs(), ctx);
                b.iter(|| black_box(op.map(chunk, ctx)));
            })
        });
        g.bench_with_input(BenchmarkId::new("histogram2d", n), &chunk, |b, chunk| {
            with_ctx(|ctx| {
                let mut op = Histogram2dOp::new(vec![(0, 3)], 32);
                op.initialize(&stats_attrs(), ctx);
                b.iter(|| black_box(op.map(chunk, ctx)));
            })
        });
    }
    g.finish();
}

fn bench_bitmap(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitmap_index");
    for n in [10_000usize, 100_000] {
        let values: Vec<f64> = (0..n).map(|i| ((i as f64 * 0.37).sin()) * 5.0).collect();
        g.throughput(Throughput::Bytes((n * 8) as u64));
        g.bench_with_input(BenchmarkId::new("build", n), &values, |b, v| {
            b.iter(|| black_box(BitmapIndex::build(v.iter().copied(), -5.0, 5.0, 32)))
        });
        let idx = BitmapIndex::build(values.iter().copied(), -5.0, 5.0, 32);
        g.bench_with_input(BenchmarkId::new("range_query", n), &idx, |b, idx| {
            b.iter(|| black_box(idx.query(-1.0, 1.0)))
        });
    }
    g.finish();
}

fn bench_reorg_split(c: &mut Criterion) {
    let mut g = c.benchmark_group("reorg");
    let world = apps::PixieWorld::new([2, 2, 2], [16, 16, 16]);
    let chunk = PackedChunk::new(world.output_pg(3));
    g.throughput(Throughput::Bytes(16 * 16 * 16 * 8 * 8));
    g.bench_function("map_split_16cubed_x8fields", |b| {
        with_ctx(|ctx| {
            let mut op = ReorgOp::pixie3d();
            let mut a = ffs::AttrList::new();
            a.set("gx", ffs::Value::U64(32));
            a.set("gy", ffs::Value::U64(32));
            a.set("gz", ffs::Value::U64(32));
            op.initialize(&Aggregates::local_only(&[(0, a)]), ctx);
            b.iter(|| black_box(op.map(&chunk, ctx)));
        })
    });
    g.finish();
}

/// `SortOp::reduce` over eight shuffled blobs: 65 536 rows is what one of
/// two staging ranks receives per GTC dump, 16 384 what one of eight
/// compute ranks receives in the in-compute placement.
fn bench_sort_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort_reduce");
    for n in [65_536usize, 16_384] {
        // One blob per source chunk, as the mapper emits it; labels
        // scattered by a multiplicative hash so every blob spans the whole
        // key range, like a migrated particle population.
        let blobs: Vec<_> = with_ctx(|ctx| {
            let mut op = SortOp::new();
            op.initialize(&stats_attrs(), ctx);
            (0..8)
                .flat_map(|b| {
                    let chunk = labelled_chunk(n / 8, |i| {
                        let label = ((b * n / 8 + i) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        ((label >> 60) as f64, (label & 0xf_ffff) as f64)
                    });
                    op.map(&chunk, ctx)
                })
                .map(|tagged| tagged.bytes)
                .collect()
        });
        assert_eq!(blobs.len(), 8);
        g.throughput(Throughput::Bytes((n * 64) as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}_rows_8_blobs")),
            &blobs,
            |b, blobs| {
                with_ctx(|ctx| {
                    let mut op = SortOp::new();
                    b.iter(|| op.reduce(0, black_box(blobs.clone()), ctx));
                })
            },
        );
    }
    g.finish();
}

/// The compute-side pass inside every GTC `write_pg`, on one 1 MiB chunk.
fn bench_particle_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("particle_stats");
    let chunk = particle_chunk(16_384);
    g.throughput(Throughput::Bytes(16_384 * 64));
    g.bench_function("16384_rows", |b| {
        b.iter(|| {
            let mut attrs = ffs::AttrList::new();
            attach_particle_stats(black_box(&chunk.pg), &mut attrs);
            attrs
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_map_phase, bench_bitmap, bench_reorg_split, bench_sort_reduce,
        bench_particle_stats
}
criterion_main!(benches);
