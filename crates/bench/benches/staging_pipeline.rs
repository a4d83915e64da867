//! One full `run_step` — gather → aggregate → pull + map →
//! combine/shuffle/reduce → finalize — on a single staging rank, at
//! `StagingConfig::map_workers` ∈ {1, 2, 4, 8} and in two shapes:
//!
//! * `1MiB`: 16 chunks of 1 MiB (16 Ki particles × 64 B) through a
//!   histogram over all eight attributes plus streaming moments. Every
//!   chunk is a run of its own and decode + map dominates, so with cores
//!   to spare the step should speed up with workers until the serial
//!   tail (pulls, merge, finalize) caps it.
//! * `32KiB`: 64 Pixie3D chunks of 32 KiB through `ReorgOp`. A chunk's
//!   unpack + map is a quarter of what one hand-off costs, so helpers
//!   are fed runs of eight; this is the shape where one worker — the
//!   rank thread alone, no thread or queue created — is hard to beat.
//!
//! With one worker there is no pool: the rank thread pulls and maps.
//! The summary lines print each shape's 4-vs-1 ratio; on a host with as
//! many staging ranks as cores expect ≈ 1× or below.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use apps::PixieWorld;
use bpio::ProcessGroup;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use predata_core::op::ComputeSideOp;
use predata_core::ops::{HistogramOp, MomentsOp, ReorgOp};
use predata_core::schema::make_particle_pg;
use predata_core::staging::{StagingConfig, StagingRank};
use predata_core::{PredataClient, StreamOp};
use transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

const ROWS_PER_CHUNK: usize = 16 * 1024; // × 64 B/row = 1 MiB per chunk

/// One dump and the operators it goes through.
#[derive(Clone, Copy)]
enum Shape {
    /// 16 particle chunks of 1 MiB: histogram + moments.
    Particles,
    /// 64 Pixie3D chunks of 32 KiB (8³ cells × 8 fields): `ReorgOp`.
    Pixie,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Particles => "1MiB",
            Shape::Pixie => "32KiB",
        }
    }

    fn dump(self) -> Vec<ProcessGroup> {
        match self {
            Shape::Particles => (0..16)
                .map(|r| make_particle_pg(r, 0, particle_rows(r)))
                .collect(),
            Shape::Pixie => {
                let world = PixieWorld::new([4, 4, 4], [8, 8, 8]);
                (0..world.n_ranks()).map(|r| world.output_pg(r)).collect()
            }
        }
    }

    fn staging_ops(self) -> Vec<Box<dyn StreamOp>> {
        match self {
            Shape::Particles => vec![
                Box::new(HistogramOp::all_attrs(64)),
                Box::new(MomentsOp::new(vec![0, 1, 2])),
            ],
            Shape::Pixie => vec![Box::new(ReorgOp::pixie3d())],
        }
    }

    fn compute_op(self) -> Arc<dyn ComputeSideOp> {
        match self {
            Shape::Particles => Arc::new(HistogramOp::all_attrs(64)),
            Shape::Pixie => Arc::new(ReorgOp::pixie3d()),
        }
    }
}

/// Deterministic scattered rows so binning touches many bins.
fn particle_rows(rank: u64) -> Vec<f64> {
    let mut s = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = Vec::with_capacity(ROWS_PER_CHUNK * 8);
    for id in 0..ROWS_PER_CHUNK as u64 {
        for _ in 0..6 {
            rows.push(next() * 16.0 - 8.0);
        }
        rows.push(rank as f64);
        rows.push(id as f64);
    }
    rows
}

/// Build a single-rank staging setup with every chunk of `dump` already
/// written (requests queued, payloads exposed), ready for one `run_step`
/// on `workers` mapping threads (`None`: what the host has room for).
fn staged_step(
    dir: &std::path::Path,
    shape: Shape,
    dump: &[ProcessGroup],
    workers: Option<usize>,
) -> (Fabric, StagingRank) {
    let (fabric, computes, mut stagings) = Fabric::new(dump.len(), 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(dump.len(), 1));
    for (e, pg) in computes.into_iter().zip(dump) {
        PredataClient::new(e, Arc::clone(&router), vec![shape.compute_op()])
            .write_pg(pg.clone())
            .unwrap();
    }
    let mut cfg = StagingConfig::new(dump.len(), dir);
    cfg.map_workers = workers;
    let (_world, mut comms) = minimpi::World::with_size(1);
    let rank = StagingRank::new(
        comms.remove(0),
        stagings.remove(0),
        router,
        Box::new(FifoPolicy) as Box<dyn PullPolicy>,
        shape.staging_ops(),
        cfg,
    )
    .expect("staging rank starts");
    (fabric, rank)
}

fn bench_map_stage(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("staging-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    println!(
        "staging_step: available_parallelism = {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for shape in [Shape::Particles, Shape::Pixie] {
        let dump = shape.dump();
        let payload: usize = dump.iter().map(ProcessGroup::payload_bytes).sum();
        let mut g = c.benchmark_group(format!("staging_step/{}", shape.name()));
        g.sample_size(10).measurement_time(Duration::from_secs(8));
        g.throughput(Throughput::Bytes(payload as u64));
        let mut medians: Vec<(usize, f64)> = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let mut median = 0.0;
            g.bench_function(BenchmarkId::new("workers", workers), |b| {
                b.iter_batched(
                    || staged_step(&dir, shape, &dump, Some(workers)),
                    |(_fabric, mut rank)| black_box(rank.run_step(0).unwrap()),
                    BatchSize::PerIteration,
                );
                median = b.median_secs_per_iter().unwrap_or(0.0);
            });
            medians.push((workers, median));
        }
        g.finish();

        let time_of = |w: usize| medians.iter().find(|(n, _)| *n == w).map(|(_, t)| *t);
        if let (Some(t1), Some(t4)) = (time_of(1), time_of(4)) {
            if t4 > 0.0 {
                println!(
                    "staging_step/{}: 4 workers vs the rank thread alone = {:.2}x \
                     ({:.2} ms -> {:.2} ms per step)",
                    shape.name(),
                    t1 / t4,
                    t1 * 1e3,
                    t4 * 1e3
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The observability budget: the same step with span recording enabled
/// vs disabled. The paper-facing bar is <3% regression (the
/// `obs_overhead` integration test asserts it with CI slack; this bench
/// is the precision instrument).
fn bench_metrics_overhead(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("staging-bench-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let dump = Shape::Particles.dump();
    let mut g = c.benchmark_group("staging_step_obs");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    let mut medians: Vec<(&str, f64)> = Vec::new();
    for (mode, on) in [("metrics_off", false), ("metrics_on", true)] {
        obs::set_enabled(on);
        let mut median = 0.0;
        g.bench_function(mode, |b| {
            b.iter_batched(
                || staged_step(&dir, Shape::Particles, &dump, None),
                |(_fabric, mut rank)| black_box(rank.run_step(0).unwrap()),
                BatchSize::PerIteration,
            );
            median = b.median_secs_per_iter().unwrap_or(0.0);
        });
        medians.push((mode, median));
    }
    g.finish();
    obs::set_enabled(false);
    std::fs::remove_dir_all(&dir).ok();

    if let (Some((_, off)), Some((_, on))) = (
        medians.iter().find(|(m, _)| *m == "metrics_off"),
        medians.iter().find(|(m, _)| *m == "metrics_on"),
    ) {
        if *off > 0.0 {
            println!(
                "staging_step_obs: metrics overhead = {:+.2}% \
                 ({:.2} ms off -> {:.2} ms on per step)",
                (on / off - 1.0) * 100.0,
                off * 1e3,
                on * 1e3
            );
        }
    }
}

criterion_group!(benches, bench_map_stage, bench_metrics_overhead);
criterion_main!(benches);
