//! The staging map-stage pipeline: one full `run_step` — gather →
//! aggregate → pull → parallel decode+map → combine/shuffle/reduce →
//! finalize — at different `StagingConfig::map_workers`
//! (`PREDATA_MAP_WORKERS`) settings.
//!
//! This is the ablation for the worker-pool rewrite: 16 chunks of 1 MiB
//! each (16 Ki particles × 64 B) through a histogram over all eight
//! attributes plus streaming moments, on a single staging rank. The
//! decode+map stage dominates, so throughput should scale with workers
//! until the serial tail (pulls, merge, finalize) caps it; the summary
//! line prints the measured 4-vs-1 speedup.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use predata_core::ops::{HistogramOp, MomentsOp};
use predata_core::schema::make_particle_pg;
use predata_core::staging::{StagingConfig, StagingRank};
use predata_core::{PredataClient, StreamOp};
use transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

const N_CHUNKS: usize = 16;
const ROWS_PER_CHUNK: usize = 16 * 1024; // × 64 B/row = 1 MiB per chunk

fn ops() -> Vec<Box<dyn StreamOp>> {
    vec![
        Box::new(HistogramOp::all_attrs(64)),
        Box::new(MomentsOp::new(vec![0, 1, 2])),
    ]
}

/// Deterministic scattered rows so binning touches many bins.
fn dump(rank: u64) -> Vec<f64> {
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

/// Build a single-rank staging setup with all `N_CHUNKS` dumps already
/// written (requests queued, payloads exposed), ready for one `run_step`
/// on `workers` decode+map workers (`None`: the configured default).
fn staged_step(dir: &std::path::Path, workers: Option<usize>) -> (Fabric, StagingRank) {
    let (fabric, computes, mut stagings) = Fabric::new(N_CHUNKS, 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(N_CHUNKS, 1));
    for (r, e) in computes.into_iter().enumerate() {
        let client = PredataClient::new(
            e,
            Arc::clone(&router),
            vec![Arc::new(HistogramOp::all_attrs(64))],
        );
        client
            .write_pg(make_particle_pg(r as u64, 0, dump(r as u64)))
            .unwrap();
    }
    let mut cfg = StagingConfig::new(N_CHUNKS, dir);
    if let Some(workers) = workers {
        cfg.map_workers = workers;
    }
    let (_world, mut comms) = minimpi::World::with_size(1);
    let rank = StagingRank::new(
        comms.remove(0),
        stagings.remove(0),
        router,
        Box::new(FifoPolicy::default()) as Box<dyn PullPolicy>,
        ops(),
        cfg,
    )
    .expect("staging rank starts");
    (fabric, rank)
}

fn bench_map_stage(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("staging-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let payload_bytes = {
        // What one step actually pulls: N_CHUNKS packed 1 MiB chunks.
        let (_f, rank) = staged_step(&dir, None);
        drop(rank);
        (N_CHUNKS * ROWS_PER_CHUNK * 64) as u64
    };

    let mut g = c.benchmark_group("staging_step");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g.throughput(Throughput::Bytes(payload_bytes));
    let mut medians: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut median = 0.0;
        g.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter_batched(
                || staged_step(&dir, Some(workers)),
                |(_fabric, mut rank)| black_box(rank.run_step(0).unwrap()),
                BatchSize::PerIteration,
            );
            median = b.median_secs_per_iter().unwrap_or(0.0);
        });
        medians.push((workers, median));
    }
    g.finish();
    std::fs::remove_dir_all(&dir).ok();

    let time_of = |w: usize| medians.iter().find(|(n, _)| *n == w).map(|(_, t)| *t);
    if let (Some(t1), Some(t4)) = (time_of(1), time_of(4)) {
        if t4 > 0.0 {
            println!(
                "staging_step: 4-worker speedup over 1 worker = {:.2}x \
                 ({:.1} ms -> {:.1} ms per step)",
                t1 / t4,
                t1 * 1e3,
                t4 * 1e3
            );
        }
    }
}

/// The observability budget: the same step with span recording enabled
/// vs disabled. The paper-facing bar is <3% regression (the
/// `obs_overhead` integration test asserts it with CI slack; this bench
/// is the precision instrument).
fn bench_metrics_overhead(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("staging-bench-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut g = c.benchmark_group("staging_step_obs");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    let mut medians: Vec<(&str, f64)> = Vec::new();
    for (mode, on) in [("metrics_off", false), ("metrics_on", true)] {
        obs::set_enabled(on);
        let mut median = 0.0;
        g.bench_function(mode, |b| {
            b.iter_batched(
                || staged_step(&dir, None),
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
