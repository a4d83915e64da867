//! The observability layer must be cheap enough to leave on: the paper's
//! budget (and ISSUE acceptance bar) is <3% overhead on the staging
//! pipeline with metrics enabled vs disabled.
//!
//! Methodology: run the same multi-step staging workload many times in
//! each mode, *interleaved* (off, on, on, off, off, on, … — which mode
//! goes first alternates), and compare a *fast* run of each series: the
//! one an eighth of the way up the sorted times. Interleaving gives both
//! series the same share of whatever the machine was doing — five "off"
//! runs followed by five "on" runs compared two different moments, and
//! failed about 3 runs in 10 on a 2-core box — and the lower eighth is
//! the least noise-contaminated estimator that is still stable: the
//! bare minimum of 40 runs of this ≈ 13 ms pipeline is often a lone
//! lucky run 10 % under the next. The assertion allows 10% so scheduler
//! jitter on loaded CI runners can't flake the suite; the benchmark's
//! `obs.enabled_cost_frac` (`benchmark/run.sh --trace 1`) is the
//! precision instrument for the 3% figure itself.
//!
//! Lives in its own integration-test binary (own process) because it
//! toggles the process-global `obs::set_enabled` switch.
//!
//! Also exercises `Registry::set_export_path`, the programmatic
//! override of `PREDATA_METRICS`: the measurement runs pin the export
//! path to `None` (no snapshot I/O in the timed region regardless of
//! the ambient environment), then a final run points it at a real file
//! and asserts the current-version snapshot lands there.

use std::sync::Arc;
use std::time::{Duration, Instant};

use predata::core::op::StreamOp;
use predata::core::ops::HistogramOp;
use predata::core::schema::make_particle_pg;
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

const N_COMPUTE: usize = 4;
const N_STAGING: usize = 1;
const N_STEPS: u64 = 3;
const ROWS_PER_DUMP: usize = 4096; // ~256 KiB per dump → real decode/map work
const TRIALS: usize = 40;

fn dump(rank: u64, step: u64) -> Vec<f64> {
    let mut s = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(step) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = Vec::with_capacity(ROWS_PER_DUMP * 8);
    for id in 0..ROWS_PER_DUMP as u64 {
        for _ in 0..6 {
            rows.push(next() * 16.0 - 8.0);
        }
        rows.push(rank as f64);
        rows.push(id as f64);
    }
    rows
}

fn make_ops() -> Vec<Box<dyn StreamOp>> {
    vec![Box::new(HistogramOp::new(vec![0, 1, 2, 3, 5], 64))]
}

/// One full pipeline run (write dumps, spawn staging, join); returns the
/// staging-side wall time.
fn run_once(dir: &std::path::Path) -> Duration {
    let (_fabric, computes, stagings) = Fabric::new(N_COMPUTE, N_STAGING, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(N_COMPUTE, N_STAGING));
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| {
            PredataClient::new(
                e,
                Arc::clone(&router),
                vec![Arc::new(HistogramOp::new(vec![0, 5], 64))],
            )
        })
        .collect();
    for step in 0..N_STEPS {
        for (r, c) in clients.iter().enumerate() {
            c.write_pg(make_particle_pg(r as u64, step, dump(r as u64, step)))
                .unwrap();
        }
    }
    let cfg = StagingConfig::new(N_COMPUTE, dir);
    let started = Instant::now();
    let area = StagingArea::spawn(
        stagings,
        router,
        Arc::new(|_| make_ops()),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        cfg,
        N_STEPS,
    );
    for rank_reports in area.join() {
        rank_reports.expect("staging rank succeeds");
    }
    started.elapsed()
}

/// A fast run with span recording off and one with it on, from `trials`
/// interleaved pairs of runs: the run an eighth of the way up each
/// sorted series. Not the very fastest: on this box one lucky run in 40
/// lands up to 13 % under the second fastest, in either series.
fn interleaved_fast_runs(trials: usize, dir: &std::path::Path) -> (Duration, Duration) {
    let mut series = [Vec::new(), Vec::new()]; // [off, on]
    for trial in 0..trials {
        let first_on = trial % 2 == 1;
        for on in [first_on, !first_on] {
            predata::obs::set_enabled(on);
            series[on as usize].push(run_once(dir));
        }
    }
    let [off, on] = series.map(|mut runs| {
        runs.sort();
        runs[trials / 8]
    });
    (off, on)
}

#[test]
fn metrics_overhead_stays_within_budget() {
    let dir = std::env::temp_dir().join(format!("obs-ovh-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // No snapshot export during the timed runs, whatever the ambient
    // PREDATA_METRICS says — the override wins over the environment.
    predata::obs::global().set_export_path(None);
    // The event log stays off: its cost is opt-in and outside this budget.
    predata::obs::global().set_detail(false);

    // Warm-up: fault in code paths, allocators, and the temp filesystem.
    predata::obs::set_enabled(false);
    run_once(&dir);

    let (off, on) = interleaved_fast_runs(TRIALS, &dir);
    predata::obs::set_enabled(false);

    let ratio = on.as_secs_f64() / off.as_secs_f64().max(1e-9);
    assert!(
        ratio <= 1.10,
        "metrics-enabled pipeline is {:.1}% slower than disabled \
         (on={on:?} off={off:?}); budget is <3% nominal, 10% with CI slack",
        (ratio - 1.0) * 100.0
    );

    // With the measurement done, flip the override to a real path: one
    // more run must export a current-version snapshot there at join().
    let snap_path = dir.join("override-snapshot.json");
    predata::obs::global().set_export_path(Some(snap_path.clone()));
    predata::obs::set_enabled(true);
    run_once(&dir);
    predata::obs::set_enabled(false);
    predata::obs::global().set_export_path(None);
    let text = std::fs::read_to_string(&snap_path)
        .expect("join() exports a snapshot to the overridden path");
    let root: serde_json::Value = serde_json::from_str(&text).expect("exported snapshot parses");
    assert_eq!(
        root.get("version").and_then(|v| v.as_u64()),
        Some(predata::obs::SNAPSHOT_VERSION)
    );

    std::fs::remove_dir_all(&dir).ok();
}
