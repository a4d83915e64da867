//! The observability layer must be cheap enough to leave on: the paper's
//! budget (and ISSUE acceptance bar) is <3% overhead on the staging
//! pipeline with metrics enabled vs disabled.
//!
//! Methodology: run the same multi-step staging workload many times,
//! in trials of two runs, one in each mode — which mode goes first
//! alternates from trial to trial — and take the median over the trials
//! of each trial's on/off cost ratio. A run's cost is the CPU time the
//! process spends from spawning the staging area to joining it
//! (`CLOCK_PROCESS_CPUTIME_ID`: every thread's, the exited staging
//! thread's included), not its wall time.
//!
//! Both choices are against a shared 2-vCPU host. Wall time also counts
//! the time the pipeline's threads were runnable but not run (CPU
//! steal, other tenants), and the host's speed drifts between runs a
//! few seconds apart. The former estimator — wall time, the run an
//! eighth of the way up each mode's sorted series — read 0.90 to 1.16
//! over ten runs of unchanged code, and failed one run in five. The
//! same estimator over CPU time still read 0.95 to 1.21, while the
//! median paired ratio of the same runs read 1.000 to 1.010: the two
//! runs of a trial see the same host. The assertion allows 10% so
//! scheduler jitter on loaded CI runners can't flake the suite; the
//! benchmark's `obs.enabled_cost_frac` (`benchmark/run.sh --trace 1`)
//! is the precision instrument for the 3% figure itself.
//!
//! The runs record into a registry of the test's own, whose switch
//! (`Registry::set_enabled`) only they read. It starts as an empty
//! environment would configure it: no export path (no snapshot I/O in
//! the timed region) and no event log. A final run points
//! `Registry::set_export_path` at a real file and asserts the
//! current-version snapshot lands there at `StagingArea::join`.

use std::sync::Arc;
use std::time::Duration;

use predata::core::op::StreamOp;
use predata::core::ops::HistogramOp;
use predata::core::schema::make_particle_pg;
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::obs::Registry;
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

/// CPU time this process has used so far: every thread's, live or
/// exited.
fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

/// One full pipeline run (write dumps, spawn staging, join), recording
/// into `obs`; returns the CPU time of the staging side.
fn run_once(dir: &std::path::Path, obs: &Registry) -> Duration {
    let (_fabric, computes, stagings) =
        Fabric::with_faults(N_COMPUTE, N_STAGING, None, None, obs.clone());
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
    let started = process_cpu_time();
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
    process_cpu_time() - started
}

/// The median over `trials` trials of the cost of a run with span
/// recording on over that of a run with it off, the two runs of a trial
/// back to back, in alternating order.
fn paired_cost_ratio(trials: usize, dir: &std::path::Path, obs: &Registry) -> f64 {
    let mut ratios: Vec<f64> = (0..trials)
        .map(|trial| {
            let first_on = trial % 2 == 1;
            let mut cost = [Duration::ZERO; 2]; // [off, on]
            for on in [first_on, !first_on] {
                obs.set_enabled(on);
                cost[on as usize] = run_once(dir, obs);
            }
            cost[1].as_secs_f64() / cost[0].as_secs_f64().max(1e-9)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[trials / 2]
}

#[test]
fn metrics_overhead_stays_within_budget() {
    let dir = std::env::temp_dir().join(format!("obs-ovh-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // No snapshot export during the timed runs, and no event log: its
    // cost is opt-in and outside this budget.
    let obs = Registry::new();

    // Warm-up: fault in code paths, allocators, and the temp filesystem.
    obs.set_enabled(false);
    run_once(&dir, &obs);

    let ratio = paired_cost_ratio(TRIALS, &dir, &obs);
    eprintln!("metrics on/off CPU time, median of {TRIALS} trials: {ratio:.3}");
    assert!(
        ratio <= 1.10,
        "metrics-enabled pipeline costs {:.1}% more CPU than disabled; \
         budget is <3% nominal, 10% with CI slack",
        (ratio - 1.0) * 100.0
    );

    // With the measurement done, set a real export path: one more run
    // must export a current-version snapshot there at join().
    let snap_path = dir.join("override-snapshot.json");
    obs.set_export_path(Some(snap_path.clone()));
    obs.set_enabled(true);
    run_once(&dir, &obs);
    let text = std::fs::read_to_string(&snap_path)
        .expect("join() exports a snapshot to the overridden path");
    let root: serde_json::Value = serde_json::from_str(&text).expect("exported snapshot parses");
    assert_eq!(
        root.get("version").and_then(|v| v.as_u64()),
        Some(predata::obs::SNAPSHOT_VERSION)
    );

    std::fs::remove_dir_all(&dir).ok();
}
