//! Determinism of the staging worker pool: every operator's results must
//! be **bit-identical** whatever `StagingConfig::map_workers`
//! (`PREDATA_MAP_WORKERS`) is set to.
//!
//! The pipeline guarantees this by construction — `map_chunk` is
//! per-chunk pure, and the collector merges per-chunk outputs in policy
//! (slot) order before `combine`, the single point where floating-point
//! accumulation happens — but the guarantee is only as good as the test
//! that pins it. This runs the same multi-operator workload at 1, 2, and
//! 8 workers and compares entire step reports.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use predata::core::op::StreamOp;
use predata::core::ops::{FilterOp, HistogramOp, MomentsOp, RangeClause, SortOp};
use predata::core::schema::make_particle_pg;
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::ffs::AttrList;
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

const N_COMPUTE: usize = 8;
const N_STAGING: usize = 2;
const N_STEPS: u64 = 2;
const ROWS_PER_DUMP: usize = 64;

/// Deterministic pseudo-random particle rows (xorshift-scattered), so
/// the floating-point inputs exercise non-trivial accumulation.
fn dump(rank: u64, step: u64) -> Vec<f64> {
    let mut s = rank
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(step)
        .wrapping_add(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 // in [0, 1)
    };
    let mut rows = Vec::with_capacity(ROWS_PER_DUMP * 8);
    for id in 0..ROWS_PER_DUMP as u64 {
        // x, y, z, vx, vy, weight free-form; rank/id are the label.
        for _ in 0..6 {
            rows.push(next() * 16.0 - 8.0);
        }
        rows.push(rank as f64);
        rows.push(id as f64);
    }
    rows
}

fn make_ops() -> Vec<Box<dyn StreamOp>> {
    vec![
        Box::new(HistogramOp::new(vec![0, 5], 16)),
        Box::new(MomentsOp::new(vec![0, 1, 2])),
        Box::new(SortOp::new()),
        Box::new(FilterOp::new(vec![RangeClause::new(0, -4.0, 4.0)])),
    ]
}

/// Everything a [`predata::core::staging::StepReport`] says, with file
/// paths reduced to names (the out_dir differs per run by design).
#[derive(Debug, PartialEq)]
struct ReportFingerprint {
    step: u64,
    chunks: usize,
    bytes_pulled: u64,
    pull_order: Vec<usize>,
    results: Vec<(String, AttrList, Vec<String>)>,
}

fn run_area(workers: usize, dir: &Path) -> Vec<Vec<ReportFingerprint>> {
    let (_fabric, computes, stagings) = Fabric::new(N_COMPUTE, N_STAGING, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(N_COMPUTE, N_STAGING));

    // Write every dump up front so request arrival order (and with it the
    // FIFO pull order) is identical across runs.
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| {
            PredataClient::new(
                e,
                Arc::clone(&router),
                vec![
                    Arc::new(HistogramOp::new(vec![0, 5], 16)),
                    Arc::new(SortOp::new()),
                ],
            )
        })
        .collect();
    for step in 0..N_STEPS {
        for (r, c) in clients.iter().enumerate() {
            c.write_pg(make_particle_pg(r as u64, step, dump(r as u64, step)))
                .unwrap();
        }
    }

    let mut cfg = StagingConfig::new(N_COMPUTE, dir);
    cfg.map_workers = workers;
    let area = StagingArea::spawn(
        stagings,
        router,
        Arc::new(|_| make_ops()),
        Arc::new(|_| Box::new(FifoPolicy::default()) as Box<dyn PullPolicy>),
        cfg,
        N_STEPS,
    );
    area.join()
        .into_iter()
        .map(|rank_reports| {
            rank_reports
                .expect("staging rank succeeds")
                .into_iter()
                .map(|rep| ReportFingerprint {
                    step: rep.step,
                    chunks: rep.chunks,
                    bytes_pulled: rep.bytes_pulled,
                    pull_order: rep.pull_order,
                    results: rep
                        .results
                        .into_iter()
                        .map(|r| {
                            let names = r
                                .files
                                .iter()
                                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                                .collect();
                            (r.op, r.values, names)
                        })
                        .collect(),
                })
                .collect()
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("worker-inv-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn results_identical_across_worker_counts() {
    let dirs: Vec<PathBuf> = [1usize, 2, 8]
        .iter()
        .map(|w| out_dir(&w.to_string()))
        .collect();
    let baseline = run_area(1, &dirs[0]);
    assert_eq!(baseline.len(), N_STAGING);
    assert!(baseline
        .iter()
        .all(|steps| steps.iter().all(|s| s.chunks == N_COMPUTE / N_STAGING)));

    for (w, dir) in [(2usize, &dirs[1]), (8, &dirs[2])] {
        let got = run_area(w, dir);
        assert_eq!(
            got, baseline,
            "step reports diverged between 1 worker and {w} workers"
        );
    }
    for d in dirs {
        std::fs::remove_dir_all(&d).ok();
    }
}
