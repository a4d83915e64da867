//! Determinism of stage 4: every operator's results and every output
//! file must be **bit-identical** whatever
//! `StagingConfig::map_workers` is set to.
//!
//! The pipeline guarantees this by construction — `map_chunk` is
//! per-chunk pure, and whichever thread maps which run, the parts are
//! concatenated in policy order before `combine`, the single point where
//! floating-point accumulation happens — but the guarantee is only as
//! good as the test that pins it. This runs the same multi-operator
//! workload at 1, 2, and 8 workers (the rank thread alone; with one
//! helper; with as many as the step has runs for) in two shapes — a few
//! chunks far smaller than a run, and 66 chunks of which most share a
//! run, one is a run of its own and one is skipped by an exhausted fault
//! schedule — and compares entire step reports and output directories.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use predata::core::op::StreamOp;
use predata::core::ops::{FilterOp, HistogramOp, MomentsOp, RangeClause, SortOp};
use predata::core::schema::make_particle_pg;
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::ffs::AttrList;
use predata::transport::{
    BlockRouter, Fabric, FaultKind, FaultPlan, FifoPolicy, PullPolicy, RetryPolicy, Router,
};

const N_STAGING: usize = 2;
const N_STEPS: u64 = 2;

/// One workload: how many compute ranks, how many particle rows each
/// writes per step, and the fault schedule the pulls run under.
struct Shape<'a> {
    tag: &'static str,
    n_compute: usize,
    rows: fn(usize) -> usize,
    faults: Option<&'a dyn Fn() -> FaultPlan>,
}

/// Deterministic pseudo-random particle rows (xorshift-scattered), so
/// the floating-point inputs exercise non-trivial accumulation.
fn dump(rank: u64, step: u64, n_rows: usize) -> Vec<f64> {
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
    let mut rows = Vec::with_capacity(n_rows * 8);
    for id in 0..n_rows as u64 {
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
    truncated: Vec<usize>,
    results: Vec<(String, AttrList, Vec<String>)>,
}

/// Every file of `dir`, by name.
fn files_of(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

fn run_area(shape: &Shape, workers: usize, dir: &Path) -> Vec<Vec<ReportFingerprint>> {
    let n_compute = shape.n_compute;
    let faults = shape.faults.map(|plan| Arc::new(plan()));
    let (_fabric, computes, stagings) = Fabric::with_faults(n_compute, N_STAGING, None, faults);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, N_STAGING));

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
            let rows = dump(r as u64, step, (shape.rows)(r));
            c.write_pg(make_particle_pg(r as u64, step, rows)).unwrap();
        }
    }

    let mut cfg = StagingConfig::new(n_compute, dir);
    cfg.map_workers = Some(workers);
    // A pull the schedule always fails is given up after three tries.
    cfg.retry = RetryPolicy::default()
        .attempts(3)
        .base_backoff(Duration::from_micros(100));
    let area = StagingArea::spawn(
        stagings,
        router,
        Arc::new(|_| make_ops()),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
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
                    truncated: rep.truncated,
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

/// Run `shape` at 1, 2 and 8 workers; reports and files must not differ.
/// Returns the one-worker reports.
fn identical_at_every_worker_count(shape: &Shape) -> Vec<Vec<ReportFingerprint>> {
    let dir = out_dir(&format!("{}-1", shape.tag));
    let baseline = run_area(shape, 1, &dir);
    let baseline_files = files_of(&dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(baseline.len(), N_STAGING);
    assert!(!baseline_files.is_empty());
    for w in [2, 8] {
        let dir = out_dir(&format!("{}-{w}", shape.tag));
        let got = run_area(shape, w, &dir);
        let files = files_of(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            got, baseline,
            "{}: step reports diverged between 1 worker and {w} workers",
            shape.tag
        );
        assert!(
            files == baseline_files,
            "{}: output files diverged between 1 worker and {w} workers",
            shape.tag
        );
    }
    baseline
}

#[test]
fn results_identical_across_worker_counts() {
    let few_small = Shape {
        tag: "few-small",
        n_compute: 8,
        rows: |_| 64,
        faults: None,
    };
    let reports = identical_at_every_worker_count(&few_small);
    assert!(reports.iter().all(|steps| steps
        .iter()
        .all(|s| s.chunks == 4 && s.truncated.is_empty())));
}

/// 66 ranks: 32 KiB chunks, several to a 256 KiB run, but for rank 5,
/// whose 320 KiB chunk is a run of its own — and the schedule drops every
/// pull of exactly one chunk of step 1, so that step maps a run with a
/// hole in it.
#[test]
fn runs_and_a_skipped_chunk_are_identical_across_worker_counts() {
    const N: usize = 66;
    const BIG: usize = 5;
    let plan = |seed| FaultPlan::new(seed).drop_chunks(1.0 / N as f64).steps(1..2);
    let victims = |seed| -> Vec<usize> {
        (0..N)
            .filter(|&r| plan(seed).selects(FaultKind::Drop, r as u64, 1))
            .collect()
    };
    let seed = (0..)
        .find(|&s| matches!(victims(s)[..], [v] if v != BIG))
        .unwrap();
    let victim = victims(seed)[0];
    let many_small = Shape {
        tag: "runs-and-skip",
        n_compute: N,
        rows: |r| if r == BIG { 5120 } else { 512 },
        faults: Some(&|| plan(seed)),
    };
    let reports = identical_at_every_worker_count(&many_small);
    for (rank, steps) in reports.iter().enumerate() {
        assert!(steps.iter().all(|s| s.chunks == N / N_STAGING));
        assert!(steps[0].truncated.is_empty());
        let serves_victim = victim / (N / N_STAGING) == rank;
        assert_eq!(
            steps[1].truncated,
            if serves_victim { vec![victim] } else { vec![] }
        );
    }
}
