//! GTC online monitoring (paper §II-A, Fig. 1): a particle-in-cell
//! simulation dumps particle data every interval; the staging area sorts
//! by label, builds 1-D and 2-D histograms, and bitmap-indexes a
//! coordinate — all in transit, while the simulation keeps iterating.
//!
//! Per-chunk lineage is on for the run (unless `PREDATA_LINEAGE`
//! explicitly disables it), and the simulation's iterations run under a
//! `compute` span, so the final printout includes the paper's §V
//! perturbation view: per-step compute
//! time vs time blocked in the output path. Export a full snapshot with
//! `PREDATA_METRICS=/path/snapshot.json` and render the critical-path
//! and straggler views with `predata-report`.
//!
//! ```text
//! cargo run --release --example gtc_monitoring
//! ```

use std::sync::Arc;
use std::time::Instant;

use predata::apps::GtcWorld;
use predata::core::op::{ComputeSideOp, StreamOp};
use predata::core::ops::{BitmapIndexOp, Histogram2dOp, HistogramOp, SortOp};
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::ffs::Value;
use predata::transport::{BlockRouter, Fabric, LargestFirstPolicy, PullPolicy, Router};

fn main() {
    let n_compute = 16;
    let n_staging = 4;
    let particles_per_rank = 2_000;
    let n_steps = 4u64;
    let iterations_per_interval = 5;
    let out_dir = std::env::temp_dir().join("predata-gtc-monitoring");
    std::fs::create_dir_all(&out_dir).ok();

    // Chunk lineage on by default for the demo; an explicit
    // PREDATA_LINEAGE setting (e.g. `=0`) still wins.
    if std::env::var_os("PREDATA_LINEAGE").is_none() {
        predata::obs::lineage::set_enabled(true);
    }

    println!(
        "GTC-like run: {n_compute} compute ranks x {particles_per_rank} particles, \
         {n_staging} staging ranks ({}:1), {n_steps} dumps",
        n_compute / n_staging
    );

    let (fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));

    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| {
            vec![
                Box::new(SortOp::new()) as Box<dyn StreamOp>,
                Box::new(HistogramOp::new(vec![0, 3, 4], 32)),
                Box::new(Histogram2dOp::new(vec![(3, 4)], 16)),
                Box::new(BitmapIndexOp::new(0, 16)),
            ]
        }),
        Arc::new(|_| Box::new(LargestFirstPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &out_dir),
        n_steps,
    );

    let mut world = GtcWorld::new(n_compute, particles_per_rank, 42);
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| {
            let ops: Vec<Arc<dyn ComputeSideOp>> = vec![
                Arc::new(SortOp::new()),
                Arc::new(HistogramOp::new(vec![0, 3, 4], 32)),
            ];
            PredataClient::new(e, Arc::clone(&router), ops)
        })
        .collect();

    let t0 = Instant::now();
    for io_step in 0..n_steps {
        // --- I/O point: pack-and-go, then keep simulating ---
        let t_io = Instant::now();
        for (r, c) in clients.iter().enumerate() {
            let mut pg = world.output_pg(r);
            pg.step = io_step;
            c.write_pg(pg).unwrap();
        }
        let blocking = t_io.elapsed();
        println!(
            "dump {io_step}: visible I/O blocking {:>8.3} ms, displaced particles {:.1}%",
            blocking.as_secs_f64() * 1e3,
            world.displaced_fraction() * 100.0
        );
        let _compute = predata::obs::span!("compute", io_step);
        for _ in 0..iterations_per_interval {
            world.step(); // simulation continues while staging pulls
        }
    }

    // Monitoring feed: one statistic per dump (here from the app's own
    // metric); healthy steps are filtered out, drifted ones alert.
    let alerts: Vec<(u64, f64)> = (0..n_steps)
        .map(|step| (step, 0.2 + 0.15 * step as f64))
        .filter(|&(_, displaced)| displaced > 0.5)
        .collect();
    println!(
        "monitor: {} alerts, {} healthy steps filtered",
        alerts.len(),
        n_steps as usize - alerts.len()
    );
    for (step, displaced) in alerts {
        println!("  ALERT step {step}: displaced fraction {displaced:.2}");
    }

    let mut monitored_steps = 0;
    for reports in area.join() {
        for rep in reports.expect("staging ok") {
            monitored_steps += 1;
            for res in &rep.results {
                if res.op == "histogram" {
                    if let Some(Value::ArrU64(bins)) = res.values.get("hist_v_par") {
                        let peak = bins.iter().enumerate().max_by_key(|(_, c)| **c).unwrap();
                        println!(
                            "  step {} monitor: v_par histogram peak at bin {} ({} particles)",
                            rep.step, peak.0, peak.1
                        );
                    }
                }
                if res.op == "bitmap_index" {
                    println!(
                        "  step {} index: {} chunks, {} rows, {} index bytes",
                        rep.step,
                        res.values.get_u64("indexed_chunks").unwrap_or(0),
                        res.values.get_u64("indexed_rows").unwrap_or(0),
                        res.values.get_u64("index_bytes").unwrap_or(0)
                    );
                }
            }
        }
    }
    println!(
        "total: {monitored_steps} staged step-reports in {:.2} s wall; \
         {} RDMA gets moved {:.1} MB",
        t0.elapsed().as_secs_f64(),
        fabric.stats().rdma_gets(),
        fabric.stats().bytes_pulled() as f64 / 1e6
    );

    // Perturbation summary (paper §V): how much of each interval the
    // simulation spent computing vs blocked in the output path, and the
    // transport activity concurrent with it.
    let snap = predata::obs::global().snapshot();
    let perturb = snap.perturb();
    if !perturb.is_empty() {
        println!("perturbation (compute vs output blocking per dump):");
        for (step, stat) in perturb {
            let pct = stat
                .blocked_fraction()
                .map(|f| format!("{:.2}%", f * 100.0))
                .unwrap_or_else(|| "-".into());
            println!(
                "  dump {step}: compute {:>8.3} ms, blocked {:>7.3} ms ({pct}), \
                 {} pulls / {:.1} MB in flight",
                stat.compute_ns as f64 / 1e6,
                stat.blocked_ns as f64 / 1e6,
                stat.pulls,
                stat.pull_bytes as f64 / 1e6
            );
        }
    }
    let complete = snap.lineage().iter().filter(|c| c.is_complete()).count();
    if !snap.lineage().is_empty() {
        println!(
            "lineage: {complete}/{} chunks completed the full pipeline",
            snap.lineage().len()
        );
    }
    std::fs::remove_dir_all(&out_dir).ok();
}
