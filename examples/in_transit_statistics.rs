//! Veracity monitoring and in-transit reduction: the use case from the
//! paper's introduction — "statistical measures that can be used to
//! validate the veracity of the ongoing simulation … and potentially,
//! take early action when the simulation operates improperly".
//!
//! A GTC-like run streams dumps through the staging area, which computes
//! per-attribute moments (watching for drift), filters the particles down
//! to a region of interest, and sorts them; the sorted slices are then
//! read back as one logical dataset via `BpFileSet`. A staging-area
//! sizing sweep (the paper's future-work model) closes the demo.
//!
//! ```text
//! cargo run --release --example in_transit_statistics
//! ```

use std::sync::Arc;

use predata::apps::GtcWorld;
use predata::bpio::BpFileSet;
use predata::core::op::{ComputeSideOp, StreamOp};
use predata::core::ops::{FilterOp, MomentsOp, RangeClause, SortOp};
use predata::core::schema::{particle_key, PARTICLE_WIDTH};
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::simhec;
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

fn main() {
    let n_compute = 8;
    let n_staging = 2;
    let n_steps = 3u64;
    let dir = std::env::temp_dir().join("predata-statistics");
    std::fs::create_dir_all(&dir).ok();

    let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| {
            vec![
                Box::new(MomentsOp::new(vec![3, 4])) as Box<dyn StreamOp>,
                Box::new(FilterOp::new(vec![RangeClause::new(2, -0.25, 0.25)])),
                Box::new(SortOp::new()),
            ]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        n_steps,
    );

    let mut world = GtcWorld::new(n_compute, 1_500, 7);
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| {
            let ops: Vec<Arc<dyn ComputeSideOp>> = vec![
                Arc::new(MomentsOp::new(vec![3, 4])),
                Arc::new(FilterOp::new(vec![RangeClause::new(2, -0.25, 0.25)])),
            ];
            PredataClient::new(e, Arc::clone(&router), ops)
        })
        .collect();
    for io_step in 0..n_steps {
        for (r, c) in clients.iter().enumerate() {
            let mut pg = world.output_pg(r);
            pg.step = io_step;
            c.write_pg(pg).unwrap();
        }
        for _ in 0..3 {
            world.step();
        }
    }

    println!("per-dump veracity monitor (parallel velocity v_par):");
    for reports in area.join() {
        for rep in reports.expect("staging ok") {
            for res in &rep.results {
                match res.op.as_str() {
                    "moments" => {
                        if let (Some(mean), Some(var), Some(skew)) = (
                            res.values.get_f64("mean_v_par"),
                            res.values.get_f64("var_v_par"),
                            res.values.get_f64("skew_v_par"),
                        ) {
                            let healthy = mean.abs() < 0.5 && var < 4.0;
                            println!(
                                "  step {}: mean {mean:+.4}  var {var:.4}  skew {skew:+.4}  -> {}",
                                rep.step,
                                if healthy {
                                    "ok"
                                } else {
                                    "ALERT: distribution drifting"
                                }
                            );
                        }
                    }
                    "filter" => {
                        if let (Some(kept), Some(factor)) = (
                            res.values.get_u64("total_kept"),
                            res.values.get_f64("reduction_factor"),
                        ) {
                            if rep.step == 0 && res.values.get_u64("rows_kept").unwrap_or(0) > 0 {
                                println!(
                                    "  step {}: midplane filter kept {kept} particles \
                                     ({factor:.1}x data reduction before disk)",
                                    rep.step
                                );
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Read the sorted output of the last step as one logical dataset.
    let parts: Vec<_> = (0..n_staging)
        .map(|r| dir.join(format!("sorted_step{}_rank{r}.bp", n_steps - 1)))
        .collect();
    let mut set = BpFileSet::open(&parts).unwrap();
    let sorted = set.read_global("particles", n_steps - 1).unwrap();
    let keys: Vec<u64> = sorted
        .as_f64()
        .unwrap()
        .chunks_exact(PARTICLE_WIDTH)
        .map(particle_key)
        .collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    println!(
        "\nsorted dataset: {} particles across {} part-files, globally ordered \
         (read as one logical array via BpFileSet)",
        keys.len(),
        set.n_parts()
    );

    // How big should the staging area be for the production configuration?
    println!("\nstaging-area sizing sweep (GTC @8192 cores, 80% interval budget):");
    let mut cfg = simhec::ScenarioConfig {
        machine: simhec::MachineConfig::xt5_like(),
        costs: simhec::OpCosts::calibrated(),
        n_compute_procs: 1024,
        procs_per_node: 1,
        threads_per_proc: 8,
        bytes_per_proc: 132e6,
        io_interval: 120.0,
        n_io_steps: 1,
        compute_burst: 2.0,
        collective_bytes_per_node: 32e6,
        staging_ratio: 64,
        staging_procs_per_node: 2,
        staging_threads_per_proc: 4,
        ops: vec![
            simhec::scenario::OpKind::Sort,
            simhec::scenario::OpKind::Histogram,
        ],
        placement: simhec::Placement::Staging,
        pull_policy: simhec::scenario::PullPolicyKind::PhaseAware,
        seed: 1,
    };
    cfg.staging_ratio = 64;
    let rec = simhec::size_staging_area(&cfg, 0.8);
    for p in &rec.sweep {
        println!(
            "  ratio {:>4}:1  ({:>4} staging cores, {:>5.2}% overhead)  pipeline {:>6.1} s  {}",
            p.ratio,
            p.staging_cores,
            p.overhead * 100.0,
            p.pipeline_time,
            if p.fits { "fits" } else { "too slow" }
        );
    }
    if let Some(best) = rec.recommended {
        println!("  -> recommended: {}:1 (cheapest that fits)", best.ratio);
    }
    std::fs::remove_dir_all(&dir).ok();
}
