//! End-to-end GTC pipeline: simulated particle-in-cell ranks write
//! through PreDatA clients; a staging area sorts, histograms, and indexes
//! every dump; outputs are verified against ground truth.

use std::path::PathBuf;
use std::sync::Arc;

use predata::apps::GtcWorld;
use predata::core::op::StreamOp;
use predata::core::ops::{BitmapIndexOp, Histogram2dOp, HistogramOp, SortOp};
use predata::core::schema::{particle_key, PARTICLE_WIDTH};
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::ffs::Value;
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

fn out_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("e2e-gtc-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn gtc_three_steps_sort_hist_index() {
    let n_compute = 8;
    let n_staging = 2;
    let particles = 120;
    let n_steps = 3u64;

    let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
    let dir = out_dir("main");

    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| {
            vec![
                Box::new(SortOp::new()) as Box<dyn StreamOp>,
                Box::new(HistogramOp::new(vec![0, 3], 16)),
                Box::new(Histogram2dOp::new(vec![(0, 1)], 8)),
                Box::new(BitmapIndexOp::new(2, 8)),
            ]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        n_steps,
    );

    // Compute side on its own threads: each rank owns a PreDatA client and
    // writes its dump each "I/O interval"; the world is stepped centrally.
    let mut world = GtcWorld::new(n_compute, particles, 2026);
    let expected_labels = world.all_labels();
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| {
            let ops: Vec<Arc<dyn predata::core::op::ComputeSideOp>> = vec![
                Arc::new(SortOp::new()),
                Arc::new(HistogramOp::new(vec![0, 3], 16)),
            ];
            PredataClient::new(e, Arc::clone(&router), ops)
        })
        .collect();

    for io_step in 0..n_steps {
        for (r, c) in clients.iter().enumerate() {
            // Dumps are numbered by I/O step, not by inner iteration.
            let mut pg = world.output_pg(r);
            pg.step = io_step;
            c.write_pg(pg).unwrap();
        }
        // Advance the "simulation" while staging works asynchronously.
        for _ in 0..4 {
            world.step();
        }
    }

    let reports = area.join();
    let total_particles = (n_compute * particles) as u64;

    for (rank, rank_reports) in reports.into_iter().enumerate() {
        let steps = rank_reports.unwrap_or_else(|e| panic!("staging rank {rank}: {e}"));
        assert_eq!(steps.len(), n_steps as usize);
        for rep in &steps {
            assert_eq!(rep.chunks, n_compute / n_staging);
            assert_eq!(rep.results.len(), 4);
        }
    }

    // --- verify every step's outputs from the files ---
    for step in 0..n_steps {
        // Sorted slices: concatenation ordered by key, all labels present.
        let mut slices: Vec<(u64, Vec<u64>)> = Vec::new();
        let mut total_sorted = 0u64;
        for rank in 0..n_staging {
            let path = dir.join(format!("sorted_step{step}_rank{rank}.bp"));
            let mut r = predata::bpio::BpReader::open(&path)
                .unwrap_or_else(|e| panic!("open {path:?}: {e}"));
            let idx = r.index().chunks_of("particles", step)[0].clone();
            let rows = r
                .read_box("particles", step, &idx.offset_in_global, &idx.local)
                .unwrap();
            let keys: Vec<u64> = rows
                .as_f64()
                .unwrap()
                .chunks_exact(PARTICLE_WIDTH)
                .map(particle_key)
                .collect();
            total_sorted += keys.len() as u64;
            slices.push((idx.offset_in_global[0], keys));
        }
        assert_eq!(
            total_sorted, total_particles,
            "step {step}: no particle lost"
        );
        slices.sort_by_key(|(o, _)| *o);
        let all: Vec<u64> = slices.into_iter().flat_map(|(_, k)| k).collect();
        assert!(
            all.windows(2).all(|w| w[0] <= w[1]),
            "step {step}: global order"
        );
        let labels: Vec<(u64, u64)> = all.iter().map(|k| (k >> 32, k & 0xffff_ffff)).collect();
        assert_eq!(labels, expected_labels, "step {step}: labels conserved");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn histogram_totals_equal_particle_count() {
    let n_compute = 4;
    let (_fabric, computes, stagings) = Fabric::new(n_compute, 2, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 2));
    let dir = out_dir("hist");

    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| vec![Box::new(HistogramOp::all_attrs(32)) as Box<dyn StreamOp>]),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        1,
    );

    let world = GtcWorld::new(n_compute, 250, 11);
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| {
            PredataClient::new(
                e,
                Arc::clone(&router),
                vec![Arc::new(HistogramOp::all_attrs(32))],
            )
        })
        .collect();
    for (r, c) in clients.iter().enumerate() {
        c.write_pg(world.output_pg(r)).unwrap();
    }

    let mut per_attr_totals = std::collections::HashMap::new();
    for rr in area.join() {
        for rep in rr.unwrap() {
            for res in rep.results {
                for (name, v) in res.values.iter() {
                    if let Value::ArrU64(bins) = v {
                        *per_attr_totals.entry(name.to_string()).or_insert(0u64) +=
                            bins.iter().sum::<u64>();
                    }
                }
            }
        }
    }
    assert_eq!(per_attr_totals.len(), 8, "one histogram per attribute");
    for (name, total) in per_attr_totals {
        assert_eq!(total, 1000, "histogram `{name}` counts all particles");
    }
    std::fs::remove_dir_all(&dir).ok();
}
