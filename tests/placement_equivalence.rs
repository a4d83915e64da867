//! Placement flexibility is PreDatA's core claim: the *same* operator
//! produces the *same* results whether it runs on compute nodes or in the
//! staging area. These tests run both placements over identical inputs
//! and require identical outputs.

use std::path::PathBuf;
use std::sync::Arc;

use predata::apps::GtcWorld;
use predata::core::op::StreamOp;
use predata::core::ops::{Histogram2dOp, HistogramOp};
use predata::core::{InComputeRunner, PredataClient, StagingArea, StagingConfig};
use predata::ffs::Value;
use predata::minimpi::World;
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

fn out_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("placement-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Collect every ArrU64 value from a set of OpResults into (name → bins).
fn collect_bins(
    values: impl Iterator<Item = (String, Vec<u64>)>,
) -> std::collections::BTreeMap<String, Vec<u64>> {
    values.collect()
}

#[test]
fn histograms_identical_across_placements() {
    let n_compute = 6;
    let world = GtcWorld::new(n_compute, 90, 77);

    // --- Staging placement ---
    let dir_s = out_dir("staged");
    let (_fabric, computes, stagings) = Fabric::new(n_compute, 3, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 3));
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| {
            vec![
                Box::new(HistogramOp::new(vec![0, 4], 12)) as Box<dyn StreamOp>,
                Box::new(Histogram2dOp::new(vec![(0, 3)], 6)),
            ]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir_s),
        1,
    );
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| {
            PredataClient::new(
                e,
                Arc::clone(&router),
                vec![Arc::new(HistogramOp::new(vec![0, 4], 12))],
            )
        })
        .collect();
    for (r, c) in clients.iter().enumerate() {
        c.write_pg(world.output_pg(r)).unwrap();
    }
    let staged = collect_bins(area.join().into_iter().flat_map(|r| {
        r.unwrap().into_iter().flat_map(|rep| {
            rep.results.into_iter().flat_map(|res| {
                res.values
                    .iter()
                    .filter_map(|(n, v)| match v {
                        Value::ArrU64(b) => Some((n.to_string(), b.clone())),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
        })
    }));

    // --- In-Compute-Node placement, same input ---
    let dir_i = out_dir("innode");
    let pgs: Vec<_> = (0..n_compute).map(|r| world.output_pg(r)).collect();
    let results = World::run(n_compute, move |comm| {
        let pg = pgs[comm.rank()].clone();
        let h1 = HistogramOp::new(vec![0, 4], 12);
        let mut ops: Vec<Box<dyn StreamOp>> = vec![
            Box::new(HistogramOp::new(vec![0, 4], 12)),
            Box::new(Histogram2dOp::new(vec![(0, 3)], 6)),
        ];
        let dir = std::env::temp_dir().join(format!(
            "placement-innode-{}-{}",
            std::process::id(),
            comm.rank()
        ));
        let res = InComputeRunner::run_step(&comm, pg, &mut ops, &[&h1], &dir);
        std::fs::remove_dir_all(&dir).ok();
        res
    });
    let innode = collect_bins(results.into_iter().flat_map(|rank_res| {
        rank_res.into_iter().flat_map(|res| {
            res.values
                .iter()
                .filter_map(|(n, v)| match v {
                    Value::ArrU64(b) => Some((n.to_string(), b.clone())),
                    _ => None,
                })
                .collect::<Vec<_>>()
        })
    }));

    assert!(!staged.is_empty());
    assert_eq!(staged, innode, "identical results regardless of placement");
    std::fs::remove_dir_all(&dir_s).ok();
    std::fs::remove_dir_all(&dir_i).ok();
}
