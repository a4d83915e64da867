//! Placement flexibility is PreDatA's core claim: the *same* operator
//! produces the *same* results whether it runs on compute nodes or in the
//! staging area. These tests run both placements over identical inputs
//! and require identical outputs. The operators' tags collide (the sort's
//! destination ranks, the histograms' columns, the index's chunk ranks),
//! and in both placements they share one exchange per step.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use predata::apps::GtcWorld;
use predata::core::op::StreamOp;
use predata::core::ops::{BitmapIndexOp, Histogram2dOp, HistogramOp, SortOp};
use predata::core::{InComputeRunner, PredataClient, StagingArea, StagingConfig};
use predata::ffs::Value;
use predata::minimpi::World;
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

fn out_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("placement-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The histograms, the sort and the bitmap index, in one step.
fn make_ops() -> Vec<Box<dyn StreamOp>> {
    vec![
        Box::new(HistogramOp::new(vec![0, 4], 12)),
        Box::new(SortOp::new()),
        Box::new(Histogram2dOp::new(vec![(0, 3)], 6)),
        Box::new(BitmapIndexOp::new(4, 8)),
    ]
}

/// Per-rank counts whose sum over the pipeline ranks does not depend on
/// how many ranks there are.
const SHARES: [&str; 4] = ["np_sorted", "indexed_chunks", "indexed_rows", "index_bytes"];

/// Every ArrU64 value of a set of OpResults (name → bins), and the sum of
/// every share in [`SHARES`] (name → [sum]).
fn collect_values(
    results: impl IntoIterator<Item = predata::core::op::OpResult>,
) -> BTreeMap<String, Vec<u64>> {
    let mut out = BTreeMap::new();
    for res in results {
        for (name, value) in res.values.iter() {
            match value {
                Value::ArrU64(b) => {
                    out.insert(name.to_string(), b.clone());
                }
                Value::U64(n) if SHARES.contains(&name) => {
                    out.entry(name.to_string()).or_insert(vec![0])[0] += n;
                }
                _ => {}
            }
        }
    }
    out
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
        Arc::new(|_| make_ops()),
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
    let staged = collect_values(
        area.join()
            .into_iter()
            .flat_map(|r| r.unwrap().into_iter().flat_map(|rep| rep.results)),
    );

    // --- In-Compute-Node placement, same input ---
    let dir_i = out_dir("innode");
    let pgs: Vec<_> = (0..n_compute).map(|r| world.output_pg(r)).collect();
    let results = World::run(n_compute, move |comm| {
        let pg = pgs[comm.rank()].clone();
        let h1 = HistogramOp::new(vec![0, 4], 12);
        let mut ops = make_ops();
        let dir = std::env::temp_dir().join(format!(
            "placement-innode-{}-{}",
            std::process::id(),
            comm.rank()
        ));
        let res = InComputeRunner::run_step(&comm, pg, &mut ops, &[&h1], &dir);
        std::fs::remove_dir_all(&dir).ok();
        res
    });
    let innode = collect_values(results.into_iter().flatten());

    assert_eq!(staged.len(), 3 + SHARES.len(), "{staged:?}");
    // Every particle was sorted once and indexed once.
    assert!(staged["np_sorted"][0] > 0);
    assert_eq!(staged["np_sorted"], staged["indexed_rows"]);
    assert_eq!(staged, innode, "identical results regardless of placement");
    std::fs::remove_dir_all(&dir_s).ok();
    std::fs::remove_dir_all(&dir_i).ok();
}
