//! Quickstart: the smallest useful PreDatA pipeline.
//!
//! Four compute ranks write particle dumps through PreDatA clients; two
//! staging ranks pull them asynchronously and compute a histogram in
//! transit. Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use predata::core::op::{ComputeSideOp, StreamOp};
use predata::core::ops::HistogramOp;
use predata::core::schema::make_particle_pg;
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::ffs::Value;
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

fn main() {
    let n_compute = 4;
    let n_staging = 2;
    let out_dir = std::env::temp_dir().join("predata-quickstart");

    // 1. A fabric connects compute endpoints to staging endpoints
    //    (in production this is the machine's RDMA network).
    let (fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));

    // 2. Launch the staging area: its own little "MPI program" with one
    //    in-transit operation plugged in.
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_rank| vec![Box::new(HistogramOp::new(vec![0], 8)) as Box<dyn StreamOp>]),
        Arc::new(|_rank| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &out_dir),
        1, // one I/O step
    );

    // 3. Compute side: each rank writes its dump and moves on.
    for (rank, endpoint) in computes.into_iter().enumerate() {
        let ops: Vec<Arc<dyn ComputeSideOp>> = vec![Arc::new(HistogramOp::new(vec![0], 8))];
        let client = PredataClient::new(endpoint, Arc::clone(&router), ops);
        // 100 particles per rank, x uniform-ish over [0, 4).
        let rows: Vec<f64> = (0..100)
            .flat_map(|i| {
                vec![
                    (i % 4) as f64 + 0.5,
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                    1.0,
                    rank as f64,
                    i as f64,
                ]
            })
            .collect();
        let receipt = client
            .write_pg(make_particle_pg(rank as u64, 0, rows))
            .unwrap();
        println!(
            "compute rank {rank}: exposed {} bytes -> staging rank {} (non-blocking)",
            receipt.bytes, receipt.staging_rank
        );
    }

    // 4. Collect what the staging area computed while the "simulation"
    //    would have kept running.
    for (rank, reports) in area.join().into_iter().enumerate() {
        for report in reports.expect("staging succeeded") {
            println!(
                "staging rank {rank}: pulled {} chunks ({} bytes) in order {:?}",
                report.chunks, report.bytes_pulled, report.pull_order
            );
            for result in report.results {
                if let Some(Value::ArrU64(bins)) = result.values.get("hist_x") {
                    println!("  in-transit histogram of x: {bins:?}");
                }
                for f in result.files {
                    println!("  wrote {}", f.display());
                }
            }
        }
    }
    println!(
        "fabric stats: {} RDMA gets, {} bytes pulled, peak pinned {} bytes",
        fabric.stats().rdma_gets(),
        fabric.stats().bytes_pulled(),
        fabric.stats().peak_pinned_bytes()
    );
    std::fs::remove_dir_all(&out_dir).ok();
}
