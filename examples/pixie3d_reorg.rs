//! Pixie3D array re-organization (paper §II-B, Fig. 2 and Fig. 11): the
//! staging area merges scattered per-process chunks of eight 3-D global
//! arrays into contiguous slabs, then a reader compares the I/O plan cost
//! of the merged vs unmerged layout.
//!
//! ```text
//! cargo run --release --example pixie3d_reorg
//! ```

use std::sync::Arc;

use predata::apps::PixieWorld;
use predata::bpio::{BpReader, BpWriter};
use predata::core::op::{ComputeSideOp, StreamOp};
use predata::core::ops::ReorgOp;
use predata::core::schema::PIXIE_FIELDS;
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

fn main() {
    // 4x4x4 = 64 "compute ranks" with 16^3 local boxes → 64^3 global.
    let world = PixieWorld::new([4, 4, 4], [16, 16, 16]);
    let n_compute = world.n_ranks();
    let n_staging = 4;
    let dir = std::env::temp_dir().join("predata-pixie-reorg");
    std::fs::create_dir_all(&dir).ok();

    println!(
        "Pixie3D-like run: {n_compute} ranks, {}^3 local boxes, global {:?}",
        16,
        world.global_dims()
    );

    let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| vec![Box::new(ReorgOp::pixie3d()) as Box<dyn StreamOp>]),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        1,
    );

    // Write both layouts from the same data.
    let unmerged_path = dir.join("unmerged.bp");
    let mut unmerged = BpWriter::create(&unmerged_path).unwrap();
    for (r, endpoint) in computes.into_iter().enumerate() {
        let ops: Vec<Arc<dyn ComputeSideOp>> = vec![Arc::new(ReorgOp::pixie3d())];
        let client = PredataClient::new(endpoint, Arc::clone(&router), ops);
        let pg = world.output_pg(r);
        unmerged.append_pg(&pg).unwrap(); // In-Compute-Node layout
        client.write_pg(pg).unwrap(); // staged + merged layout
    }
    unmerged.finish().unwrap();
    area.join().into_iter().for_each(|r| {
        r.expect("staging ok");
    });

    // Read one global array back from each layout and compare I/O plans —
    // the laptop-scale shape of paper Fig. 11.
    println!("\nreading global `rho` (64^3 doubles = 2 MiB) from each layout:");
    let mut ur = BpReader::open(&unmerged_path).unwrap();
    let t = std::time::Instant::now();
    let from_unmerged = ur.read_global("rho", 0).unwrap();
    let ut = t.elapsed();
    let us = ur.take_stats();
    println!(
        "  unmerged ({n_compute} chunks): {:>6} read ops, {:>6} seeks, {:>9} bytes, {:>8.2} ms",
        us.reads,
        us.seeks,
        us.bytes,
        ut.as_secs_f64() * 1e3
    );

    let mut merged_reads = 0;
    let mut merged_seeks = 0;
    let mut merged_bytes = 0;
    let mut merged_time = std::time::Duration::ZERO;
    let mut assembled = vec![0.0f64; from_unmerged.len()];
    for rank in 0..n_staging {
        let mut mr = BpReader::open(dir.join(format!("merged_step0_rank{rank}.bp"))).unwrap();
        let idx = mr.index().chunks_of("rho", 0)[0].clone();
        let t = std::time::Instant::now();
        let slab = mr
            .read_box("rho", 0, &idx.offset_in_global, &idx.local)
            .unwrap();
        merged_time += t.elapsed();
        let ms = mr.take_stats();
        merged_reads += ms.reads;
        merged_seeks += ms.seeks;
        merged_bytes += ms.bytes;
        let lo = (idx.offset_in_global[0] * 64 * 64) as usize;
        assembled[lo..lo + slab.len()].copy_from_slice(slab.as_f64().unwrap());
    }
    println!(
        "  merged   ({n_staging} slabs):  {:>6} read ops, {:>6} seeks, {:>9} bytes, {:>8.2} ms",
        merged_reads,
        merged_seeks,
        merged_bytes,
        merged_time.as_secs_f64() * 1e3
    );
    println!(
        "  read-op reduction: {:.0}x fewer operations",
        us.reads as f64 / merged_reads as f64
    );
    assert_eq!(
        assembled,
        from_unmerged.as_f64().unwrap(),
        "layouts hold identical data"
    );

    // The other seven fields merged correctly too.
    for f in PIXIE_FIELDS {
        let mr = BpReader::open(dir.join("merged_step0_rank0.bp")).unwrap();
        assert!(
            mr.index().chunks_of(f, 0).len() == 1,
            "{f} is one contiguous slab"
        );
    }
    println!("\nall eight fields verified identical across layouts");
    std::fs::remove_dir_all(&dir).ok();
}
