//! GTC task 2 (paper §II-A): "a range query to discover the particles
//! whose coordinates fall into certain ranges. A bitmap indexing
//! technique is used to avoid scanning the whole particle array."
//!
//! End to end: the staging area builds per-chunk bitmap indexes in
//! transit; a later query loads only the indexes, prunes chunks, verifies
//! boundary candidates against the data, and must (a) return exactly the
//! naive-scan answer while (b) touching far fewer rows.

use std::sync::Arc;

use predata::apps::GtcWorld;
use predata::core::op::StreamOp;
use predata::core::ops::{BitmapIndexOp, IndexSet};
use predata::core::schema::{particles_of, PARTICLE_WIDTH};
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

#[test]
fn indexed_range_query_matches_naive_and_prunes() {
    let n_compute = 8;
    let n_staging = 2;
    let per_rank = 400;
    let column = 0; // x coordinate
    let dir = std::env::temp_dir().join(format!("rquery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // --- stage the dump, building indexes in transit ---
    let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(move |_| vec![Box::new(BitmapIndexOp::new(column, 32)) as Box<dyn StreamOp>]),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        1,
    );
    let world = GtcWorld::new(n_compute, per_rank, 77);
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| {
            PredataClient::new(
                e,
                Arc::clone(&router),
                vec![Arc::new(BitmapIndexOp::new(column, 32))],
            )
        })
        .collect();
    for (r, c) in clients.iter().enumerate() {
        c.write_pg(world.output_pg(r)).unwrap();
    }
    area.join().into_iter().for_each(|r| {
        r.expect("staging ok");
    });

    // --- query side: load indexes, plan, verify candidates only ---
    let idx_paths: Vec<_> = (0..n_staging)
        .map(|r| dir.join(format!("bitmap_x_step0_rank{r}.idx")))
        .collect();
    let set = IndexSet::load(idx_paths).unwrap();
    assert_eq!(set.total_rows(), (n_compute * per_rank) as u64);
    assert_eq!(
        set.per_chunk.len(),
        n_compute,
        "one index per compute chunk"
    );

    // A narrow x-band: most of the torus is excluded.
    let (lo, hi) = (1.0, 1.4);
    let plan = set.plan(lo, hi);

    let mut found: Vec<(u64, u64)> = Vec::new(); // (chunk rank, row)
    let mut rows_touched = 0u64;
    for (chunk_rank, q) in &plan {
        // "Read" the chunk data (from the app, standing in for the file).
        let pg = world.output_pg(*chunk_rank as usize);
        let rows = particles_of(&pg).unwrap();
        for &r in &q.hits {
            rows_touched += 1;
            found.push((*chunk_rank, r));
        }
        for &r in &q.candidates {
            rows_touched += 1;
            let x = rows[r as usize * PARTICLE_WIDTH + column];
            if (lo..=hi).contains(&x) {
                found.push((*chunk_rank, r));
            }
        }
    }
    found.sort_unstable();

    // Naive scan for ground truth.
    let mut naive: Vec<(u64, u64)> = Vec::new();
    for r in 0..n_compute {
        let pg = world.output_pg(r);
        for (i, row) in particles_of(&pg)
            .unwrap()
            .chunks_exact(PARTICLE_WIDTH)
            .enumerate()
        {
            if (lo..=hi).contains(&row[column]) {
                naive.push((r as u64, i as u64));
            }
        }
    }
    assert_eq!(found, naive, "indexed query equals the full scan");
    assert!(!naive.is_empty(), "the band is populated");

    // The point of the index: we touched a small fraction of all rows.
    let total = (n_compute * per_rank) as u64;
    assert!(
        rows_touched < total / 4,
        "index should prune most rows: touched {rows_touched} of {total}"
    );

    // A range outside the data prunes every chunk.
    assert!(set.plan(100.0, 200.0).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
