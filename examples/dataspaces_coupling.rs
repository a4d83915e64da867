//! Model-to-model coupling through DataSpaces (paper §IV-D, Fig. 6):
//! a producer indexes GTC particle data into the shared space while a
//! consumer application queries sub-regions, aggregates, and receives a
//! continuous query's update per commit — the put()/get() coupling
//! pattern.
//!
//! ```text
//! cargo run --release --example dataspaces_coupling
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use predata::apps::GtcWorld;
use predata::bpio::DataArray;
use predata::core::schema::{COL_ID, COL_RANK, PARTICLE_WIDTH};
use predata::dataspaces::{
    DataSpaces, DsConfig, QueryService, QueryServiceConfig, Reduction, Region,
};

fn main() {
    let n_ranks = 8u64;
    let ids_per_rank = 512u64;
    let world = GtcWorld::new(n_ranks as usize, ids_per_rank as usize, 123);

    // The paper's domain: (local id, rank), uniformly distributed across
    // the staging cores — here 8 shards.
    let ds = Arc::new(DataSpaces::new(DsConfig::gtc_particles(
        n_ranks,
        ids_per_rank,
        8,
    )));
    println!(
        "DataSpaces over a {}x{} (id, rank) domain, {} shards",
        ids_per_rank,
        n_ranks,
        ds.config().n_shards
    );

    // A monitoring consumer registers a continuous query before any data:
    // on every commit, count the filled cells of ids 0..8 of rank 0.
    let service = QueryService::new(Arc::clone(&ds), QueryServiceConfig::default());
    let watch = Region::new(vec![0, 0], vec![8, 1]);
    let updates = service.subscribe_reduce("v_par", watch, Reduction::Count, 4);

    // Querying application: 4 consumer threads, 11 consecutive queries
    // each over disjoint regions (the Fig. 9 workload pattern).
    let mut consumers = Vec::new();
    for q in 0..4u64 {
        let ds = Arc::clone(&ds);
        let ids = ids_per_rank;
        consumers.push(std::thread::spawn(move || {
            let region = Region::new(vec![q * ids / 4, 0], vec![ids / 4, n_ranks]);
            let t_setup = Instant::now();
            let first = ds
                .get("v_par", 0, &region, Duration::from_secs(30))
                .unwrap();
            let setup = t_setup.elapsed();
            let t_q = Instant::now();
            for _ in 0..10 {
                let again = ds
                    .get("v_par", 0, &region, Duration::from_secs(30))
                    .unwrap();
                assert_eq!(again.len(), first.len());
            }
            let per_query = t_q.elapsed() / 10;
            (q, setup, per_query, first.len())
        }));
    }

    // Producer: index the dump — per-particle puts of the parallel
    // velocity, keyed by the immutable (id, rank) label.
    let t_index = Instant::now();
    let mut n_put = 0u64;
    for r in 0..n_ranks as usize {
        let pg = world.output_pg(r);
        let rows = predata::core::schema::particles_of(&pg).unwrap();
        for row in rows.chunks_exact(PARTICLE_WIDTH) {
            let region = Region::new(vec![row[COL_ID] as u64, row[COL_RANK] as u64], vec![1, 1]);
            ds.put("v_par", 0, &region, DataArray::F64(vec![row[3]]))
                .unwrap();
            n_put += 1;
        }
    }
    ds.commit("v_par", 0);
    println!(
        "producer: indexed {n_put} particles in {:.1} ms, shard loads {:?}",
        t_index.elapsed().as_secs_f64() * 1e3,
        ds.shard_block_counts()
    );

    for c in consumers {
        let (q, setup, per_query, n) = c.join().unwrap();
        println!(
            "consumer {q}: setup query {:>7.2} ms (includes commit wait), \
             subsequent queries {:>7.3} ms avg, {n} cells",
            setup.as_secs_f64() * 1e3,
            per_query.as_secs_f64() * 1e3
        );
    }

    // Aggregation queries over an application-meaningful sub-region.
    let sub = Region::new(vec![0, 0], vec![ids_per_rank, n_ranks / 2]);
    for how in [Reduction::Min, Reduction::Max, Reduction::Avg] {
        let v = ds
            .reduce("v_par", 0, &sub, how, Duration::from_secs(1))
            .unwrap();
        println!("reduction {how:?} over first {} ranks: {v:.4}", n_ranks / 2);
    }

    let update = updates
        .recv(Duration::from_secs(30))
        .expect("commit update");
    service.shutdown();
    assert_eq!((update.version, update.value), (0, 8.0));
    assert!(updates.try_recv().is_none(), "one update per commit");
    println!(
        "continuous query on ids 0..8 of rank 0: version {} counted {} cells \
         ({} puts / {} gets total through the space)",
        update.version,
        update.value,
        ds.stats().puts.load(std::sync::atomic::Ordering::Relaxed),
        ds.stats().gets.load(std::sync::atomic::Ordering::Relaxed)
    );
}
