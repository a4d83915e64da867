//! The complete workflow of paper §V-B.4, end to end: GTC dumps stream
//! through the staging area, which sorts them AND indexes them into
//! DataSpaces as an ordinary pipelined operator; a querying application
//! runs *concurrently* through the [`QueryService`] front-end, blocked
//! only on the version commit — never on the simulation.

use std::sync::Arc;
use std::time::Duration;

use predata::apps::GtcWorld;
use predata::core::op::StreamOp;
use predata::core::ops::SortOp;
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::dataspaces::{
    DataSpaces, DsConfig, QueryKind, QueryService, QueryServiceConfig, Reduction, Region,
    SpaceIndexOp,
};
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

#[test]
fn staged_indexing_serves_concurrent_queries() {
    let n_compute = 6;
    let n_staging = 2;
    let ids_per_rank = 200u64;
    let n_steps = 2u64;
    let dir = std::env::temp_dir().join(format!("svc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The shared space over the (local id, rank) label domain.
    let space = Arc::new(DataSpaces::new(DsConfig::new(
        vec![ids_per_rank, n_compute as u64],
        vec![50, 2],
        4,
    )));

    // The query front-end the "querying application cores" talk to.
    let service = Arc::new(QueryService::new(
        Arc::clone(&space),
        QueryServiceConfig {
            workers: 3,
            ..QueryServiceConfig::default()
        },
    ));
    // A standing continuous query, registered before any data exists:
    // every staged commit must re-evaluate it.
    let watch = service.subscribe_reduce(
        "weight",
        Region::whole(&[ids_per_rank, n_compute as u64]),
        Reduction::Count,
        8,
    );

    // Querying application: launched BEFORE any data exists. One thread
    // per "querying core", each watching a disjoint id range of step 1.
    let mut consumers = Vec::new();
    for q in 0..4u64 {
        let service = Arc::clone(&service);
        consumers.push(std::thread::spawn(move || {
            let region = Region::new(
                vec![q * ids_per_rank / 4, 0],
                vec![ids_per_rank / 4, n_compute as u64],
            );
            // Blocks on the commit of version 1, not on polling files.
            let data = service
                .submit_with_deadline(
                    "weight",
                    1,
                    QueryKind::Range(region.clone()),
                    Duration::from_secs(30),
                )
                .unwrap()
                .wait(Duration::from_secs(35))
                .unwrap()
                .output
                .into_data();
            let sum: f64 = data.as_f64().unwrap().iter().sum();
            let avg = service
                .query("weight", 1, QueryKind::Reduce(region, Reduction::Avg))
                .unwrap()
                .output
                .value();
            (sum, avg, data.len())
        }));
    }

    // Producer: the staged pipeline with sort + space indexing.
    let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
    let space_for_ops = Arc::clone(&space);
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(move |_| {
            vec![
                Box::new(SortOp::new()) as Box<dyn StreamOp>,
                Box::new(SpaceIndexOp::new(Arc::clone(&space_for_ops), 5, "weight")),
            ]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        n_steps,
    );

    let mut world = GtcWorld::new(n_compute, ids_per_rank as usize, 31);
    world.migration_rate = 0.0; // keep labels on their birth ranks so the
                                // (id, rank) domain stays fully covered
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![Arc::new(SortOp::new())]))
        .collect();
    for io_step in 0..n_steps {
        for (r, c) in clients.iter().enumerate() {
            let mut pg = world.output_pg(r);
            pg.step = io_step;
            c.write_pg(pg).unwrap();
        }
        world.step();
    }
    area.join().into_iter().for_each(|r| {
        r.expect("staging ok");
    });

    // Consumers saw a complete, consistent version 1.
    let total_cells = ids_per_rank * n_compute as u64;
    let mut sum_all = 0.0;
    let mut cells = 0;
    for c in consumers {
        let (sum, avg, n) = c.join().unwrap();
        assert!((avg - sum / n as f64).abs() < 1e-12);
        sum_all += sum;
        cells += n;
    }
    assert_eq!(cells as u64, total_cells);
    // Weights are in [0.5, 1.5]; the sum over all cells must agree.
    assert!(sum_all > 0.5 * total_cells as f64 && sum_all < 1.5 * total_cells as f64);

    // Both versions are independently queryable (the space holds the
    // history until evicted).
    let whole = Region::whole(&[ids_per_rank, n_compute as u64]);
    let v0 = space
        .get("weight", 0, &whole, Duration::from_secs(5))
        .unwrap();
    let v1 = space
        .get("weight", 1, &whole, Duration::from_secs(5))
        .unwrap();
    assert_eq!(v0.len(), v1.len());
    assert_eq!(
        v0, v1,
        "weights are invariant in this app, so versions agree"
    );

    // The continuous query fired once per staged commit, each update a
    // full count of the indexed domain.
    for _ in 0..n_steps {
        let update = watch.recv(Duration::from_secs(5)).expect("commit update");
        assert_eq!(update.var, "weight");
        assert_eq!(update.value, total_cells as f64);
    }

    // And the sorted files exist alongside — both services from one pass.
    for step in 0..n_steps {
        for rank in 0..n_staging {
            let p = dir.join(format!("sorted_step{step}_rank{rank}.bp"));
            assert!(p.exists(), "{p:?} missing");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
