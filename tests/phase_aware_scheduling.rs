//! Functional check of the paper's interference-avoidance mechanism: a
//! phase-aware pull scheduler defers RDMA gets while the application
//! holds the congestion signal (it is inside collectives) and drains as
//! soon as the signal clears.

use std::sync::Arc;
use std::time::{Duration, Instant};

use predata::core::schema::make_particle_pg;
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::transport::{
    BlockRouter, CongestionSignal, Fabric, PhaseAwarePolicy, PullPolicy, Router,
};

#[test]
fn pulls_defer_while_application_communicates() {
    let n_compute = 2;
    let dir = std::env::temp_dir().join(format!("phase-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let (fabric, computes, stagings) = Fabric::new(n_compute, 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 1));
    let signal = CongestionSignal::new();

    // The "application" raises the signal before writing: it is about to
    // enter a communication-heavy phase.
    signal.set_busy(true);

    let sig = signal.clone();
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| Vec::new()),
        Arc::new(move |_| Box::new(PhaseAwarePolicy::new(sig.clone())) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        1,
    );

    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
        .collect();
    for (r, c) in clients.iter().enumerate() {
        c.write_pg(make_particle_pg(r as u64, 0, vec![0.0; 256 * 8]))
            .unwrap();
    }

    // While the signal is up, no bulk bytes move (requests may be read;
    // the gets are what interfere).
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(
        fabric.stats().rdma_gets(),
        0,
        "phase-aware scheduler must not pull during the collective window"
    );
    assert!(
        clients.iter().all(|c| c.buffered_bytes() > 0),
        "chunks still exposed"
    );

    // The collective window ends; pulls drain promptly.
    let t = Instant::now();
    signal.set_busy(false);
    for c in &clients {
        c.wait_drained(Duration::from_secs(5)).unwrap();
    }
    assert_eq!(fabric.stats().rdma_gets(), n_compute as u64);
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "pulls resume quickly once the window closes"
    );
    area.join().into_iter().for_each(|r| {
        r.expect("staging ok");
    });
    std::fs::remove_dir_all(&dir).ok();
}
