//! Failure injection: the middleware must fail loudly and precisely, not
//! hang or fabricate data, when the transport or the application
//! misbehaves.

use std::sync::Arc;
use std::time::Duration;

use predata::core::op::StreamOp;
use predata::core::ops::HistogramOp;
use predata::core::schema::make_particle_pg;
use predata::core::staging::{StagingError, StagingRank};
use predata::core::{PackedChunk, PredataClient, StagingArea, StagingConfig};
use predata::dataspaces::{DataSpaces, DsConfig, Region, SpaceIndexOp};
use predata::ffs::AttrList;
use predata::minimpi::World;
use predata::transport::{
    BlockRouter, Fabric, FetchRequest, FifoPolicy, PullPolicy, RetryPolicy, Router, TransportError,
};

fn out_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("failure-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Lineage enablement is process-global; tests that toggle it and then
/// assert on the log serialize through this lock so a concurrent test
/// can't flip recording off mid-assertion.
static LINEAGE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// An output directory that cannot be created (its parent is a plain
/// file) must fail `StagingRank::new` with an Io error at startup, not
/// surface as silent per-step write failures later.
#[test]
fn uncreatable_out_dir_fails_at_startup() {
    let (_fabric, _computes, stagings) = Fabric::new(1, 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(1, 1));
    let blocker = std::env::temp_dir().join(format!("failure-io-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();

    let (_world, mut comms) = World::with_size(1);
    let result = StagingRank::new(
        comms.remove(0),
        stagings.into_iter().next().unwrap(),
        router,
        Box::new(FifoPolicy),
        vec![],
        StagingConfig::new(1, blocker.join("out")),
    );
    match result {
        Err(StagingError::Io(_)) => {}
        Ok(_) => panic!("expected an io error, got a staging rank"),
        Err(other) => panic!("expected an io error, got {other:?}"),
    }
    std::fs::remove_file(&blocker).ok();
}

/// A compute rank exposes garbage bytes instead of a packed chunk: the
/// staging rank must report a decode error, not crash or deliver junk.
#[test]
fn corrupt_chunk_reported_as_chunk_error() {
    let (_fabric, computes, stagings) = Fabric::new(1, 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(1, 1));
    let dir = out_dir("corrupt");

    // Hand-roll a malicious "client".
    let garbage: Arc<[u8]> = vec![0xAB; 4096].into();
    let handle = computes[0].expose(garbage, 0).unwrap();
    computes[0]
        .send_request(
            0,
            FetchRequest {
                src_rank: 0,
                io_step: 0,
                handle,
                chunk_bytes: 4096,
                format: PackedChunk::format_fingerprint(),
                attrs: AttrList::new(),
            },
        )
        .unwrap();

    let (_world, mut comms) = World::with_size(1);
    let mut rank = StagingRank::new(
        comms.remove(0),
        stagings.into_iter().next().unwrap(),
        router,
        Box::new(FifoPolicy),
        vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>],
        StagingConfig::new(1, &dir),
    )
    .expect("staging rank starts");
    match rank.run_step(0) {
        Err(StagingError::Chunk(_)) => {}
        other => panic!("expected a chunk decode error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed pull must not leave *dangling* lineage: every chunk of the
/// abandoned step ends either complete or explicitly
/// [`Stage::Truncated`], including the healthy chunk that was collateral
/// damage of its step-mate's corruption.
#[test]
fn failed_pull_truncates_lineage_instead_of_dangling() {
    use predata::obs::lineage::Stage;
    let _lineage = LINEAGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    predata::obs::lineage::set_enabled(true);
    // Step 40: far from the steps other tests in this process record, so
    // the process-global lineage log can't collide across tests.
    const STEP: u64 = 40;
    let (_fabric, computes, stagings) = Fabric::new(2, 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(2, 1));
    let dir = out_dir("lineage-trunc");
    let mut computes = computes.into_iter();
    let compute0 = computes.next().unwrap();
    let compute1 = computes.next().unwrap();

    // Rank 0 writes a healthy dump through the real client…
    let client = PredataClient::new(compute0, Arc::clone(&router), vec![]);
    client
        .write_pg(make_particle_pg(0, STEP, vec![0.0; 16]))
        .unwrap();
    // …rank 1 exposes garbage that will fail to decode.
    let garbage: Arc<[u8]> = vec![0xAB; 4096].into();
    let handle = compute1.expose(garbage, STEP).unwrap();
    compute1
        .send_request(
            0,
            FetchRequest {
                src_rank: 1,
                io_step: STEP,
                handle,
                chunk_bytes: 4096,
                format: PackedChunk::format_fingerprint(),
                attrs: AttrList::new(),
            },
        )
        .unwrap();

    let (_world, mut comms) = World::with_size(1);
    let mut rank = StagingRank::new(
        comms.remove(0),
        stagings.into_iter().next().unwrap(),
        router,
        Box::new(FifoPolicy),
        vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>],
        StagingConfig::new(2, &dir),
    )
    .expect("staging rank starts");
    assert!(
        matches!(rank.run_step(STEP), Err(StagingError::Chunk(_))),
        "corrupt chunk fails the step"
    );

    let lineage = predata::obs::global().lineage().snapshot();
    let of_step: Vec<_> = lineage.iter().filter(|c| c.step == STEP).collect();
    assert_eq!(of_step.len(), 2, "both chunks of step {STEP} are tracked");
    for chunk in of_step {
        assert!(
            chunk.is_complete() || chunk.is_truncated(),
            "chunk (src {}, step {STEP}) dangles: recorded {:?}",
            chunk.src_rank,
            chunk
                .events()
                .iter()
                .map(|(s, _)| s.name())
                .collect::<Vec<_>>()
        );
        // Truncation documents the abandonment without erasing progress.
        if chunk.is_truncated() {
            assert!(chunk.mark(Stage::Truncated).is_some());
            assert!(!chunk.is_complete());
        }
    }
    predata::obs::lineage::set_enabled(false);
    std::fs::remove_dir_all(&dir).ok();
}

/// A request for an *older* step than the one being gathered is a
/// protocol violation (compute ranks move in lockstep) and must surface
/// as StepSkew.
#[test]
fn stale_step_reported_as_skew() {
    let (_fabric, computes, stagings) = Fabric::new(1, 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(1, 1));
    let dir = out_dir("skew");
    let client = PredataClient::new(
        computes.into_iter().next().unwrap(),
        Arc::clone(&router),
        vec![],
    );
    client
        .write_pg(make_particle_pg(0, 3, vec![0.0; 8]))
        .unwrap(); // step 3

    let (_world, mut comms) = World::with_size(1);
    let mut rank = StagingRank::new(
        comms.remove(0),
        stagings.into_iter().next().unwrap(),
        router,
        Box::new(FifoPolicy),
        vec![],
        StagingConfig::new(1, &dir),
    )
    .expect("staging rank starts");
    // Staging is already past step 3, gathering step 7.
    match rank.run_step(7) {
        Err(StagingError::StepSkew {
            expected: 7,
            got: 3,
        }) => {}
        other => panic!("expected step skew, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A pin budget too small for the dump makes the *client* fail fast with
/// a budget error instead of silently over-committing compute-node memory.
#[test]
fn pin_budget_exhaustion_fails_fast() {
    let (_fabric, computes, _stagings) = Fabric::new(1, 1, Some(1024));
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(1, 1));
    let client = PredataClient::new(computes.into_iter().next().unwrap(), router, vec![]);
    // First small write fits…
    client
        .write_pg(make_particle_pg(0, 0, vec![0.0; 8]))
        .unwrap();
    // …the second overflows the 1 KiB budget while the first is unpulled.
    let err = client
        .write_pg(make_particle_pg(0, 0, vec![0.0; 64]))
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("pin budget"), "unexpected error: {msg}");
}

/// A dead staging area must not hang the application forever: the drain
/// wait times out.
#[test]
fn drain_times_out_without_staging() {
    let (_fabric, computes, stagings) = Fabric::new(1, 1, None);
    drop(stagings); // staging area never comes up
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(1, 1));
    let client = PredataClient::new(computes.into_iter().next().unwrap(), router, vec![]);
    // The request send fails (endpoint dropped) or the drain later stalls;
    // either way the client surfaces an error rather than blocking.
    match client.write_pg(make_particle_pg(0, 0, vec![0.0; 8])) {
        Err(_) => {}
        Ok(_) => {
            let err = client.wait_drained(Duration::from_millis(50)).unwrap_err();
            assert_eq!(err, TransportError::Timeout);
        }
    }
}

/// One slow compute rank delays its dump past the gather deadline; the
/// staging area reports the timeout and the *other* ranks' work is not
/// silently half-applied.
#[test]
fn partial_dump_times_out_cleanly() {
    let n_compute = 3;
    let (_fabric, computes, stagings) = Fabric::new(n_compute, 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 1));
    let dir = out_dir("partial");
    let mut cfg = StagingConfig::new(n_compute, &dir);
    cfg.gather_timeout = Duration::from_millis(80);
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>]),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        cfg,
        1,
    );
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
        .collect();
    // Only 2 of 3 ranks write.
    clients[0]
        .write_pg(make_particle_pg(0, 0, vec![0.0; 8]))
        .unwrap();
    clients[1]
        .write_pg(make_particle_pg(1, 0, vec![0.0; 8]))
        .unwrap();
    let reports = area.join();
    assert!(matches!(
        reports[0],
        Err(StagingError::Transport(TransportError::Timeout))
    ));
    // No operator output files were produced for the incomplete step.
    let produced: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("hist"))
        .collect();
    assert!(produced.is_empty(), "no partial results: {produced:?}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The degradation ladder (DESIGN.md §3.3): retry → truncate.
// ---------------------------------------------------------------------------

/// GTC particles per compute rank in [`run_gtc`]: the label domain of its
/// space is `GTC_IDS × 4` (local id × rank).
const GTC_IDS: u64 = 60;

/// Run a small deterministic GTC pipeline (sort + histogram, plus an index
/// of every particle's weight into one shared space; 4 compute → 2
/// staging, 2 steps) under `faults` — on the fabric, the staging
/// collectives and the space's puts alike — and return the staging
/// reports and the space. Writes are issued from one thread so request
/// arrival order — and with it the policy order and every merged output
/// byte — is reproducible.
fn run_gtc(
    dir: &std::path::Path,
    faults: Option<Arc<predata::transport::FaultPlan>>,
) -> (Vec<predata::core::StepReport>, Arc<DataSpaces>) {
    use predata::core::ops::{HistogramOp, SortOp};
    let (n_compute, n_staging, n_steps) = (4usize, 2usize, 2u64);
    let space = Arc::new(DataSpaces::with_faults(
        DsConfig::new(vec![GTC_IDS, n_compute as u64], vec![10, 1], 4),
        faults.clone(),
        RetryPolicy::default(),
    ));
    let (_fabric, computes, stagings) =
        predata::transport::Fabric::with_faults(n_compute, n_staging, None, faults);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
    let ops_space = Arc::clone(&space);
    let area = predata::core::StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(move |_| {
            vec![
                Box::new(SortOp::new()) as Box<dyn StreamOp>,
                Box::new(HistogramOp::new(vec![0], 8)),
                Box::new(SpaceIndexOp::new(Arc::clone(&ops_space), 5, "weight")),
            ]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        predata::core::StagingConfig::new(n_compute, dir),
        n_steps,
    );
    let world = predata::apps::GtcWorld::new(n_compute, GTC_IDS as usize, 7);
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
        .collect();
    for step in 0..n_steps {
        for (r, c) in clients.iter().enumerate() {
            let mut pg = world.output_pg(r);
            pg.step = step;
            c.write_pg(pg).unwrap();
        }
    }
    let reports = area
        .join()
        .into_iter()
        .flat_map(|r| r.expect("staging rank survives"))
        .collect();
    (reports, space)
}

/// Every `.bp` file under `dir`, relative name → bytes.
fn bp_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".bp"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

fn counter(name: &str, op: &str) -> u64 {
    predata::obs::global()
        .snapshot()
        .counter(name, &[("op", op)])
        .unwrap_or(0)
}

/// The ladder end to end, in one test so the global retry counters can't
/// race across test threads:
///
/// (a) a seeded *transient* schedule (every pull, put and collective
///     entry fails exactly once) is absorbed by retries — the GTC
///     operator output and the space's committed cells are identical to
///     the fault-free run, `retries{op=pull|put|collective} > 0`,
///     `retry_exhausted{op=pull} == 0`;
/// (b) a *hard* schedule (pulls never succeed) exhausts retries — the
///     step still completes, its chunks land truncated in report and
///     lineage; in a two-rank area, one abandoned chunk is truncated by
///     the rank that serves it alone.
#[test]
fn degradation_ladder_absorbs_and_truncates() {
    use predata::core::ops::HistogramOp;
    use predata::transport::{FaultKind, FaultPlan};

    // --- (a) transient faults: retried into a byte-identical run ---
    let clean_dir = out_dir("ladder-clean");
    let faulty_dir = out_dir("ladder-transient");
    let (reports, clean_space) = run_gtc(&clean_dir, None);
    assert!(reports.iter().all(|r| !r.is_degraded()));

    let retries_before = ["pull", "put", "collective"].map(|op| counter("transport.retries", op));
    let exhausted_before = counter("transport.retry_exhausted", "pull");
    let plan = Arc::new(FaultPlan::new(2026).drop_chunks(1.0).max_injections(1));
    let (reports, faulty_space) = run_gtc(&faulty_dir, Some(plan));
    assert!(
        reports.iter().all(|r| !r.is_degraded()),
        "transient faults must not truncate"
    );
    for (op, before) in ["pull", "put", "collective"]
        .into_iter()
        .zip(retries_before)
    {
        assert!(
            counter("transport.retries", op) > before,
            "the schedule faulted every {op} once; retries must show"
        );
    }
    assert_eq!(
        counter("transport.retry_exhausted", "pull"),
        exhausted_before,
        "one injected failure per chunk cannot exhaust 4 attempts"
    );
    let clean = bp_files(&clean_dir);
    let faulty = bp_files(&faulty_dir);
    assert!(!clean.is_empty(), "the pipeline wrote sorted outputs");
    assert_eq!(
        clean.keys().collect::<Vec<_>>(),
        faulty.keys().collect::<Vec<_>>(),
        "same output files with and without transient faults"
    );
    for (name, bytes) in &clean {
        assert_eq!(
            bytes, &faulty[name],
            "{name}: output must be byte-identical under absorbed faults"
        );
    }
    let domain = Region::whole(&[GTC_IDS, 4]);
    for version in 0..2 {
        let cells = |space: &DataSpaces| {
            space
                .get("weight", version, &domain, Duration::from_secs(5))
                .expect("every cell of a committed step")
        };
        assert_eq!(
            cells(&faulty_space),
            cells(&clean_space),
            "version {version}: committed cells must match under absorbed faults"
        );
    }
    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&faulty_dir).ok();

    // --- (b) retry exhaustion: truncated-but-written step ---
    // A schedule that abandons exactly one chunk of the second step of a
    // two-rank area: the rank serving it reports it truncated, the peer
    // and the first step are untouched, and every gathered chunk counts.
    // It leaves the space's puts alone (its one variable has id 0): a
    // put whose retries exhaust is a failed index, not a truncation.
    let plan = |seed| FaultPlan::new(seed).drop_chunks(0.25).steps(1..2);
    let victims = |seed| -> Vec<usize> {
        (0..4)
            .filter(|&r| plan(seed).selects(FaultKind::Drop, r as u64, 1))
            .collect()
    };
    let seed = (0..)
        .find(|&s| victims(s).len() == 1 && !plan(s).selects(FaultKind::Put, 0, 1))
        .unwrap();
    let victim = victims(seed)[0];
    let dir = out_dir("ladder-one-victim");
    let (reports, _) = run_gtc(&dir, Some(Arc::new(plan(seed))));
    // Staging rank 0's steps, then rank 1's; each serves two compute ranks.
    for (rank, steps) in reports.chunks(2).enumerate() {
        for rep in steps {
            assert_eq!(rep.chunks, 2);
            let lost = rep.step == 1 && victim / 2 == rank;
            assert_eq!(rep.truncated, if lost { vec![victim] } else { vec![] });
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    // Steps 50+: outside every other test's lineage key range.
    const STEP: u64 = 50;
    let _lineage = LINEAGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    predata::obs::lineage::set_enabled(true);
    let exhausted_before = counter("transport.retry_exhausted", "pull");
    let plan = Arc::new(FaultPlan::new(9).drop_chunks(1.0).steps(STEP..STEP + 1));
    let (_fabric, computes, stagings) =
        predata::transport::Fabric::with_faults(2, 1, None, Some(plan));
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(2, 1));
    let dir = out_dir("ladder-exhaust");
    for (r, e) in computes.into_iter().enumerate() {
        let client = PredataClient::new(e, Arc::clone(&router), vec![]);
        client
            .write_pg(make_particle_pg(r as u64, STEP, vec![0.0; 16]))
            .unwrap();
    }
    let (_world, mut comms) = World::with_size(1);
    let mut rank = StagingRank::new(
        comms.remove(0),
        stagings.into_iter().next().unwrap(),
        router,
        Box::new(FifoPolicy),
        vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>],
        StagingConfig::new(2, &dir),
    )
    .expect("staging rank starts");
    let report = rank
        .run_step(STEP)
        .expect("exhaustion degrades the step, it must not abort it");
    assert_eq!(report.chunks, 2);
    assert!(report.is_degraded());
    let mut truncated = report.truncated.clone();
    truncated.sort_unstable();
    assert_eq!(truncated, vec![0, 1], "both chunks were abandoned");
    assert!(report.pull_order.is_empty(), "nothing was actually pulled");
    assert_eq!(report.results.len(), 1, "operators still finalized");
    assert!(
        counter("transport.retry_exhausted", "pull") >= exhausted_before + 2,
        "each abandoned chunk exhausted its retries"
    );
    let lineage = predata::obs::global().lineage().snapshot();
    let of_step: Vec<_> = lineage.iter().filter(|c| c.step == STEP).collect();
    assert_eq!(of_step.len(), 2);
    for chunk in of_step {
        assert!(
            chunk.is_truncated(),
            "chunk (src {}, step {STEP}) must be terminally truncated",
            chunk.src_rank
        );
    }
    predata::obs::lineage::set_enabled(false);
    drop(_lineage);
    std::fs::remove_dir_all(&dir).ok();
}
