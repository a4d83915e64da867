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
use predata::ffs::AttrList;
use predata::minimpi::World;
use predata::transport::{
    BlockRouter, Fabric, FetchRequest, FifoPolicy, PullPolicy, Router, TransportError,
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
// The degradation ladder (DESIGN.md §3.3): retry → truncate → fall back.
// ---------------------------------------------------------------------------

/// Run a small deterministic GTC pipeline (sort + histogram, 4 compute →
/// 2 staging, 2 steps) under `faults` and return the staging reports.
/// Writes are issued from one thread so request arrival order — and with
/// it the policy order and every merged output byte — is reproducible.
fn run_gtc(
    dir: &std::path::Path,
    faults: Option<Arc<predata::transport::FaultPlan>>,
) -> Vec<predata::core::StepReport> {
    use predata::core::ops::{HistogramOp, SortOp};
    let (n_compute, n_staging, n_steps) = (4usize, 2usize, 2u64);
    let (_fabric, computes, stagings) =
        predata::transport::Fabric::with_faults(n_compute, n_staging, None, faults);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
    let area = predata::core::StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| {
            vec![
                Box::new(SortOp::new()) as Box<dyn StreamOp>,
                Box::new(HistogramOp::new(vec![0], 8)),
            ]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        predata::core::StagingConfig::new(n_compute, dir),
        n_steps,
    );
    let world = predata::apps::GtcWorld::new(n_compute, 60, 7);
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
    area.join()
        .into_iter()
        .flat_map(|r| r.expect("staging rank survives"))
        .collect()
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
/// (a) a seeded *transient* schedule (every pull fails exactly once) is
///     absorbed by retries — the GTC operator output is byte-identical
///     to the fault-free run, `retries{op=pull} > 0`,
///     `retry_exhausted{op=pull} == 0`;
/// (b) a *hard* schedule (pulls never succeed) exhausts retries — the
///     step still completes, its chunks land truncated in report and
///     lineage;
/// (c) with `ResilientClient`s over a one-step outage, every rank falls
///     back to in-compute for the faulted step and recovers to staged
///     writes on the next — `fallback_steps > 0`, no abort anywhere.
#[test]
fn degradation_ladder_absorbs_truncates_and_falls_back() {
    use predata::core::ops::HistogramOp;
    use predata::core::resilient::{DegradePolicy, ResilientClient};
    use predata::transport::FaultPlan;

    // --- (a) transient faults: retried into a byte-identical run ---
    let clean_dir = out_dir("ladder-clean");
    let faulty_dir = out_dir("ladder-transient");
    let reports = run_gtc(&clean_dir, None);
    assert!(reports.iter().all(|r| !r.is_degraded()));

    let retries_before = counter("transport.retries", "pull");
    let exhausted_before = counter("transport.retry_exhausted", "pull");
    let plan = Arc::new(FaultPlan::new(2026).drop_chunks(1.0).max_injections(1));
    let reports = run_gtc(&faulty_dir, Some(plan));
    assert!(
        reports.iter().all(|r| !r.is_degraded()),
        "transient faults must not truncate"
    );
    assert!(
        counter("transport.retries", "pull") > retries_before,
        "the schedule faulted every pull once; retries must show"
    );
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
    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&faulty_dir).ok();

    // --- (b) retry exhaustion: truncated-but-written step ---
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

    // --- (c) full ladder under an outage: fall back, then recover ---
    // Steps 60..63; pulls of step 60 never succeed.
    let fallback_before = predata::obs::global()
        .snapshot()
        .counter("client.fallback_steps", &[])
        .unwrap_or(0);
    let n_compute = 4;
    let plan = Arc::new(FaultPlan::new(17).drop_chunks(1.0).steps(60..61));
    let (_fabric, computes, stagings) =
        predata::transport::Fabric::with_faults(n_compute, 1, None, Some(plan));
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 1));
    let dir = out_dir("ladder-outage");

    let staging_dir = dir.clone();
    let staging_router = Arc::clone(&router);
    let staging = std::thread::spawn(move || {
        let (_world, mut comms) = World::with_size(1);
        let mut rank = StagingRank::new(
            comms.remove(0),
            stagings.into_iter().next().unwrap(),
            staging_router,
            Box::new(FifoPolicy),
            vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>],
            StagingConfig::new(n_compute, &staging_dir),
        )
        .expect("staging rank starts");
        (60..63u64).map(|s| rank.run_step(s)).collect::<Vec<_>>()
    });

    let workers: Vec<_> = computes
        .into_iter()
        .map(|endpoint| {
            let router = Arc::clone(&router);
            let dir = dir.clone();
            std::thread::spawn(move || {
                let rank = endpoint.rank();
                let mut client = ResilientClient::new(
                    endpoint,
                    router,
                    vec![],
                    || vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>],
                    &dir,
                    DegradePolicy {
                        unhealthy_after: 1,
                        probe_every: 1,
                        step_deadline: Duration::from_secs(1),
                    },
                );
                (60..63u64)
                    .map(|step| {
                        let outcome =
                            client.write_step(make_particle_pg(rank as u64, step, vec![0.0; 16]));
                        (outcome.is_fallback(), client.is_degraded())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    for worker in workers {
        let flips = worker.join().unwrap();
        assert_eq!(
            flips,
            vec![(true, true), (false, false), (false, false)],
            "fall back exactly on the outage step, recover on the next"
        );
    }
    let staging_steps = staging.join().unwrap();
    let outage = staging_steps[0].as_ref().expect("outage step completed");
    assert_eq!(outage.truncated.len(), n_compute, "all pulls abandoned");
    for later in &staging_steps[1..] {
        let rep = later.as_ref().expect("healthy steps complete");
        assert!(!rep.is_degraded());
        assert_eq!(rep.chunks, n_compute);
    }
    assert!(
        predata::obs::global()
            .snapshot()
            .counter("client.fallback_steps", &[])
            .unwrap_or(0)
            >= fallback_before + n_compute as u64,
        "every rank paid exactly one fallback step"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The *expose*-side rung of the ladder: a pin-exhaustion outage makes
/// `write_pg` itself fail (before any request is sent), so the client
/// must fall back immediately, skip probes while unhealthy per
/// `probe_every`, and flip back to staged writes as soon as a probe
/// lands after the outage clears. Asserted purely through
/// [`StepOutcome`] and `is_degraded()` — no process-global state.
#[test]
fn fallback_and_recovery_flip_at_the_right_steps() {
    use predata::core::resilient::{DegradePolicy, ResilientClient, StepOutcome};
    use predata::transport::FaultPlan;

    // Steps 100..106; pins are exhausted for steps 100 and 101 only.
    let plan = Arc::new(FaultPlan::new(3).pin_exhaustion(1.0).steps(100..102));
    let (_fabric, computes, stagings) = Fabric::with_faults(1, 1, None, Some(plan));
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(1, 1));
    let dir = out_dir("flip");

    let staging_dir = dir.clone();
    let staging_router = Arc::clone(&router);
    let staging = std::thread::spawn(move || {
        let (_world, mut comms) = World::with_size(1);
        let mut cfg = StagingConfig::new(1, &staging_dir);
        // During the outage no request ever arrives; time the empty
        // gathers out quickly so staging catches up to the client.
        cfg.gather_timeout = Duration::from_millis(500);
        let mut rank = StagingRank::new(
            comms.remove(0),
            stagings.into_iter().next().unwrap(),
            staging_router,
            Box::new(FifoPolicy),
            vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>],
            cfg,
        )
        .expect("staging rank starts");
        // Outage steps legitimately time out (nothing was written);
        // healthy steps must complete.
        (100..106u64)
            .map(|s| rank.run_step(s).is_ok())
            .collect::<Vec<_>>()
    });

    let mut client = ResilientClient::new(
        computes.into_iter().next().unwrap(),
        router,
        vec![],
        || vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>],
        &dir,
        DegradePolicy {
            unhealthy_after: 1,
            probe_every: 2,
            step_deadline: Duration::from_secs(5),
        },
    );
    assert!(!client.is_degraded());
    let mut flips = Vec::new();
    for step in 100..106u64 {
        let outcome = client.write_step(make_particle_pg(0, step, vec![0.0; 16]));
        let had_error = matches!(&outcome, StepOutcome::FellBack { error: Some(_), .. });
        flips.push((outcome.is_fallback(), had_error, client.is_degraded()));
    }
    assert_eq!(
        flips,
        vec![
            // Outage: the probe hits the pin fault, records the error,
            // and the step runs in-compute.
            (true, true, true),
            // Still unhealthy, step 101 is not a probe step (101 % 2 != 0):
            // fall back without even trying staging.
            (true, false, true),
            // Outage over, step 102 probes, the staged write lands:
            // recovered.
            (false, false, false),
            (false, false, false),
            (false, false, false),
            (false, false, false),
        ],
        "(fallback, probe-error, degraded) per step"
    );

    let staging_steps = staging.join().unwrap();
    assert_eq!(
        staging_steps,
        vec![false, false, true, true, true, true],
        "staging times out exactly on the two outage steps"
    );
    std::fs::remove_dir_all(&dir).ok();
}
