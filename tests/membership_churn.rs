//! Elastic staging membership, end to end: a GTC run during which one
//! staging rank leaves and another joins mid-run must lose no data and
//! produce outputs byte-identical to a static-membership reference —
//! the paper's staging area as an *elastic* resource, not a fixed one.
//!
//! The run is deliberately hostile: a transient fault schedule rides
//! along (pull, put, and collective injections, each absorbed by
//! retries), the leaving rank's committed DataSpaces shards are handed
//! off to the joiner at the epoch boundary, and admission control is
//! exercised separately below.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use predata::apps::GtcWorld;
use predata::core::op::StreamOp;
use predata::core::ops::{HistogramOp, SortOp};
use predata::core::{AdmitControl, EpochHook, PredataClient, StagingArea, StagingConfig};
use predata::dataspaces::{DataSpaces, DsConfig, Region, ShardParcel, SpaceIndexOp};
use predata::transport::{
    BlockRouter, EpochRouter, Fabric, FaultPlan, FifoPolicy, Membership, MembershipPlan,
    PullPolicy, RetryPolicy, Router,
};

const N_COMPUTE: usize = 4;
const N_STAGING: usize = 3; // world size: both runs use the same communicator size
const IDS_PER_RANK: u64 = 40;
const N_STEPS: u64 = 3;

fn out_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("churn-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

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

fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    predata::obs::global()
        .snapshot()
        .counter(name, labels)
        .unwrap_or(0)
}

fn retry() -> RetryPolicy {
    RetryPolicy::parse("attempts=4,base_ms=1,max_ms=2,deadline_ms=20000")
        .unwrap()
        .unwrap()
}

fn ds_cfg() -> DsConfig {
    // (local id, rank) label domain; one column of blocks per compute
    // rank so ownership maps cleanly onto routing.
    DsConfig::new(vec![IDS_PER_RANK, N_COMPUTE as u64], vec![10, 1], 4)
}

/// One full run: GTC dumps through sort + histogram + per-rank space
/// indexing, any router (its membership with it) and fault wiring the
/// caller chose.
fn run(
    dir: &std::path::Path,
    router: Arc<dyn Router>,
    faults: Option<Arc<FaultPlan>>,
    on_epoch: Option<Arc<EpochHook>>,
    admit: Option<Arc<AdmitControl>>,
    spaces: &[Arc<DataSpaces>],
) -> Vec<Result<Vec<predata::core::StepReport>, predata::core::staging::StagingError>> {
    let (_fabric, computes, stagings) =
        Fabric::with_faults(N_COMPUTE, N_STAGING, None, faults.clone());
    let mut cfg = StagingConfig::new(N_COMPUTE, dir);
    cfg.retry = retry();
    cfg.on_epoch = on_epoch;
    cfg.admit = admit;
    let spaces_for_ops: Vec<Arc<DataSpaces>> = spaces.to_vec();
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(move |rank| {
            vec![
                Box::new(SortOp::new()) as Box<dyn StreamOp>,
                Box::new(HistogramOp::new(vec![0], 8)),
                Box::new(SpaceIndexOp::local(
                    Arc::clone(&spaces_for_ops[rank]),
                    5,
                    "weight",
                )),
            ]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        cfg,
        N_STEPS,
    );
    let mut world = GtcWorld::new(N_COMPUTE, IDS_PER_RANK as usize, 9);
    world.migration_rate = 0.0; // labels stay on their birth ranks: the
                                // (id, rank) domain is fully covered
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
        .collect();
    for step in 0..N_STEPS {
        for (r, c) in clients.iter().enumerate() {
            let mut pg = world.output_pg(r);
            pg.step = step;
            c.write_pg(pg).unwrap();
        }
    }
    area.join()
}

/// The tentpole, end to end: rank 1 leaves and rank 2 joins at step 1,
/// under a transient fault schedule covering pulls, puts, and
/// collectives. The leaver's committed index shards are handed off to
/// the joiner at the epoch boundary. Zero data loss, outputs
/// byte-identical to a static reference of the same world size.
#[test]
fn churn_run_matches_static_reference_with_zero_data_loss() {
    // --- Static reference: all three ranks serve from step 0, clean ---
    let static_dir = out_dir("static");
    let static_spaces: Vec<Arc<DataSpaces>> = (0..N_STAGING)
        .map(|_| Arc::new(DataSpaces::with_faults(ds_cfg(), None, retry())))
        .collect();
    let reports = run(
        &static_dir,
        Arc::new(BlockRouter::new(N_COMPUTE, N_STAGING)),
        None,
        None,
        None,
        &static_spaces,
    );
    for r in &reports {
        let steps = r.as_ref().expect("static rank survives");
        assert!(steps.iter().all(|s| !s.is_degraded() && s.epoch.is_none()));
    }

    // --- Churn run: base {0,1}; at step 1 rank 1 leaves, rank 2 joins ---
    let plan = MembershipPlan::parse("base=2,leave=1@1,join=2@1")
        .unwrap()
        .unwrap();
    let membership = Membership::from_plan(&plan).unwrap();
    let router: Arc<dyn Router> = Arc::new(EpochRouter::new(N_COMPUTE, membership));
    let faults = Arc::new(FaultPlan::new(20100419).drop_chunks(1.0).max_injections(1));
    let churn_spaces: Vec<Arc<DataSpaces>> = (0..N_STAGING)
        .map(|_| {
            Arc::new(DataSpaces::with_faults(
                ds_cfg(),
                Some(Arc::clone(&faults)),
                retry(),
            ))
        })
        .collect();

    // Handoff orchestration: the leaver posts its exported shards to a
    // shared board keyed by epoch version; the successor (first joined
    // rank, else the lowest surviving one) waits for every departing
    // rank's parcel and republishes. Runs between the epoch barriers,
    // so no rank serves the new epoch before the handoff lands.
    type Board = (Mutex<HashMap<u64, Vec<ShardParcel>>>, Condvar);
    let board: Arc<Board> = Arc::new((Mutex::new(HashMap::new()), Condvar::new()));
    let hook_spaces = churn_spaces.clone();
    let hook_board = Arc::clone(&board);
    let n_shards = ds_cfg().n_shards;
    let on_epoch: Arc<EpochHook> = Arc::new(move |epoch, rank| {
        let (lock, cv) = &*hook_board;
        if epoch.left.contains(&rank) {
            let all: Vec<usize> = (0..n_shards).collect();
            let parcel = hook_spaces[rank].export_shards(&all);
            lock.lock()
                .unwrap()
                .entry(epoch.version)
                .or_default()
                .push(parcel);
            cv.notify_all();
        }
        let successor = epoch
            .joined
            .first()
            .or_else(|| epoch.active.first())
            .copied();
        let expected = epoch.left.len();
        if successor == Some(rank) && expected > 0 {
            let mut posted = lock.lock().unwrap();
            while posted.get(&epoch.version).map_or(0, Vec::len) < expected {
                posted = cv.wait(posted).unwrap();
            }
            for parcel in posted.remove(&epoch.version).unwrap() {
                hook_spaces[rank].import_shards(parcel).unwrap();
            }
        }
    });

    let joins_before = counter("membership.joins", &[]);
    let leaves_before = counter("membership.leaves", &[]);
    let reroutes_before = counter("membership.reroutes", &[]);
    let handoff_before = counter("membership.handoff_blocks", &[]);
    let put_retries_before = counter("transport.retries", &[("op", "put")]);
    let coll_retries_before = counter("transport.retries", &[("op", "collective")]);

    let churn_dir = out_dir("elastic");
    let reports = run(
        &churn_dir,
        Arc::clone(&router),
        Some(Arc::clone(&faults)),
        Some(on_epoch),
        None,
        &churn_spaces,
    );
    let per_rank: Vec<Vec<predata::core::StepReport>> = reports
        .into_iter()
        .map(|r| r.expect("churn rank survives"))
        .collect();

    // Transient faults are absorbed, never truncate; every step carries
    // its epoch: v0 for step 0, v1 from the boundary on.
    for steps in &per_rank {
        for s in steps {
            assert!(!s.is_degraded(), "step {} degraded: {s:?}", s.step);
            assert_eq!(s.epoch, Some(u64::from(s.step >= 1)));
        }
    }
    // Re-routing: the leaver serves only step 0, the joiner only 1..3.
    assert!(per_rank[1][0].chunks > 0 && per_rank[2][0].chunks == 0);
    for (leaver, joiner) in per_rank[1].iter().zip(&per_rank[2]).skip(1) {
        assert_eq!(leaver.chunks, 0, "leaver drained");
        assert!(joiner.chunks > 0, "joiner serves");
    }

    // Outputs are byte-identical to the static reference: sorted slices,
    // histograms — placement over the same world size changes nothing.
    assert_eq!(bp_files(&churn_dir), bp_files(&static_dir));

    // Zero data loss: the joiner's space now serves the leaver's
    // epoch-0 commits, cell for cell what the static reference's owner
    // holds. (EpochRouter: computes 2 and 3 were rank 1's at step 0.)
    assert!(
        churn_spaces[2].is_committed("weight", 0),
        "handoff republished v0"
    );
    for c in [2u64, 3] {
        let col = Region::new(vec![0, c], vec![IDS_PER_RANK, 1]);
        let via_joiner = churn_spaces[2]
            .get("weight", 0, &col, Duration::from_secs(5))
            .unwrap();
        let via_leaver = churn_spaces[1]
            .get("weight", 0, &col, Duration::from_secs(5))
            .unwrap();
        let reference = static_spaces[1]
            .get("weight", 0, &col, Duration::from_secs(5))
            .unwrap();
        assert_eq!(
            via_joiner, via_leaver,
            "republished shards match the export"
        );
        assert_eq!(via_joiner, reference, "and the static reference");
    }
    // Later versions were indexed by the joiner directly.
    for v in 1..N_STEPS {
        assert!(churn_spaces[2].is_committed("weight", v));
    }

    // The membership and fault bookkeeping is visible to operators.
    assert_eq!(counter("membership.joins", &[]) - joins_before, 1);
    assert_eq!(counter("membership.leaves", &[]) - leaves_before, 1);
    assert_eq!(counter("membership.reroutes", &[]) - reroutes_before, 2);
    assert!(counter("membership.handoff_blocks", &[]) > handoff_before);
    assert!(
        counter("transport.retries", &[("op", "put")]) > put_retries_before,
        "put injections were retried"
    );
    assert!(
        counter("transport.retries", &[("op", "collective")]) > coll_retries_before,
        "collective injections were retried"
    );

    std::fs::remove_dir_all(&churn_dir).ok();
    std::fs::remove_dir_all(&static_dir).ok();
}

/// Admission control (degradation-ladder rung 4): a backlog over the
/// high-water mark sheds the configured operator — its output covers no
/// data for the step — while undeferred operators are byte-identical
/// to the un-shed run.
#[test]
fn overload_sheds_deferred_ops_and_nothing_else() {
    let clean_dir = out_dir("admit-off");
    let clean_spaces: Vec<Arc<DataSpaces>> = (0..N_STAGING)
        .map(|_| Arc::new(DataSpaces::with_faults(ds_cfg(), None, retry())))
        .collect();
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(N_COMPUTE, N_STAGING));
    let clean = run(
        &clean_dir,
        Arc::clone(&router),
        None,
        None,
        None,
        &clean_spaces,
    );

    let triggers_before = counter("staging.admission_triggers", &[]);
    let shed_dir = out_dir("admit-on");
    let shed_spaces: Vec<Arc<DataSpaces>> = (0..N_STAGING)
        .map(|_| Arc::new(DataSpaces::with_faults(ds_cfg(), None, retry())))
        .collect();
    // Every serving rank gathers 2 chunks > hwm of 1: sheds every step.
    let admit = Arc::new(
        AdmitControl::parse("queue_hwm=1,defer=histogram")
            .unwrap()
            .unwrap(),
    );
    let shed = run(
        &shed_dir,
        Arc::clone(&router),
        None,
        None,
        Some(admit),
        &shed_spaces,
    );

    let bins_of = |reports: &[Result<Vec<predata::core::StepReport>, _>], rank: usize| -> u64 {
        reports[rank]
            .as_ref()
            .unwrap()
            .iter()
            .flat_map(|s| s.results.iter())
            .filter_map(|res| match res.values.get("hist_x") {
                Some(predata::ffs::Value::ArrU64(bins)) => Some(bins.iter().sum::<u64>()),
                _ => None,
            })
            .sum()
    };

    // The un-shed run counted every particle; the shed run counted none
    // (mapper no-op'd), and says so in every serving rank's report.
    let clean_total: u64 = (0..N_STAGING).map(|r| bins_of(&clean, r)).sum();
    assert_eq!(clean_total, N_COMPUTE as u64 * IDS_PER_RANK * N_STEPS);
    let shed_total: u64 = (0..N_STAGING).map(|r| bins_of(&shed, r)).sum();
    assert_eq!(shed_total, 0, "deferred histogram covered no data");
    for steps in shed.iter().map(|r| r.as_ref().unwrap()) {
        for s in steps.iter().filter(|s| s.chunks > 0) {
            assert_eq!(s.deferred, vec!["histogram".to_string()]);
            assert!(s.is_degraded());
        }
    }
    assert!(counter("staging.admission_triggers", &[]) > triggers_before);

    // Shedding histogram left sort untouched: its files byte-identical.
    let sorted = |dir: &std::path::Path| {
        bp_files(dir)
            .into_iter()
            .filter(|(name, _)| name.starts_with("sorted_"))
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    assert_eq!(sorted(&shed_dir), sorted(&clean_dir));
    // The undeferred space index still committed every version.
    for space in &shed_spaces {
        assert!(space.is_committed("weight", 0));
    }

    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&shed_dir).ok();
}
