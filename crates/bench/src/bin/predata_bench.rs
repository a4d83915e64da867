//! `predata-bench` — the perf-trajectory driver.
//!
//! ```text
//! predata-bench trajectory [--quick] [--check] [--out PATH]
//! ```
//!
//! Runs the `staging_pipeline` scenarios inline (a large-chunk step and
//! a many-small-chunks step), the `query_service` scenario (1/8/64 concurrent readers
//! hammering a committed dump version while a writer keeps staging fresh
//! ones), the `membership_churn` scenario (a staging rank leaves and
//! another joins mid-run, with index handoff at the epoch boundary),
//! the `obs_live_overhead` scenario (the same staging step with the
//! live telemetry plane off vs on — the <3% cost guard for PR 9),
//! plus the deterministic simhec figure models, and emits a
//! schema-stable `BENCH_<pr>.json` — the checked-in perf trajectory that
//! later PRs compare themselves against.
//!
//! Three kinds of numbers, tagged in the file:
//!
//! * `wall` — medians of real wall-clock runs on whatever machine this
//!   is; recorded for the trajectory, never gated (CI hardware varies).
//! * `exact` — deterministic counters (fabric transactions, hot-path
//!   copies); change only when behaviour changes.
//! * `model` — simhec machine-model outputs; bit-deterministic, so any
//!   drift is a real change to the modelled system.
//!
//! `--check` validates every `BENCH_*.json` next to the output path
//! against the schema and fails (exit 1) when a `model` value regressed
//! by more than 20% relative to any prior file — the only gate that is
//! meaningful on shared CI hardware. `--quick` shrinks the wall
//! scenarios for smoke use; `model` keys are identical in both modes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use predata_bench::{gtc_config, pixie_config};
use predata_core::ops::{HistogramOp, MomentsOp};
use predata_core::schema::make_particle_pg;
use predata_core::staging::{StagingConfig, StagingRank};
use predata_core::{PredataClient, StreamOp};
use simhec::pfs::PfsModel;
use simhec::scenario::Placement;
use simhec::{MachineConfig, StagedRun};
use transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

const SCHEMA: &str = "predata-bench-trajectory/v1";
const PR: u64 = 9;

/// One recorded number: value, kind (`wall`/`exact`/`model`), unit.
struct Bench {
    value: f64,
    kind: &'static str,
    unit: &'static str,
}

struct Scenario {
    n_chunks: usize,
    rows_per_chunk: usize,
}

fn ops() -> Vec<Box<dyn StreamOp>> {
    vec![
        Box::new(HistogramOp::all_attrs(64)),
        Box::new(MomentsOp::new(vec![0, 1, 2])),
    ]
}

/// Deterministic scattered rows (same generator as the Criterion bench).
fn dump(rank: u64, rows_per_chunk: usize) -> Vec<f64> {
    let mut s = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = Vec::with_capacity(rows_per_chunk * 8);
    for id in 0..rows_per_chunk as u64 {
        for _ in 0..6 {
            rows.push(next() * 16.0 - 8.0);
        }
        rows.push(rank as f64);
        rows.push(id as f64);
    }
    rows
}

/// Build a single-rank staging setup with every dump already written,
/// ready for one `run_step`.
fn staged_step(dir: &Path, sc: &Scenario) -> (Fabric, StagingRank) {
    let (fabric, computes, mut stagings) = Fabric::new(sc.n_chunks, 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(sc.n_chunks, 1));
    for (r, e) in computes.into_iter().enumerate() {
        let client = PredataClient::new(
            e,
            Arc::clone(&router),
            vec![Arc::new(HistogramOp::all_attrs(64))],
        );
        client
            .write_pg(make_particle_pg(
                r as u64,
                0,
                dump(r as u64, sc.rows_per_chunk),
            ))
            .unwrap();
    }
    let (_world, mut comms) = minimpi::World::with_size(1);
    let rank = StagingRank::new(
        comms.remove(0),
        stagings.remove(0),
        router,
        Box::new(FifoPolicy::default()) as Box<dyn PullPolicy>,
        ops(),
        StagingConfig::new(sc.n_chunks, dir),
    )
    .expect("staging rank starts");
    (fabric, rank)
}

/// Median wall-clock of `iters` fresh `run_step`s, in milliseconds,
/// plus the fabric-transaction count of one run (an `exact` number).
fn measure(dir: &Path, sc: &Scenario, iters: usize) -> (f64, u64) {
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let (_fabric, mut rank) = staged_step(dir, sc);
            let started = Instant::now();
            rank.run_step(0).expect("step succeeds");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = times[times.len() / 2];
    let (fabric, mut rank) = staged_step(dir, sc);
    rank.run_step(0).expect("step succeeds");
    (median, fabric.stats().rdma_gets())
}

fn counter(name: &str) -> u64 {
    obs::global()
        .snapshot()
        .counter(name, &[])
        .unwrap_or_default()
}

/// Stage one full version of `var` into the space, in 8 row stripes
/// (like independent pipeline ranks), then commit it.
fn stage_version(space: &dataspaces::DataSpaces, var: &str, version: u64, dom: &[u64; 2]) {
    use bpio::DataArray;
    use dataspaces::Region;
    let stripes = 8;
    let rows = dom[0] / stripes;
    for s in 0..stripes {
        let region = Region::new(vec![s * rows, 0], vec![rows, dom[1]]);
        let n = (rows * dom[1]) as usize;
        let data: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 + version as f64).collect();
        space
            .put(var, version, &region, DataArray::F64(data))
            .unwrap();
    }
    space.commit(var, version);
}

/// The `query_service` scenario: `readers` threads hammer the committed
/// version 0 through the [`dataspaces::QueryService`] front-end while a
/// writer thread keeps staging (and evicting) fresh dump versions into
/// the same sharded index. Returns queries served per second.
fn query_service_scenario(quick: bool, readers: usize) -> f64 {
    use dataspaces::{
        DataSpaces, DsConfig, QueryKind, QueryService, QueryServiceConfig, Reduction, Region,
    };
    use std::sync::atomic::{AtomicBool, Ordering};

    let dom: [u64; 2] = if quick { [128, 64] } else { [512, 256] };
    let block = if quick { vec![32, 16] } else { vec![64, 32] };
    let space = Arc::new(DataSpaces::new(DsConfig::new(dom.to_vec(), block, 8)));
    stage_version(&space, "f", 0, &dom);
    let svc = Arc::new(QueryService::new(
        Arc::clone(&space),
        QueryServiceConfig::default(),
    ));
    let queries_per_reader = if quick { 12 } else { 48 };
    let mix = [
        QueryKind::Range(Region::whole(&dom)),
        QueryKind::Range(Region::new(
            vec![dom[0] / 4, dom[1] / 4],
            vec![dom[0] / 2, dom[1] / 2],
        )),
        QueryKind::Reduce(Region::whole(&dom), Reduction::Sum),
        QueryKind::Reduce(
            Region::new(vec![0, 0], vec![dom[0], dom[1] / 2]),
            Reduction::Max,
        ),
    ];

    let done = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let wall = std::thread::scope(|s| {
        // The concurrent staging load: fresh versions of another
        // variable commit (and age out) through the same shards the
        // readers scan — epoch churn for the whole measurement.
        let writer_space = Arc::clone(&space);
        let writer_done = Arc::clone(&done);
        s.spawn(move || {
            let mut v = 0u64;
            while !writer_done.load(Ordering::Acquire) {
                v += 1;
                stage_version(&writer_space, "staging", v, &dom);
                if v > 2 {
                    writer_space.evict_before("staging", v - 1);
                }
            }
        });
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let svc = Arc::clone(&svc);
                let mix = &mix;
                s.spawn(move || {
                    for q in 0..queries_per_reader {
                        let kind = mix[(q + r) % mix.len()].clone();
                        svc.query("f", 0, kind).expect("query serves");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("reader thread");
        }
        // Readers finishing is the measured interval; only then is the
        // background writer released.
        let wall = started.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        wall
    });
    (readers * queries_per_reader) as f64 / wall.max(1e-9)
}

/// The `membership_churn` scenario: an elastic staging run — base ranks
/// {0, 1}, rank 1 leaves and rank 2 joins at the mid-run epoch boundary,
/// the leaver's committed DataSpaces shards handed off to the joiner —
/// next to a static reference over the same world size. Returns the
/// median wall time of one whole run (ms) for `elastic` true/false.
fn membership_churn_run(quick: bool, elastic: bool) -> f64 {
    use dataspaces::{DataSpaces, DsConfig, ShardParcel, SpaceIndexOp};
    use predata_core::{EpochHook, StagingArea, StreamOp};
    use std::collections::HashMap;
    use std::sync::{Condvar, Mutex};
    use transport::{EpochRouter, Membership, MembershipPlan, RetryPolicy, Router};

    let n_compute = 8usize;
    let n_staging = 3usize;
    let n_steps = 4u64;
    let rows = if quick { 256usize } else { 2048 };
    let dir = std::env::temp_dir().join(format!("predata-churn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let ds_cfg = DsConfig::new(
        vec![rows as u64, n_compute as u64],
        vec![rows as u64 / 4, 1],
        4,
    );
    let spaces: Vec<Arc<DataSpaces>> = (0..n_staging)
        .map(|_| {
            Arc::new(DataSpaces::with_faults(
                ds_cfg.clone(),
                None,
                RetryPolicy::from_env(),
            ))
        })
        .collect();
    let (router, membership): (Arc<dyn Router>, Option<Arc<Membership>>) = if elastic {
        let plan = MembershipPlan::parse("base=2,leave=1@2,join=2@2")
            .unwrap()
            .unwrap();
        let m = Arc::new(Membership::from_plan(&plan).unwrap());
        (
            Arc::new(EpochRouter::new(n_compute, Arc::clone(&m))),
            Some(m),
        )
    } else {
        (Arc::new(BlockRouter::new(n_compute, n_staging)), None)
    };
    // Index handoff at the boundary: leaver posts its exported shards,
    // the joiner republishes them (same orchestration the chaos test
    // proves byte-identical).
    type Board = (Mutex<HashMap<u64, Vec<ShardParcel>>>, Condvar);
    let board: Arc<Board> = Arc::new((Mutex::new(HashMap::new()), Condvar::new()));
    let hook_spaces = spaces.clone();
    let n_shards = ds_cfg.n_shards;
    let on_epoch: Arc<EpochHook> = Arc::new(move |epoch, rank| {
        let (lock, cv) = &*board;
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
        if successor == Some(rank) && !epoch.left.is_empty() {
            let mut posted = lock.lock().unwrap();
            while posted.get(&epoch.version).map_or(0, Vec::len) < epoch.left.len() {
                posted = cv.wait(posted).unwrap();
            }
            for parcel in posted.remove(&epoch.version).unwrap() {
                hook_spaces[rank].import_shards(parcel).unwrap();
            }
        }
    });

    let started = Instant::now();
    let (_fabric, computes, stagings) = Fabric::with_faults(n_compute, n_staging, None, None);
    let mut cfg = StagingConfig::new(n_compute, &dir);
    cfg.membership = membership;
    cfg.on_epoch = elastic.then_some(on_epoch);
    let ops_spaces = spaces.clone();
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(move |rank| {
            vec![
                Box::new(HistogramOp::all_attrs(64)) as Box<dyn StreamOp>,
                Box::new(SpaceIndexOp::local(Arc::clone(&ops_spaces[rank]), 5, "w")),
            ]
        }),
        Arc::new(|_| Box::new(FifoPolicy::default()) as Box<dyn PullPolicy>),
        cfg,
        n_steps,
    );
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
        .collect();
    for step in 0..n_steps {
        for (r, c) in clients.iter().enumerate() {
            c.write_pg(make_particle_pg(r as u64, step, dump(r as u64, rows)))
                .unwrap();
        }
    }
    area.join().into_iter().for_each(|r| {
        r.expect("staging rank survives churn");
    });
    let ms = started.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_dir_all(&dir).ok();
    ms
}

fn run_trajectory(quick: bool) -> BTreeMap<String, Bench> {
    let mut out: BTreeMap<String, Bench> = BTreeMap::new();
    let mut put = |k: &str, value: f64, kind: &'static str, unit: &'static str| {
        out.insert(k.to_string(), Bench { value, kind, unit });
    };
    let dir = std::env::temp_dir().join(format!("predata-trajectory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // --- wall: the staging_pipeline scenarios ---
    let iters = if quick { 3 } else { 7 };
    let (large_chunks, large_rows) = if quick { (4, 2048) } else { (16, 16 * 1024) };
    let (small_chunks, small_rows) = if quick { (32, 128) } else { (128, 256) };

    eprintln!("trajectory: staging_step large ({large_chunks} x {large_rows} rows)...");
    let (large_ms, _) = measure(
        &dir,
        &Scenario {
            n_chunks: large_chunks,
            rows_per_chunk: large_rows,
        },
        iters,
    );
    put("staging_step_large_ms", large_ms, "wall", "ms");

    eprintln!("trajectory: staging_step small ({small_chunks} x {small_rows} rows)...");
    let copied_before = counter("predata.bytes_copied");
    let (small_ms, small_gets) = measure(
        &dir,
        &Scenario {
            n_chunks: small_chunks,
            rows_per_chunk: small_rows,
        },
        iters,
    );
    put("staging_step_small_ms", small_ms, "wall", "ms");
    put(
        "small_unbatched_rdma_gets",
        small_gets as f64,
        "exact",
        "gets",
    );

    // The zero-copy acceptance bar: the output path never re-copies a
    // result buffer on little-endian targets.
    put(
        "output_path_bytes_copied",
        (counter("predata.bytes_copied") - copied_before) as f64,
        "exact",
        "bytes",
    );

    // --- wall: the obs_live_overhead scenario ---
    // The zero-overhead-when-disabled / <3%-when-enabled contract of the
    // live telemetry plane (DESIGN.md §3.6): the same many-small-chunks
    // step, with the plane programmatically off and then on at the
    // default window. Single-rank, so the per-step frame exchange is a
    // 1-rank allgather — the sampling + ingest cost without collective
    // noise.
    eprintln!("trajectory: obs_live_overhead (live plane off vs on)...");
    let live_sc = Scenario {
        n_chunks: small_chunks,
        rows_per_chunk: small_rows,
    };
    // Reconfigure before every iteration: each run replays step 0, and a
    // stale plane would skip its sample/ingest on the replays (the
    // per-step idempotence guards), under-measuring the enabled cost.
    let measure_live = |on: bool| -> f64 {
        let mut times: Vec<f64> = (0..iters)
            .map(|_| {
                obs::live::configure(on.then(obs::live::LiveConfig::default), None);
                let (_fabric, mut rank) = staged_step(&dir, &live_sc);
                let started = Instant::now();
                rank.run_step(0).expect("step succeeds");
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times[times.len() / 2]
    };
    let live_off_ms = measure_live(false);
    let live_on_ms = measure_live(true);
    obs::live::configure(None, None);
    put("obs_live_disabled_ms", live_off_ms, "wall", "ms");
    put("obs_live_enabled_ms", live_on_ms, "wall", "ms");
    put(
        "obs_live_overhead_x",
        live_on_ms / live_off_ms.max(1e-9),
        "wall",
        "x",
    );
    std::fs::remove_dir_all(&dir).ok();

    // --- wall: the query_service scenario ---
    for readers in [1usize, 8, 64] {
        eprintln!("trajectory: query_service ({readers} readers, writer staging)...");
        let qps = query_service_scenario(quick, readers);
        put(&format!("query_service_qps_{readers}"), qps, "wall", "q/s");
    }

    // --- wall + exact: the membership_churn scenario ---
    eprintln!("trajectory: membership_churn (leave + join mid-run, index handoff)...");
    let median = |mut t: Vec<f64>| {
        t.sort_by(|a, b| a.partial_cmp(b).unwrap());
        t[t.len() / 2]
    };
    let handoff_before = counter("membership.handoff_blocks");
    let churn_ms = median(
        (0..iters)
            .map(|_| membership_churn_run(quick, true))
            .collect(),
    );
    let handoff = (counter("membership.handoff_blocks") - handoff_before) / (iters as u64).max(1);
    let static_ms = median(
        (0..iters)
            .map(|_| membership_churn_run(quick, false))
            .collect(),
    );
    put("membership_churn_run_ms", churn_ms, "wall", "ms");
    put("membership_static_run_ms", static_ms, "wall", "ms");
    put(
        "membership_churn_overhead_x",
        churn_ms / static_ms.max(1e-9),
        "wall",
        "x",
    );
    put(
        "membership_handoff_blocks",
        handoff as f64,
        "exact",
        "blocks",
    );

    // --- model: the deterministic simhec figure numbers ---
    eprintln!("trajectory: simhec figure models...");
    for cores in [512usize, 16_384] {
        let staged = StagedRun::run(&gtc_config(cores, Placement::Staging));
        put(
            &format!("gtc_staged_total_s_{cores}"),
            staged.total_time,
            "model",
            "s",
        );
    }
    let incompute = StagedRun::run(&gtc_config(512, Placement::InComputeNode));
    put(
        "gtc_incompute_total_s_512",
        incompute.total_time,
        "model",
        "s",
    );
    let pixie = StagedRun::run(&pixie_config(256, Placement::Staging));
    put("pixie_staged_total_s_256", pixie.total_time, "model", "s");
    // Fig. 11's merged-vs-unmerged read advantage at 32 reader cores.
    let machine = MachineConfig::xt4_like();
    let pfs = PfsModel::new(machine.pfs.clone(), 7);
    let readers = 32usize;
    let unmerged = pfs.read_time_ideal(10e9 / readers as f64, readers, 4096 / readers as u64);
    let merged = pfs.read_time_ideal(10e9 / readers as f64, readers, 1);
    put(
        "fig11_read_speedup_32readers",
        unmerged / merged,
        "model",
        "x",
    );
    out
}

/// Serialize in a fixed, diff-friendly layout (keys sorted by the
/// BTreeMap, one bench per line).
fn render(benches: &BTreeMap<String, Bench>, quick: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"pr\": {PR},\n"));
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    s.push_str("  \"benches\": {\n");
    let n = benches.len();
    for (i, (k, b)) in benches.iter().enumerate() {
        s.push_str(&format!(
            "    \"{k}\": {{\"value\": {:.6}, \"kind\": \"{}\", \"unit\": \"{}\"}}{}\n",
            b.value,
            b.kind,
            b.unit,
            if i + 1 < n { "," } else { "" }
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Validate one trajectory file's shape; returns its benches as
/// `name -> (value, kind)`.
fn load(path: &Path) -> Result<BTreeMap<String, (f64, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let schema = v
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or_else(|| format!("{}: missing \"schema\"", path.display()))?;
    if !schema.starts_with("predata-bench-trajectory/") {
        return Err(format!("{}: unknown schema `{schema}`", path.display()));
    }
    v.get("pr")
        .and_then(|p| p.as_u64())
        .ok_or_else(|| format!("{}: missing \"pr\"", path.display()))?;
    let benches = v
        .get("benches")
        .and_then(|b| b.as_object())
        .ok_or_else(|| format!("{}: missing \"benches\" object", path.display()))?;
    let mut out = BTreeMap::new();
    for (name, bench) in benches.iter() {
        let value = bench
            .get("value")
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("{}: bench `{name}` has no numeric value", path.display()))?;
        let kind = bench
            .get("kind")
            .and_then(|x| x.as_str())
            .ok_or_else(|| format!("{}: bench `{name}` has no kind", path.display()))?;
        out.insert(name.clone(), (value, kind.to_string()));
    }
    Ok(out)
}

/// Compare fresh results against every `BENCH_*.json` in the current
/// directory (the repo root, where trajectory files are checked in):
/// schema-validate each, and fail on a >20% drift of any shared `model`
/// value in either direction — model numbers are deterministic and
/// should not move at all without a code change.
fn check(benches: &BTreeMap<String, Bench>) -> Result<(), String> {
    let dir = PathBuf::from(".");
    let mut prior: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    prior.sort();
    if prior.is_empty() {
        eprintln!("check: no prior BENCH_*.json — nothing to compare against");
        return Ok(());
    }
    let mut failures = Vec::new();
    for path in &prior {
        let baseline = load(path)?;
        let mut compared = 0;
        for (name, (old, kind)) in &baseline {
            if kind != "model" {
                continue;
            }
            let Some(new) = benches.get(name).filter(|b| b.kind == "model") else {
                continue;
            };
            compared += 1;
            let ratio = if *old != 0.0 { new.value / old } else { 1.0 };
            if !(0.8..=1.2).contains(&ratio) {
                failures.push(format!(
                    "{name}: {old:.4} -> {:.4} ({:+.1}%) vs {}",
                    new.value,
                    (ratio - 1.0) * 100.0,
                    path.display()
                ));
            }
        }
        eprintln!(
            "check: {} — schema ok, {compared} model value(s) compared",
            path.display()
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("model regressions:\n  {}", failures.join("\n  ")))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    if mode != Some("trajectory") {
        eprintln!("usage: predata-bench trajectory [--quick] [--check] [--out PATH]");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let do_check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{PR}.json")));

    let benches = run_trajectory(quick);
    if do_check {
        if let Err(e) = check(&benches) {
            eprintln!("trajectory check FAILED: {e}");
            std::process::exit(1);
        }
        eprintln!("trajectory check passed");
    }
    let rendered = render(&benches, quick);
    std::fs::write(&out_path, &rendered).expect("write trajectory file");
    println!("wrote {}", out_path.display());
    for (k, b) in &benches {
        println!("  {k:<34} {:>14.4} {} [{}]", b.value, b.unit, b.kind);
    }
}
