//! The live telemetry plane, end to end: a hostile staging run — elastic
//! membership (a rank leaves mid-run), transient faults absorbed by
//! retries, admission control shedding, and one deliberately slow rank —
//! driven with `PREDATA_LIVE` on must emit a parseable per-step JSONL
//! stream whose aggregated `HealthReport` flags the seeded straggler
//! rank, while the **data** outputs stay byte-identical to the same run
//! with the plane off (observability that changes results isn't
//! observability) — and the live run performs exactly the `minimpi`
//! collectives of the reference run: the plane reads the shared fold, it
//! exchanges nothing.
//!
//! One `#[test]` drives both runs sequentially: they share the global
//! registry's plane (and its collective counters), so concurrent tests
//! inside this binary would race its configuration.

use std::sync::Arc;
use std::time::Duration;

use predata::apps::GtcWorld;
use predata::core::op::{ChunkMapper, MapCtx, OpCtx, OpResult, StreamOp, Tagged};
use predata::core::ops::{HistogramOp, SortOp};
use predata::core::{AdmitControl, PredataClient, StagingArea, StagingConfig};
use predata::transport::{
    EpochRouter, Fabric, FaultPlan, FifoPolicy, Membership, MembershipPlan, PullPolicy,
    RetryPolicy, Router,
};

const N_COMPUTE: usize = 8;
const N_STAGING: usize = 4;
const IDS_PER_RANK: u64 = 40;
const N_STEPS: u64 = 3;
const SLEEPY_RANK: usize = 2;

/// A timing-only operator: on [`SLEEPY_RANK`] its mapper sleeps ~25ms
/// per chunk and emits nothing, so that rank drags stage 4a (decode+map)
/// — the span the straggler detector z-scores — without touching any
/// output. Every rank must host the op (its shuffle/barrier phases are
/// collectives); only the seeded rank actually sleeps.
struct SleepyOp;

struct SleepyMapper;

impl ChunkMapper for SleepyMapper {
    fn map_chunk(&self, _chunk: &predata::core::chunk::PackedChunk, ctx: &MapCtx) -> Vec<Tagged> {
        if ctx.my_rank == SLEEPY_RANK {
            std::thread::sleep(Duration::from_millis(25));
        }
        Vec::new()
    }
}

impl StreamOp for SleepyOp {
    fn name(&self) -> &str {
        "sleepy"
    }
    fn initialize(&mut self, _agg: &predata::core::agg::Aggregates, _ctx: &OpCtx) {}
    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        Arc::new(SleepyMapper)
    }
    fn reduce(&mut self, _tag: u64, _items: Vec<bytes::Bytes>, _ctx: &OpCtx) {}
    fn finalize(&mut self, _ctx: &OpCtx) -> OpResult {
        OpResult::default()
    }
}

fn out_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("live-telemetry-{tag}-{}", std::process::id()));
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

/// One full churn/fault run: GTC dumps through sort + histogram, the
/// sleepy op on [`SLEEPY_RANK`] only, rank 1 leaving at the step-2
/// epoch boundary, one transient dropped-chunk injection absorbed by
/// retries, and admission control shedding the histogram on every
/// overloaded step. Returns the per-rank step reports.
fn run(dir: &std::path::Path) -> Vec<Vec<predata::core::StepReport>> {
    let plan = MembershipPlan::parse(&format!("base={N_STAGING},leave=1@2"))
        .unwrap()
        .unwrap();
    let membership = Membership::from_plan(&plan).unwrap();
    let router: Arc<dyn Router> = Arc::new(EpochRouter::new(N_COMPUTE, membership));
    let faults = Arc::new(FaultPlan::new(20100419).drop_chunks(1.0).max_injections(1));
    let (_fabric, computes, stagings) =
        Fabric::with_faults(N_COMPUTE, N_STAGING, None, Some(Arc::clone(&faults)));

    let mut cfg = StagingConfig::new(N_COMPUTE, dir);
    cfg.retry = RetryPolicy::parse("attempts=4,base_ms=1,max_ms=2,deadline_ms=20000")
        .unwrap()
        .unwrap();
    // Serving ranks gather 2+ chunks > hwm of 1: sheds every step. The
    // decision is `AdmitControl::overloaded`, which never consults the
    // live plane's health.
    cfg.admit = Some(Arc::new(
        AdmitControl::parse("queue_hwm=1,defer=histogram")
            .unwrap()
            .unwrap(),
    ));

    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_rank| {
            vec![
                Box::new(SortOp::new()) as Box<dyn StreamOp>,
                Box::new(HistogramOp::new(vec![0], 8)),
                Box::new(SleepyOp),
            ]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        cfg,
        N_STEPS,
    );

    let mut world = GtcWorld::new(N_COMPUTE, IDS_PER_RANK as usize, 9);
    world.migration_rate = 0.0;
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
        .into_iter()
        .map(|r| r.expect("staging rank survives"))
        .collect()
}

/// `(collective calls, messages)` every `minimpi` world of this process
/// has made so far.
fn collectives() -> (u64, u64) {
    let snap = predata::obs::global().snapshot();
    let count = |name| snap.counter(name, &[]).unwrap_or(0);
    (count("minimpi.collective_calls"), count("minimpi.messages"))
}

#[test]
fn live_run_flags_the_straggler_and_leaves_outputs_byte_identical() {
    let plane = predata::obs::global().live();
    let before = collectives();
    // --- Live run: plane on, streaming to a JSONL file. It goes first:
    // the plane reads the process-wide fold, which a second run over the
    // same step numbers adds to. ---
    let on_dir = out_dir("on");
    let stream_path = on_dir.join("live_stream.jsonl");
    plane.configure(
        Some(predata::obs::live::LiveConfig::default()),
        Some(stream_path.clone()),
    );
    let on_reports = run(&on_dir);
    // Turn the plane back off before asserting, so a failure below can't
    // leak an enabled plane into other expectations.
    plane.configure(None, None);
    let after_on = collectives();

    // --- Reference run: same world, plane off. ---
    let off_dir = out_dir("off");
    let off_reports = run(&off_dir);
    assert!(
        !plane.is_enabled(),
        "reference run must not enable the plane"
    );
    let after_off = collectives();

    // Watching costs no communication: the live run made exactly the
    // collective calls (and messages) of the reference run.
    let delta = |a: (u64, u64), b: (u64, u64)| (b.0 - a.0, b.1 - a.1);
    assert!(delta(before, after_on).0 > 0, "the runs are collective");
    assert_eq!(
        delta(before, after_on),
        delta(after_on, after_off),
        "live-on collectives == live-off collectives"
    );

    // The stream: one line per closed step, every line independently
    // parseable JSON with the full stages/health/per-rank schema.
    let text = std::fs::read_to_string(&stream_path).expect("stream file written");
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        lines.len(),
        N_STEPS as usize,
        "one telemetry line per step:\n{text}"
    );
    let mut last_straggler = None;
    for (i, line) in lines.iter().enumerate() {
        let v: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("line {}: {e:?}", i + 1));
        assert_eq!(v.get("step").and_then(|s| s.as_u64()), Some(i as u64));
        assert_eq!(
            v.get("ranks").and_then(|r| r.as_u64()),
            Some(N_STAGING as u64)
        );
        let health = v.get("health").expect("health section");
        let per_rank = v.get("per_rank").and_then(|p| p.as_array()).unwrap();
        assert_eq!(per_rank.len(), N_STAGING, "every rank has a row");
        // The rows are the fold's: every serving rank gathered chunks,
        // and the overloaded ones shed the histogram.
        let sum = |key| -> u64 {
            let of = |r: &serde_json::Value| r.get(key).and_then(|v| v.as_u64()).unwrap();
            per_rank.iter().map(of).sum()
        };
        assert_eq!(sum("backlog"), N_COMPUTE as u64, "line {}", i + 1);
        assert!(sum("sheds") > 0, "line {}", i + 1);
        assert!(v.get("stages").and_then(|s| s.get("pull_map")).is_some());
        last_straggler = health.get("straggler_rank").and_then(|s| s.as_u64());
    }
    // The seeded straggler: SLEEPY_RANK's windowed compute span (~25ms
    // per chunk, 2+ chunks per step, summed over the window) dwarfs the
    // other ranks' — the aggregated report must name it.
    assert_eq!(
        last_straggler,
        Some(SLEEPY_RANK as u64),
        "health flags the seeded straggler:\n{text}"
    );

    // The dashboard renderer accepts the real stream end to end (the
    // same path `predata-report live --check` takes in CI).
    let rendered = predata_bench::report::render_live_stream_str(&text).expect("stream renders");
    assert!(
        rendered.contains(&format!("straggler r{SLEEPY_RANK}")),
        "dashboard names the straggler:\n{rendered}"
    );

    // Admission control shed (queue pressure > hwm) in BOTH runs — the
    // signal-path decision matches the raw-path one step for step...
    for (off_rank, on_rank) in off_reports.iter().zip(&on_reports) {
        for (off_step, on_step) in off_rank.iter().zip(on_rank) {
            assert_eq!(off_step.deferred, on_step.deferred, "same shed decisions");
        }
    }
    let shed_steps: usize = on_reports
        .iter()
        .flatten()
        .filter(|s| !s.deferred.is_empty())
        .count();
    assert!(shed_steps > 0, "overload actually shed");

    // ...and the *data* outputs are byte-identical: watching the run
    // changed nothing about its results.
    assert_eq!(bp_files(&on_dir), bp_files(&off_dir));

    std::fs::remove_dir_all(&off_dir).ok();
    std::fs::remove_dir_all(&on_dir).ok();
}
