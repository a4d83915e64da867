//! End-to-end observability: a 2-compute / 1-staging run must leave a
//! complete paper-style record behind — per-stage span totals in the
//! metrics snapshot (the Fig. 7–9 breakdown inputs), per-chunk lineage
//! covering every pipeline stage in order, a JSON export that
//! round-trips through the `predata-report` schema (including the
//! critical-path and perturbation views), and a Chrome-trace file that
//! `chrome://tracing` / Perfetto can load — all of them views of one
//! event stream, so they must agree with each other and with the
//! transport's own counters.
//!
//! Uses the programmatic overrides (`obs::set_enabled`,
//! `obs::lineage::set_enabled`, `obs::trace::install`) rather than
//! `PREDATA_METRICS` / `PREDATA_TRACE` / `PREDATA_LINEAGE` so the test
//! is immune to environment races; the env path is covered by unit
//! tests in the `obs` crate.

use std::path::PathBuf;
use std::sync::Arc;

use predata::core::op::StreamOp;
use predata::core::ops::{HistogramOp, SortOp};
use predata::core::schema::make_particle_pg;
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

const N_COMPUTE: usize = 2;
const N_STAGING: usize = 1;
const N_STEPS: u64 = 2;
const ROWS_PER_DUMP: usize = 256;

fn dump(rank: u64, step: u64) -> Vec<f64> {
    let mut s = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(step) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = Vec::with_capacity(ROWS_PER_DUMP * 8);
    for id in 0..ROWS_PER_DUMP as u64 {
        for _ in 0..6 {
            rows.push(next() * 16.0 - 8.0);
        }
        rows.push(rank as f64);
        rows.push(id as f64);
    }
    rows
}

fn make_ops() -> Vec<Box<dyn StreamOp>> {
    vec![
        Box::new(HistogramOp::new(vec![0, 5], 16)),
        Box::new(SortOp::new()), // writes bp output → exercises the bpio counters
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("obs-pipe-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn pipeline_emits_snapshot_and_perfetto_trace() {
    predata::obs::set_enabled(true);
    predata::obs::lineage::set_enabled(true);
    let trace_path = scratch("trace").join("trace.json");
    predata::obs::trace::install(&trace_path);

    let out_dir = scratch("out");
    let (_fabric, computes, stagings) = Fabric::new(N_COMPUTE, N_STAGING, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(N_COMPUTE, N_STAGING));

    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| {
            PredataClient::new(
                e,
                Arc::clone(&router),
                vec![
                    Arc::new(HistogramOp::new(vec![0, 5], 16)),
                    Arc::new(SortOp::new()),
                ],
            )
        })
        .collect();
    for step in 0..N_STEPS {
        // "Simulation compute" for the perturbation monitor: the dump
        // synthesis stands in for the application's iteration work.
        let compute = predata::obs::span!("compute", step);
        let dumps: Vec<Vec<f64>> = (0..N_COMPUTE as u64).map(|r| dump(r, step)).collect();
        drop(compute);
        for (r, c) in clients.iter().enumerate() {
            c.write_pg(make_particle_pg(r as u64, step, dumps[r].clone()))
                .unwrap();
        }
    }

    let area = StagingArea::spawn(
        stagings,
        router,
        Arc::new(|_| make_ops()),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(N_COMPUTE, &out_dir),
        N_STEPS,
    );
    for rank_reports in area.join() {
        rank_reports.expect("staging rank succeeds");
    }

    // 1. The snapshot carries nonzero pull/decode/map/reduce span totals
    //    for every step — the raw material of the paper's breakdowns.
    let snap = predata::obs::global().snapshot();
    for step in 0..N_STEPS {
        for stage in ["pull", "decode", "map", "reduce"] {
            let stat = snap
                .span(stage, step)
                .unwrap_or_else(|| panic!("span `{stage}` missing for step {step}"));
            assert!(stat.count > 0, "span `{stage}` step {step} has zero count");
            assert!(
                stat.total_ns > 0,
                "span `{stage}` step {step} has zero total time"
            );
        }
    }

    // 2. Transport and writer counters saw real traffic, and the views
    //    agree with them and with each other: per step, one chunk-tagged
    //    `pull` event per chunk is the `pull` row's count, and the
    //    events' bytes, the rows' bytes and the fabric's own byte counter
    //    are one number.
    let pulled = snap.counter("transport.rdma_get_bytes", &[]).unwrap_or(0);
    assert!(pulled > 0);
    assert!(snap.counter("bpio.bytes_written", &[]).unwrap_or(0) > 0);
    let mut row_bytes = 0;
    let mut event_bytes = 0;
    for step in 0..N_STEPS {
        let row = snap.span("pull", step).unwrap();
        let events: Vec<_> = snap
            .lineage()
            .iter()
            .filter(|c| c.step == step)
            .filter_map(|c| c.mark(predata::obs::lineage::Stage::RdmaDone))
            .collect();
        assert_eq!(events.len() as u64, row.count, "step {step} pulls");
        assert_eq!(row.count, N_COMPUTE as u64);
        row_bytes += row.bytes;
        event_bytes += events.iter().map(|m| m.bytes.unwrap_or(0)).sum::<u64>();
        assert_eq!(
            snap.span("pull", step),
            snap.span_rows()
                .iter()
                .find(|r| r.stage == "pull" && r.step == step && r.rank == Some(0))
                .map(|r| r.stat),
            "the one staging rank did every pull"
        );
        assert_eq!(
            snap.worker_busy_ns(step),
            snap.span("decode", step).unwrap().total_ns + snap.span("map", step).unwrap().total_ns
        );
    }
    assert_eq!((row_bytes, event_bytes), (pulled, pulled));

    // 3. Every chunk (compute rank × step) has a lineage record covering
    //    the full pipeline, with timestamps in stage order.
    use predata::obs::lineage::Stage;
    let lineage = snap.lineage();
    assert_eq!(
        lineage.len() as u64,
        N_COMPUTE as u64 * N_STEPS,
        "one lineage record per chunk"
    );
    for chunk in lineage {
        assert!(
            chunk.is_complete(),
            "chunk (src {}, step {}) missing stages: has {:?}",
            chunk.src_rank,
            chunk.step,
            chunk
                .events()
                .iter()
                .map(|(s, _)| s.name())
                .collect::<Vec<_>>()
        );
        assert!(!chunk.is_truncated());
        let ev = chunk.events();
        assert!(
            ev.windows(2).all(|w| w[0].1.at_ns <= w[1].1.at_ns),
            "chunk (src {}, step {}) has out-of-order timestamps",
            chunk.src_rank,
            chunk.step
        );
        // The scheduling wait and the transfer know how long they took,
        // and the transitions that move bytes know their sizes.
        assert!(chunk.mark(Stage::RdmaDone).unwrap().wait_ns.is_some());
        assert!(chunk.mark(Stage::Packed).unwrap().bytes.is_some());
        assert!(chunk.mark(Stage::RdmaDone).unwrap().bytes.is_some());
        assert!(chunk.dominant_gap().is_some());
    }

    // 4. The perturbation monitor recorded every step: compute time (from
    //    this test), blocked-in-write_pg time, and concurrent pull bytes.
    let perturb = snap.perturb();
    assert_eq!(perturb.len() as u64, N_STEPS);
    for (step, stat) in perturb {
        assert!(stat.compute_ns > 0, "step {step} has no compute time");
        assert!(stat.blocked_ns > 0, "step {step} has no blocked time");
        assert!(
            stat.pulls > 0 && stat.pull_bytes > 0,
            "step {step} saw no pulls"
        );
        assert!(stat.blocked_fraction().is_some());
    }

    // 5. The JSON export parses and matches the predata-report schema.
    let json = snap.to_json();
    let snap_path = out_dir.join("snapshot.json");
    std::fs::write(&snap_path, &json).unwrap();
    let root = serde_json::from_str(&json).expect("snapshot JSON parses");
    assert_eq!(
        root.get("version").and_then(|v| v.as_u64()),
        Some(predata::obs::SNAPSHOT_VERSION)
    );
    let steps = root
        .get("steps")
        .and_then(|v| v.as_array())
        .expect("steps array");
    assert_eq!(steps.len() as u64, N_STEPS);
    let stage_names: Vec<&str> = steps[0]
        .get("stages")
        .and_then(|v| v.as_array())
        .expect("stages array")
        .iter()
        .filter_map(|s| s.get("stage").and_then(|v| v.as_str()))
        .collect();
    for want in ["pull", "decode", "map", "reduce", "finalize"] {
        assert!(stage_names.contains(&want), "step 0 missing stage {want}");
    }

    // 6. predata-report renders the new views from the live snapshot.
    let report = predata_bench::report::render_snapshot_str(&json)
        .expect("live snapshot renders as a report");
    assert!(report.contains("per-chunk critical path"));
    assert!(report.contains("stragglers"));
    assert!(report.contains("per-step perturbation"));
    assert!(report.contains("rdma_done"), "critical path names stages");
    assert!(
        !report.contains("no lineage records"),
        "views render real data, not placeholders"
    );

    // 7. join() flushed the Chrome trace; the file must be valid trace
    //    JSON — an array of "X" complete events (with ts/dur/pid/tid),
    //    "s"/"t"/"f" per-chunk lineage flow events, plus "M" thread-name
    //    metadata — which Perfetto loads directly.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace file written at join");
    let trace = serde_json::from_str(&trace_text).expect("trace JSON parses");
    let events = trace.as_array().expect("trace is a JSON array");
    assert!(!events.is_empty(), "trace has events");
    let mut complete = 0;
    let mut metadata = 0;
    let mut flows = 0;
    let mut flow_starts = 0;
    for ev in events {
        match ev.get("ph").and_then(|v| v.as_str()) {
            Some("X") => {
                complete += 1;
                assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
                assert!(ev.get("ts").and_then(|v| v.as_u64()).is_some());
                assert!(ev.get("dur").and_then(|v| v.as_u64()).is_some());
                assert!(ev.get("pid").and_then(|v| v.as_u64()).is_some());
                assert!(ev.get("tid").and_then(|v| v.as_u64()).is_some());
            }
            Some("M") => metadata += 1,
            Some(ph @ ("s" | "t" | "f")) => {
                flows += 1;
                if ph == "s" {
                    flow_starts += 1;
                }
                assert_eq!(ev.get("cat").and_then(|v| v.as_str()), Some("lineage"));
                assert!(ev.get("id").and_then(|v| v.as_u64()).is_some());
                let args = ev.get("args").expect("flow event carries args");
                assert!(args.get("stage").and_then(|v| v.as_str()).is_some());
            }
            other => panic!("unexpected trace event phase {other:?}"),
        }
    }
    assert!(complete > 0, "trace contains complete events");
    assert!(metadata > 0, "trace names its threads");
    assert!(flows > 0, "trace contains lineage flow events");
    assert_eq!(
        flow_starts as u64,
        N_COMPUTE as u64 * N_STEPS,
        "one flow-start per chunk"
    );
    let named: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    for want in ["pull", "decode", "map"] {
        assert!(named.contains(&want), "trace missing `{want}` events");
    }

    std::fs::remove_dir_all(out_dir).ok();
    std::fs::remove_file(&trace_path).ok();
}
