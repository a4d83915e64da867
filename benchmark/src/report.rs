//! Metric registry and result records.
//!
//! Three classes of metric leave a run:
//!
//! * **end-to-end** ([`END_TO_END`]) — what a user of the middleware
//!   feels; reported by every workload with tracing off, gated by the
//!   bounds in `BENCHMARK.json`;
//! * **per-layer** ([`PER_LAYER`]) — isolated probes of single layers
//!   plus exact operation counts from the harness's call sites;
//!   reported by every workload in the traced run, never gated;
//! * **detail** — the workload's own named view of its surface
//!   (`write_block_ms`, `query_p95_ms`, `core.staging.rank_skew_ms`, …);
//!   printed and written to the result file, different per workload.

use serde_json::{json, Map, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The three quantiles of an operation's latency every workload reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quantiles {
    pub p25: f64,
    pub p50: f64,
    pub p95: f64,
}

impl Quantiles {
    pub fn of(values: &[f64]) -> Quantiles {
        Quantiles {
            p25: crate::stats::percentile(values, 0.25),
            p50: crate::stats::median(values),
            p95: crate::stats::percentile(values, 0.95),
        }
    }
}

/// What a stretch of a workload (warm-up, timed, traced) amounts to,
/// whatever engine ran it.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub checks: u64,
    pub mismatches: u64,
    /// Operations the stretch ran (dumps, queries, rounds).
    pub ops: u64,
    /// The operation's latency — see README for what that is per workload.
    pub op_ms: Quantiles,
    pub ops_per_s: f64,
    /// Representative time per operation, for the tracing overhead.
    pub op_time_ms: f64,
    /// Process CPU seconds the stretch used.
    pub cpu_s: f64,
    /// The workload's own named metrics.
    pub detail: Vec<Metric>,
    /// Exact operation counts of the per-layer list.
    pub counts: Vec<Metric>,
}

/// `(name, unit, better, bound)` of every end-to-end metric, in report
/// order. The bound is the share of the parent's median by which the
/// metric may worsen before a change counts as a regression; README
/// ("Measured noise") records the spread each was set against.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("op_p25_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str, &str); 71] = [
    // the operation's latency in the traced section: the median and the
    // tail, which this host cannot repeat within a gate's bound
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    // ffs
    ("ffs.encode_mbps", "MB/s", "higher"),
    ("ffs.decode_view_mbps", "MB/s", "higher"),
    ("ffs.header_decode_us", "us", "lower"),
    // core: chunk, client, operators, in-compute placement
    ("core.chunk.pack_mbps", "MB/s", "higher"),
    ("core.chunk.unpack_mbps", "MB/s", "higher"),
    ("core.client.partial_calc_us", "us", "lower"),
    ("core.ops.sort.map_mbps", "MB/s", "higher"),
    ("core.ops.histogram.map_mbps", "MB/s", "higher"),
    ("core.ops.histogram2d.map_mbps", "MB/s", "higher"),
    ("core.ops.bitmap.map_mbps", "MB/s", "higher"),
    ("core.ops.reorg.map_mbps", "MB/s", "higher"),
    ("core.ops.sort.finish_ms", "ms", "lower"),
    ("core.ops.histogram.finish_ms", "ms", "lower"),
    ("core.ops.histogram2d.finish_ms", "ms", "lower"),
    ("core.ops.bitmap.finish_ms", "ms", "lower"),
    ("core.ops.reorg.finish_ms", "ms", "lower"),
    ("core.incompute.run_step_ms", "ms", "lower"),
    ("core.incompute.write_dump_ms", "ms", "lower"),
    // transport: fabric, evq, policy
    ("transport.fabric.pull_us_1m", "us", "lower"),
    ("transport.fabric.pull_us_32k", "us", "lower"),
    ("transport.fabric.pull_batch16_us_32k", "us", "lower"),
    ("transport.evq.handoff_us", "us", "lower"),
    ("transport.evq.mops", "Mops/s", "higher"),
    ("transport.policy.order_us_128", "us", "lower"),
    // minimpi
    ("minimpi.alltoall_mbps_2r", "MB/s", "higher"),
    ("minimpi.allgather_us_2r", "us", "lower"),
    ("minimpi.barrier_us_2r", "us", "lower"),
    ("minimpi.barrier_us_8r", "us", "lower"),
    ("minimpi.gather_mbps_8r", "MB/s", "higher"),
    // bpio
    ("bpio.write_mbps", "MB/s", "higher"),
    ("bpio.write_small_us", "us", "lower"),
    ("bpio.open_us", "us", "lower"),
    ("bpio.read_global_mbps_merged", "MB/s", "higher"),
    ("bpio.read_box_us", "us", "lower"),
    ("bpio.pg_encode_mbps", "MB/s", "higher"),
    ("bpio.pg_decode_mbps", "MB/s", "higher"),
    // dataspaces
    ("dataspaces.session_open_us", "us", "lower"),
    ("dataspaces.get_small_us", "us", "lower"),
    ("dataspaces.get_mbps", "MB/s", "higher"),
    ("dataspaces.reduce_melems", "Melem/s", "higher"),
    ("dataspaces.put_stripe_us", "us", "lower"),
    ("dataspaces.commit_probe_us", "us", "lower"),
    ("dataspaces.service.overhead_us", "us", "lower"),
    // obs
    ("obs.span_ns", "ns", "lower"),
    ("obs.counter_add_ns", "ns", "lower"),
    ("obs.histogram_record_ns", "ns", "lower"),
    ("obs.snapshot_ms", "ms", "lower"),
    ("obs.enabled_cost_frac", "frac", "lower"),
    // input generators and the machine model (off every measured path)
    ("apps.gtc.output_pg_us", "us", "lower"),
    ("apps.pixie.output_pg_us", "us", "lower"),
    ("simhec.gtc16384_run_ms", "ms", "lower"),
    // exact operation counts per timed operation, from the harness's
    // call sites in the traced run (zero where the workload does not
    // enter the layer)
    ("transport.fabric.rdma_gets", "count/op", "lower"),
    ("transport.fabric.bytes_pulled", "B/op", "lower"),
    ("transport.fabric.requests", "count/op", "lower"),
    ("minimpi.messages", "count/op", "lower"),
    ("minimpi.bytes", "B/op", "lower"),
    ("minimpi.collective_calls", "count/op", "lower"),
    ("core.staging.rank_steps", "count/op", "lower"),
    ("core.staging.steps_degraded", "count", "lower"),
    ("bpio.files_written", "count/op", "lower"),
    ("bpio.read_ops_merged", "count", "lower"),
    ("bpio.read_ops_unmerged", "count", "lower"),
    ("dataspaces.puts", "count/op", "lower"),
    ("dataspaces.blocks_touched", "count/op", "lower"),
    ("dataspaces.service.refused", "count", "lower"),
    ("dataspaces.service.deadline_missed", "count", "lower"),
    // the harness itself
    ("bench.trace_spans", "count/op", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
    ("bench.calib_ms", "ms", "lower"),
];

/// What one run (one workload, one seed, traced or not) produced.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Reference checks made and how many mismatched.
    pub checks: u64,
    pub mismatches: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The workload's own named metrics.
    pub detail: Vec<Metric>,
    /// Provenance and free-form facts (`key`, `value`).
    pub facts: Vec<(String, String)>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.detail)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn metrics_object(metrics: &[Metric]) -> Value {
    let mut map = Map::new();
    for m in metrics {
        map.insert(
            m.name.clone(),
            json!({"value": m.value, "unit": m.unit.as_str()}),
        );
    }
    Value::Object(map)
}

/// The one-line result the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. Reference-check mismatches count
/// as failed operations (and as attempted ones, so the share stays a
/// share).
pub fn contract_line(out: &RunOutput) -> Value {
    json!({
        "correct": out.correct(),
        "attempted": (out.attempted + out.checks).max(1),
        "failed": out.failed + out.mismatches,
        "metrics": metrics_object(&out.metrics)
    })
}

/// The full record written to `benchmark/out/`.
pub fn full_record(workload: &str, traced: bool, out: &RunOutput) -> Value {
    let mut facts = Map::new();
    for (k, v) in &out.facts {
        facts.insert(k.clone(), json!(v.as_str()));
    }
    json!({
        "schema": "predata-benchmark/v1",
        "workload": workload,
        "traced": traced,
        "correct": out.correct(),
        "attempted": out.attempted,
        "failed": out.failed,
        "checks": out.checks,
        "mismatches": out.mismatches,
        "fail_frac": (out.failed + out.mismatches) as f64
            / (out.attempted + out.checks).max(1) as f64,
        "metrics": metrics_object(&out.metrics),
        "detail": metrics_object(&out.detail),
        "provenance": Value::Object(facts)
    })
}

/// Parse a [`full_record`] back (the parent reads the child's record).
pub fn parse_record(v: &Value) -> Option<RunOutput> {
    fn metrics(v: Option<&Value>) -> Option<Vec<Metric>> {
        let mut out = Vec::new();
        for (name, m) in v?.as_object()?.iter() {
            out.push(Metric::new(
                name.as_str(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?,
            ));
        }
        Some(out)
    }
    let facts = v
        .get("provenance")?
        .as_object()?
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
        .collect();
    Some(RunOutput {
        attempted: v.get("attempted")?.as_u64()?,
        failed: v.get("failed")?.as_u64()?,
        checks: v.get("checks")?.as_u64()?,
        mismatches: v.get("mismatches")?.as_u64()?,
        metrics: metrics(v.get("metrics"))?,
        detail: metrics(v.get("detail"))?,
        facts,
    })
}

/// Human-readable listing: every metric by name with its unit.
pub fn print_table(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("  {title}");
    for m in metrics {
        println!("    {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The content of `BENCHMARK.json`, from the registries above (a unit
/// test holds the checked-in file to it).
pub fn manifest() -> Value {
    let workloads: Vec<Value> = crate::workloads::WORKLOADS
        .iter()
        .map(|&(name, why)| json!({"name": name, "why": why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            json!({"name": name, "unit": unit, "better": better, "bound": bound})
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| json!({"name": name, "unit": unit, "better": better}))
        .collect();
    json!({
        "command": Value::Array(vec![json!("bash"), json!("benchmark/run.sh")]),
        "paths": Value::Array(vec![json!("benchmark")]),
        "run_seconds": RUN_SECONDS,
        "workloads": Value::Array(workloads),
        "end_to_end": Value::Array(end_to_end),
        "per_layer": Value::Array(per_layer)
    })
}

/// Whether `s` is a legal metric or workload name under the benchmark
/// contract: starts with a letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn legal_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `s` is a legal unit: at most 16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn legal_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        let e2e = END_TO_END.iter().map(|&(n, u, b, _)| (n, u, b));
        for (name, unit, better) in e2e.chain(PER_LAYER.iter().copied()) {
            assert!(legal_name(name), "name {name}");
            assert!(legal_unit(unit), "unit {unit} of {name}");
            assert!(matches!(better, "lower" | "higher"));
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        // No bound above the contract's cap; set-up has the largest.
        let setup_bound = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap().3;
        assert!(END_TO_END
            .iter()
            .all(|m| m.3 > 0.0 && m.3 <= 0.25 && m.3 <= setup_bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(!legal_name(".x") && !legal_name("a b") && !legal_name(&"x".repeat(65)));
        assert!(!legal_unit("q per s") && legal_unit("count/op"));
    }

    #[test]
    fn checked_in_manifest_matches_the_registries() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let file = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(file, manifest(), "regenerate with `run.sh --manifest`");
        let keys: Vec<&str> = file
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let out = RunOutput {
            attempted: 10,
            failed: 0,
            checks: 3,
            mismatches: 0,
            metrics: vec![Metric::new("op_p25_ms", 1.2034, "ms")],
            ..Default::default()
        };
        let line = contract_line(&out);
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("attempted").unwrap().as_u64(), Some(13));
        let m = line.get("metrics").unwrap().get("op_p25_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.2034));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        // One line, parseable.
        let s = line.to_string();
        assert!(!s.contains('\n'));
        serde_json::from_str(&s).unwrap();
    }

    #[test]
    fn a_mismatch_makes_the_run_incorrect_and_failed() {
        let out = RunOutput {
            attempted: 10,
            checks: 2,
            mismatches: 1,
            ..Default::default()
        };
        let line = contract_line(&out);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(line.get("failed").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn full_record_round_trips() {
        let out = RunOutput {
            attempted: 5,
            failed: 1,
            checks: 2,
            mismatches: 0,
            metrics: vec![Metric::new("ops_per_s", 41.5, "1/s")],
            detail: vec![Metric::new("write_block_ms", 0.8, "ms")],
            facts: vec![("seed".into(), "7".into())],
        };
        let rec = full_record("gtc_staged", false, &out);
        let back = parse_record(&serde_json::from_str(&rec.to_string()).unwrap()).unwrap();
        assert_eq!(back.metrics, out.metrics);
        assert_eq!(back.detail, out.detail);
        assert_eq!(back.facts, out.facts);
        assert_eq!((back.attempted, back.failed), (5, 1));
    }
}
