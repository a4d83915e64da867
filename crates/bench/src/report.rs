//! Rendering of `obs` JSON snapshots into paper-style timing tables.
//!
//! The input is the one schema [`obs::Snapshot::to_json`] writes
//! ([`obs::SNAPSHOT_VERSION`]; any other version is refused): counters,
//! gauges, log₂ histograms, the per-step, per-rank stage rows of the
//! fold, and the views over it — per-chunk lineage (when the run logged
//! events) and per-step perturbation. The output mirrors the
//! stage-breakdown tables of the paper's Fig. 7–9 — with one column per
//! staging rank, so "where did step N's time go, on which rank" is one
//! table — plus a per-chunk critical-path view, a straggler table and
//! the paper §5-style perturbation summary. What `obs` derives (a
//! chunk's total and dominant gap, a step's blocked fraction) is asked
//! of `obs`'s own view types, not re-derived.
//!
//! Used by the `predata-report` binary and by the schema-drift smoke
//! test, so any change to the exporter's JSON shape fails the build
//! here before it reaches a user.

use obs::lineage::{ChunkLineage, Stage, StageMark};
use obs::perturb::PerturbStat;
use serde_json::Value;

/// Stages in canonical pipeline order (the order work flows through a
/// staging rank); stages not listed here render after these,
/// alphabetically.
const STAGE_ORDER: [&str; 12] = [
    "gather",
    "aggregate",
    "pull_map",
    "pull_wait",
    "pull",
    "decode",
    "map",
    "combine",
    "shuffle",
    "reduce",
    "finalize",
    "write",
];

/// Format a nanosecond quantity with a human-scale unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn label_suffix(metric: &Value) -> String {
    let Some(labels) = metric.get("labels").and_then(Value::as_object) else {
        return String::new();
    };
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
        .collect();
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn require<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v Value, String> {
    v.get(key)
        .ok_or_else(|| format!("snapshot {ctx}: missing key `{key}`"))
}

fn require_u64(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    require(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("snapshot {ctx}: `{key}` is not a u64"))
}

fn require_str<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v str, String> {
    require(v, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("snapshot {ctx}: `{key}` is not a string"))
}

fn require_array<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v [Value], String> {
    require(v, key, ctx)?
        .as_array()
        .ok_or_else(|| format!("snapshot {ctx}: `{key}` is not an array"))
}

/// One `(stage, step, rank)` row of the fold, from the `steps` section.
struct StageCell {
    step: u64,
    stage: String,
    /// `None`: a compute-side or rank-less event.
    rank: Option<u64>,
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

fn parse_steps(root: &Value) -> Result<Vec<StageCell>, String> {
    let mut cells = Vec::new();
    for step_obj in require_array(root, "steps", "root")? {
        let step = require_u64(step_obj, "step", "steps[]")?;
        for stage_obj in require_array(step_obj, "stages", "steps[]")? {
            cells.push(StageCell {
                step,
                stage: require_str(stage_obj, "stage", "stages[]")?.to_string(),
                rank: stage_obj.get("rank").and_then(Value::as_u64),
                count: require_u64(stage_obj, "count", "stages[]")?,
                total_ns: require_u64(stage_obj, "total_ns", "stages[]")?,
                max_ns: require_u64(stage_obj, "max_ns", "stages[]")?,
            });
        }
    }
    Ok(cells)
}

/// Order stage names canonically: pipeline order first, the rest
/// alphabetically after.
fn stage_sort_key(stage: &str) -> (usize, String) {
    match STAGE_ORDER.iter().position(|s| *s == stage) {
        Some(i) => (i, String::new()),
        None => (STAGE_ORDER.len(), stage.to_string()),
    }
}

/// The per-step stage table: one row per `(step, stage)`, the stage's
/// total over every rank and rank-less event under `all`, then one
/// column per staging rank.
fn render_step_table(cells: &[StageCell], out: &mut String) {
    out.push_str("=== per-step stage timing (total span time, per staging rank) ===\n");
    if cells.is_empty() {
        out.push_str("(no spans recorded)\n");
        return;
    }
    let mut ranks: Vec<u64> = cells.iter().filter_map(|c| c.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut rows: Vec<(u64, &str)> = cells.iter().map(|c| (c.step, c.stage.as_str())).collect();
    rows.sort_by_key(|&(step, stage)| (step, stage_sort_key(stage)));
    rows.dedup();

    let mut header = format!("{:>6}  {:<18} {:>10}", "step", "stage", "all");
    for r in &ranks {
        header.push_str(&format!(" {:>10}", format!("r{r}")));
    }
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');
    for (step, stage) in rows {
        let of_row = || cells.iter().filter(|c| c.step == step && c.stage == stage);
        let all: u64 = of_row().map(|c| c.total_ns).sum();
        if all == 0 {
            continue; // marks: counted in the summary, no time to tabulate
        }
        out.push_str(&format!("{step:>6}  {stage:<18} {:>10}", fmt_ns(all)));
        for r in &ranks {
            let cell = of_row()
                .find(|c| c.rank == Some(*r))
                .map_or("-".to_string(), |c| fmt_ns(c.total_ns));
            out.push_str(&format!(" {cell:>10}"));
        }
        out.push('\n');
    }
}

fn render_stage_summary(cells: &[StageCell], out: &mut String) {
    let mut stages: Vec<&str> = Vec::new();
    for c in cells {
        if !stages.contains(&c.stage.as_str()) {
            stages.push(&c.stage);
        }
    }
    stages.sort_by_key(|s| stage_sort_key(s));

    out.push_str("\n=== stage summary (all steps) ===\n");
    out.push_str(&format!(
        "{:<18} {:>8} {:>12} {:>12} {:>12}\n",
        "stage", "calls", "total", "mean", "max"
    ));
    for stage in stages {
        let (mut calls, mut total, mut max) = (0u64, 0u64, 0u64);
        for c in cells.iter().filter(|c| c.stage == stage) {
            calls += c.count;
            total += c.total_ns;
            max = max.max(c.max_ns);
        }
        let mean = total.checked_div(calls).unwrap_or(0);
        out.push_str(&format!(
            "{:<18} {:>8} {:>12} {:>12} {:>12}\n",
            stage,
            calls,
            fmt_ns(total),
            fmt_ns(mean),
            fmt_ns(max)
        ));
    }
}

/// The degradation-ladder counters (DESIGN.md §3.3) pulled out of the
/// flat counter list into their own view, so an operator reads the
/// run's resilience story — faults seen, retries paid, chunks lost,
/// outputs not written — at a glance. Omitted entirely for a run that
/// climbed no rungs.
fn render_resilience(root: &Value, out: &mut String) -> Result<(), String> {
    const LADDER: [(&str, &str); 5] = [
        ("transport.faults_injected", "faults injected"),
        ("transport.retries", "retries absorbed"),
        ("transport.retry_exhausted", "retries exhausted"),
        ("staging.truncated_chunks", "chunks truncated"),
        ("staging.output_errors", "operator outputs not written"),
    ];
    let counters = require_array(root, "counters", "root")?;
    let mut lines = Vec::new();
    for c in counters {
        let name = require_str(c, "name", "counters[]")?;
        let Some((_, what)) = LADDER.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let value = require_u64(c, "value", "counters[]")?;
        if value > 0 {
            lines.push(format!("{what:<28} {name}{} = {value}\n", label_suffix(c)));
        }
    }
    if !lines.is_empty() {
        out.push_str("\n=== resilience (degradation ladder) ===\n");
        for line in lines {
            out.push_str(&line);
        }
    }
    Ok(())
}

fn render_counters(root: &Value, out: &mut String) -> Result<(), String> {
    let counters = require_array(root, "counters", "root")?;
    out.push_str("\n=== counters ===\n");
    if counters.is_empty() {
        out.push_str("(none)\n");
    }
    for c in counters {
        let name = require_str(c, "name", "counters[]")?;
        let value = require_u64(c, "value", "counters[]")?;
        out.push_str(&format!("{name}{} = {value}\n", label_suffix(c)));
    }
    Ok(())
}

fn render_gauges(root: &Value, out: &mut String) -> Result<(), String> {
    let gauges = require_array(root, "gauges", "root")?;
    out.push_str("\n=== gauges ===\n");
    if gauges.is_empty() {
        out.push_str("(none)\n");
    }
    for g in gauges {
        let name = require_str(g, "name", "gauges[]")?;
        let value = require(g, "value", "gauges[]")?
            .as_i64()
            .ok_or("snapshot gauges[]: `value` is not an i64")?;
        let max = require(g, "max", "gauges[]")?
            .as_i64()
            .ok_or("snapshot gauges[]: `max` is not an i64")?;
        out.push_str(&format!(
            "{name}{} = {value} (high-water {max})\n",
            label_suffix(g)
        ));
    }
    Ok(())
}

fn render_histograms(root: &Value, out: &mut String) -> Result<(), String> {
    let hists = require_array(root, "histograms", "root")?;
    out.push_str("\n=== histograms ===\n");
    if hists.is_empty() {
        out.push_str("(none)\n");
    }
    for h in hists {
        let name = require_str(h, "name", "histograms[]")?;
        let count = require_u64(h, "count", "histograms[]")?;
        let sum = require_u64(h, "sum", "histograms[]")?;
        let buckets = require_array(h, "buckets", "histograms[]")?;
        let mean = sum.checked_div(count).unwrap_or(0);
        out.push_str(&format!(
            "{name}{}  count={count} sum={sum} mean={mean}\n",
            label_suffix(h)
        ));
        for b in buckets {
            let b = b
                .as_array()
                .ok_or("snapshot histograms[]: bucket is not a [lo,hi,count] array")?;
            if b.len() != 3 {
                return Err("snapshot histograms[]: bucket is not a [lo,hi,count] triple".into());
            }
            let (lo, hi, n) = (
                b[0].as_u64().ok_or("bucket lo is not u64")?,
                b[1].as_u64().ok_or("bucket hi is not u64")?,
                b[2].as_u64().ok_or("bucket count is not u64")?,
            );
            out.push_str(&format!("    [{lo:>12}, {hi:>12})  {n}\n"));
        }
    }
    Ok(())
}

/// Parse the `lineage` section into `obs`'s own view type.
fn parse_lineage(root: &Value) -> Result<Vec<ChunkLineage>, String> {
    let mut chunks = Vec::new();
    for c in require_array(root, "lineage", "root")? {
        let mut marks = Vec::new();
        for e in require_array(c, "events", "lineage[]")? {
            let ctx = "lineage[].events[]";
            let name = require_str(e, "stage", ctx)?;
            let stage = Stage::from_name(name)
                .ok_or_else(|| format!("snapshot {ctx}: unknown stage `{name}`"))?;
            marks.push((
                stage,
                StageMark {
                    at_ns: require_u64(e, "at_ns", ctx)?,
                    bytes: e.get("bytes").and_then(Value::as_u64),
                    wait_ns: e.get("wait_ns").and_then(Value::as_u64),
                    tid: 0,
                },
            ));
        }
        chunks.push(ChunkLineage::new(
            require_u64(c, "src", "lineage[]")?,
            require_u64(c, "step", "lineage[]")?,
            marks,
        ));
    }
    Ok(chunks)
}

/// One chunk as a table row: end-to-end latency and the transition
/// that dominated it.
fn chunk_row(c: &ChunkLineage, out: &mut String) {
    let dom = match c.dominant_gap() {
        Some((from, to, ns)) => format!("{} -> {} ({})", from.name(), to.name(), fmt_ns(ns)),
        None => "-".to_string(),
    };
    let marker = if c.is_truncated() { " [truncated]" } else { "" };
    out.push_str(&format!(
        "{:>6} {:>6} {:>12}  {dom}{marker}\n",
        c.step,
        c.src_rank,
        fmt_ns(c.total_ns().unwrap_or(0)),
    ));
}

/// Per-chunk critical path: end-to-end latency and dominant transition
/// per chunk, plus the full timeline of the slowest chunk.
fn render_critical_path(chunks: &[ChunkLineage], out: &mut String) {
    out.push_str("\n=== per-chunk critical path ===\n");
    if chunks.is_empty() {
        out.push_str("(no lineage records — run with PREDATA_LINEAGE=1)\n");
        return;
    }
    out.push_str(&format!(
        "{:>6} {:>6} {:>12}  {}\n",
        "step", "src", "total", "dominant transition"
    ));
    for c in chunks {
        chunk_row(c, out);
    }
    if let Some(slowest) = chunks.iter().max_by_key(|c| c.total_ns()) {
        out.push_str(&format!(
            "\nslowest chunk (src {}, step {}) timeline:\n",
            slowest.src_rank, slowest.step
        ));
        let events = slowest.events();
        let t0 = events.first().map_or(0, |(_, m)| m.at_ns);
        for (stage, mark) in events {
            let took = mark
                .wait_ns
                .map(|w| format!("  (took {})", fmt_ns(w)))
                .unwrap_or_default();
            out.push_str(&format!(
                "  +{:>10}  {}{took}\n",
                fmt_ns(mark.at_ns.saturating_sub(t0)),
                stage.name()
            ));
        }
    }
}

/// Straggler table: the slowest `k` chunks of every step and the stage
/// transition that dominated each.
fn render_stragglers(chunks: &[ChunkLineage], k: usize, out: &mut String) {
    out.push_str(&format!(
        "\n=== stragglers (slowest {k} chunks per step) ===\n"
    ));
    if chunks.is_empty() {
        out.push_str("(no lineage records — run with PREDATA_LINEAGE=1)\n");
        return;
    }
    out.push_str(&format!(
        "{:>6} {:>6} {:>12}  {}\n",
        "step", "src", "total", "dominating stage"
    ));
    // `chunks` arrive sorted by step.
    for of_step in chunks.chunk_by(|a, b| a.step == b.step) {
        let mut of_step: Vec<&ChunkLineage> = of_step.iter().collect();
        of_step.sort_by_key(|c| std::cmp::Reverse(c.total_ns()));
        for c in of_step.into_iter().take(k) {
            chunk_row(c, out);
        }
    }
}

/// Per-step perturbation summary (the paper's §5 In-Compute-Node vs
/// staged comparison): simulation compute time, blocked-in-output time,
/// and the transport activity concurrent with each step.
fn render_perturb(root: &Value, out: &mut String) -> Result<(), String> {
    out.push_str("\n=== per-step perturbation ===\n");
    let rows = require_array(root, "perturb", "root")?;
    if rows.is_empty() {
        out.push_str("(no perturbation records — no compute, blocked or pull spans)\n");
        return Ok(());
    }
    out.push_str(&format!(
        "{:>6} {:>12} {:>12} {:>9} {:>14} {:>7}\n",
        "step", "compute", "blocked", "blocked%", "pulled bytes", "pulls"
    ));
    for r in rows {
        let step = require_u64(r, "step", "perturb[]")?;
        let stat = PerturbStat {
            compute_ns: require_u64(r, "compute_ns", "perturb[]")?,
            blocked_ns: require_u64(r, "blocked_ns", "perturb[]")?,
            pull_bytes: require_u64(r, "pull_bytes", "perturb[]")?,
            pulls: require_u64(r, "pulls", "perturb[]")?,
        };
        let pct = stat
            .blocked_fraction()
            .map_or("-".to_string(), |f| format!("{:.2}%", f * 100.0));
        out.push_str(&format!(
            "{:>6} {:>12} {:>12} {:>9} {:>14} {:>7}\n",
            step,
            fmt_ns(stat.compute_ns),
            fmt_ns(stat.blocked_ns),
            pct,
            stat.pull_bytes,
            stat.pulls
        ));
    }
    Ok(())
}

/// Render a full snapshot (already parsed) into the report text.
///
/// Fails with a descriptive message on any schema mismatch — the
/// `predata-report` smoke test in CI runs this against a checked-in
/// sample so exporter drift is caught at build time.
pub fn render_snapshot(root: &Value) -> Result<String, String> {
    let version = require_u64(root, "version", "root")?;
    if version != obs::SNAPSHOT_VERSION {
        return Err(format!(
            "unsupported snapshot version {version} (this reader takes {})",
            obs::SNAPSHOT_VERSION
        ));
    }
    let cells = parse_steps(root)?;
    let lineage = parse_lineage(root)?;
    let mut out = String::new();
    render_step_table(&cells, &mut out);
    render_stage_summary(&cells, &mut out);
    render_critical_path(&lineage, &mut out);
    render_stragglers(&lineage, 3, &mut out);
    render_perturb(root, &mut out)?;
    render_resilience(root, &mut out)?;
    render_counters(root, &mut out)?;
    render_gauges(root, &mut out)?;
    render_histograms(root, &mut out)?;
    Ok(out)
}

/// Parse snapshot JSON text and render it (the `predata-report` core).
pub fn render_snapshot_str(text: &str) -> Result<String, String> {
    let root = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    render_snapshot(&root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Event, Registry};

    /// The sample snapshot shipped for the CI smoke run.
    const SAMPLE: &str = include_str!("../testdata/sample_snapshot.json");

    #[test]
    fn renders_the_checked_in_sample_with_every_view() {
        let report = render_snapshot_str(SAMPLE).expect("sample snapshot must render");
        for view in [
            "per-step stage timing",
            "per-chunk critical path",
            "per-step perturbation",
            "stragglers (slowest 3 chunks per step)",
            "transport.rdma_get_bytes",
            "operator outputs not written staging.output_errors{op=sort} = 1",
        ] {
            assert!(report.contains(view), "missing `{view}`: {report}");
        }
        assert!(!report.contains("no lineage records"), "got: {report}");
    }

    /// Build a registry through the real obs API and round-trip it
    /// through to_json → parse → render, so any change to the exporter
    /// schema breaks this test immediately.
    #[test]
    fn renders_a_live_registry_snapshot_with_a_column_per_rank() {
        let reg = Registry::new();
        reg.counter("transport.rdma_get_bytes", &[]).add(4096);
        reg.gauge("transport.pinned_bytes", &[]).record_max(7);
        reg.histogram("transport.rdma_get_ns", &[]).record(1500);
        reg.record(Event::new("decode", 0).rank(0).at(0, 2_000_000));
        reg.record(Event::new("decode", 0).rank(1).at(0, 3_000_000));
        reg.record(Event::new("blocked", 0).at(0, 1_000_000));
        reg.record(Event::new("reduce", 1).rank(1).at(0, 500_000));
        let json = reg.snapshot().to_json();
        let report = render_snapshot_str(&json).expect("live snapshot must render");
        let row = |step: u64, stage: &str| {
            let want = format!("{step:>6}  {stage:<18}");
            let line = report.lines().find(|l| l.starts_with(&want));
            line.unwrap_or_else(|| panic!("no row for {stage}@{step}: {report}"))
                .split_whitespace()
                .skip(2)
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert!(
            report.contains("all         r0         r1"),
            "got: {report}"
        );
        assert_eq!(row(0, "decode"), ["5.00ms", "2.00ms", "3.00ms"]);
        assert_eq!(
            row(0, "blocked"),
            ["1.00ms", "-", "-"],
            "rank-less: all only"
        );
        assert_eq!(row(1, "reduce"), ["500.00us", "-", "500.00us"]);
        assert!(report.contains("transport.pinned_bytes"));
    }

    /// One version is written and one is read: every other is refused,
    /// and so is the current one with a section missing.
    #[test]
    fn rejects_every_other_version_and_missing_sections() {
        for version in [1, 2, 3, obs::SNAPSHOT_VERSION + 1] {
            let json = Registry::new().snapshot().to_json().replacen(
                &format!("\"version\":{}", obs::SNAPSHOT_VERSION),
                &format!("\"version\":{version}"),
                1,
            );
            let err = render_snapshot_str(&json).unwrap_err();
            assert!(err.contains("version"), "version {version}: {err}");
        }
        let bare = format!("{{\"version\":{}}}", obs::SNAPSHOT_VERSION);
        let err = render_snapshot_str(&bare).unwrap_err();
        assert!(err.contains("steps"), "got: {err}");
        let no_perturb = Registry::new()
            .snapshot()
            .to_json()
            .replace("\"perturb\":", "\"dead\":");
        let err = render_snapshot_str(&no_perturb).unwrap_err();
        assert!(err.contains("`perturb`"), "got: {err}");
    }

    #[test]
    fn renders_lineage_and_perturb_views_from_a_live_registry() {
        use obs::lineage::Stage;
        let reg = Registry::new();
        reg.set_detail(true);
        // Chunk (src 0, step 0): complete pipeline, 10 ns apart, with a
        // 70 ns wait before the pull.
        for (i, stage) in Stage::PIPELINE.into_iter().enumerate() {
            let t = 100 * i as u64;
            let t1 = t + if stage == Stage::RdmaDone { 70 } else { 0 };
            reg.record(Event::new(stage.event(), 0).chunk(0).at(t, t1).bytes(64));
        }
        // Chunk (src 1, step 0): truncated after packing.
        reg.record(Event::new("pack", 0).chunk(1).at(0, 5).bytes(64));
        reg.record(Event::new("truncated", 0).chunk(1).at(9, 9));
        reg.record(Event::new("compute", 0).at(0, 300));
        reg.record(Event::new("blocked", 0).at(300, 400));
        let json = reg.snapshot().to_json();
        let report = render_snapshot_str(&json).expect("snapshot must render");
        assert!(report.contains("per-chunk critical path"), "got: {report}");
        assert!(
            report.contains("pull_scheduled -> rdma_done (170ns)"),
            "dominant gap comes from obs: {report}"
        );
        assert!(report.contains("rdma_done  (took 70ns)"), "got: {report}");
        assert!(report.contains("stragglers"), "got: {report}");
        assert!(report.contains("[truncated]"), "got: {report}");
        assert!(report.contains("25.00%"), "blocked 100 of 400: {report}");
        assert!(
            report.contains("            64       1"),
            "pull row: {report}"
        );
    }

    #[test]
    fn resilience_section_appears_only_when_the_ladder_was_climbed() {
        let reg = Registry::new();
        reg.counter("staging.chunks", &[]).add(8);
        let quiet = render_snapshot_str(&reg.snapshot().to_json()).unwrap();
        assert!(
            !quiet.contains("resilience"),
            "a fault-free run must not render the ladder view: {quiet}"
        );

        reg.counter("transport.retries", &[("op", "pull")]).add(3);
        reg.counter("transport.retry_exhausted", &[("op", "pull")])
            .add(1);
        reg.counter("staging.output_errors", &[("op", "sort")])
            .add(2);
        let report = render_snapshot_str(&reg.snapshot().to_json()).unwrap();
        assert!(
            report.contains("=== resilience (degradation ladder) ==="),
            "got: {report}"
        );
        assert!(
            report.contains("retries absorbed") && report.contains("{op=pull} = 3"),
            "got: {report}"
        );
        assert!(
            report.contains("operator outputs not written"),
            "got: {report}"
        );
        // Rungs that never fired stay out of the view.
        assert!(!report.contains("chunks truncated"), "got: {report}");
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_340_000), "2.34ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
