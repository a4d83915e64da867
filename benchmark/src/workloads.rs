//! The five workloads: what each runs, and how a run becomes metrics.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::common::{calibrate_ms, cpu_seconds, peak_rss_mb};
use crate::incompute::{summarize_phase, InCompute, Phase};
use crate::probes;
use crate::query::{
    open_input_checksum, run_open, run_scan, scan_input_checksum, summarize_open, summarize_scan,
    QuerySpace,
};
use crate::report::{Metric, RunOutput, Summary, PER_LAYER};
use crate::staged::{summarize_section, Kind, Staged};
use crate::stats::median;
use crate::trace::Tracer;

/// `(name, why)` of every workload, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "gtc_staged",
        "8 ranks x 1 MiB particle chunks to 2 staging ranks (sort, 2 histograms, bitmap index): decode+map, the sort shuffle and full-size BP writes do the work; per-chunk fixed costs are under 1%",
    ),
    (
        "gtc_incompute",
        "the same dump and operators run on the 8 compute ranks themselves (collective dump write + in-place pipeline): the paper's baseline, using ops/minimpi/bpio serially and with 8-rank collectives",
    ),
    (
        "pixie_reorg",
        "128 ranks x 32 KiB chunks to 2 staging ranks merging 8 global arrays, then a read-back: per-chunk and per-file fixed costs (request, pull, hand-off, header decode, create/finish) dominate",
    ),
    (
        "query_open",
        "open loop at 200/400/800 q/s of small range and sum queries on a 1024x512 space, stripe puts beside them: bound by per-query overhead (admission, wake-up, session bind, band merge), not bytes",
    ),
    (
        "query_scan",
        "closed loop, 2 clients cycling whole-domain and part-domain range and reduce queries (up to 4 MiB answers): bound by per-byte and per-element cost (band-merge copies, element-wise reduction)",
    ),
];

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A directory of this run's own; removed by the parent.
    pub scratch: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// Set up repeatedly — at least five times and for at least half a
/// second — and return the median set-up time with the last instance.
fn timed_setup<T>(mut setup: impl FnMut(usize) -> Result<T, String>) -> Result<(f64, T), String> {
    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        let built = setup(walls.len())?;
        walls.push(t.elapsed().as_secs_f64());
        if walls.len() >= 5 && (started.elapsed().as_secs_f64() >= 0.5 || walls.len() >= 25) {
            return Ok((median(&walls), built));
        }
        drop(built);
    }
}

pub fn run(ctx: &Ctx) -> Result<RunOutput, String> {
    let calib_before = calibrate_ms();
    let started = Instant::now();
    let tracer = ctx.trace.then(|| Arc::new(Tracer::default()));
    // In a traced run the first half of the seconds is measured with
    // tracing off and the second half with it on; their difference is
    // the tracing overhead.
    let (plain_s, traced_s) = if ctx.trace {
        (ctx.seconds / 2.0, ctx.seconds / 2.0)
    } else {
        (ctx.seconds, 0.0)
    };
    let mut facts: Vec<(String, String)> = Vec::new();
    let (setup_s, plain, traced) = match ctx.workload.as_str() {
        "gtc_staged" | "pixie_reorg" => {
            let kind = if ctx.workload == "gtc_staged" {
                Kind::Gtc
            } else {
                Kind::Pixie
            };
            run_staged(ctx, kind, plain_s, traced_s, tracer.as_ref(), &mut facts)?
        }
        "gtc_incompute" => run_incompute(ctx, plain_s, traced_s, tracer.as_ref(), &mut facts)?,
        "query_open" | "query_scan" => {
            run_query(ctx, plain_s, traced_s, tracer.as_deref(), &mut facts)?
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    let workload_wall = started.elapsed().as_secs_f64();
    let mut out = match (&tracer, &traced) {
        (Some(tracer), Some(traced)) => traced_output(ctx, tracer, &plain, traced, &mut facts)?,
        _ => plain_output(&plain, setup_s),
    };
    let calib_after = calibrate_ms();
    let calib = Metric::new("bench.calib_ms", (calib_before + calib_after) / 2.0, "ms");
    // A per-layer metric of the traced run; detail of the untraced one.
    match out.metrics.iter_mut().find(|m| m.name == calib.name) {
        Some(slot) => *slot = calib,
        None => out.detail.push(calib),
    }
    facts.push(("calib_ms_before".into(), format!("{calib_before:.3}")));
    facts.push(("calib_ms_after".into(), format!("{calib_after:.3}")));
    facts.push(("workload_wall_s".into(), format!("{workload_wall:.3}")));
    out.facts = facts;
    Ok(out)
}

/// The untraced run's record: the gated end-to-end metrics, and the
/// workload's own detail.
fn plain_output(plain: &Summary, setup_s: f64) -> RunOutput {
    let mut detail = vec![
        Metric::new("op_p50_ms", plain.op_ms.p50, "ms"),
        Metric::new("op_p95_ms", plain.op_ms.p95, "ms"),
        Metric::new(
            "cpu_ms_per_op",
            plain.cpu_s * 1e3 / plain.ops.max(1) as f64,
            "ms",
        ),
    ];
    detail.extend(plain.detail.iter().cloned());
    detail.extend(plain.counts.iter().cloned());
    RunOutput {
        attempted: plain.attempted,
        failed: plain.failed,
        checks: plain.checks,
        mismatches: plain.mismatches,
        metrics: vec![
            Metric::new("op_p25_ms", plain.op_ms.p25, "ms"),
            Metric::new("ops_per_s", plain.ops_per_s, "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
            Metric::new("setup_s", setup_s, "s"),
        ],
        detail,
        facts: Vec::new(),
    }
}

/// The traced run's record: write the trace, run the probes, and report
/// every registered per-layer metric.
fn traced_output(
    ctx: &Ctx,
    tracer: &Tracer,
    plain: &Summary,
    traced: &Summary,
    facts: &mut Vec<(String, String)>,
) -> Result<RunOutput, String> {
    let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
    std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|_| std::fs::write(&path, tracer.to_json(&ctx.workload).to_string()))
        .map_err(|e| format!("write {path:?}: {e}"))?;
    facts.push(("trace_file".into(), path.display().to_string()));
    let probe_started = Instant::now();
    let probes = probes::run_all(ctx.seed, &ctx.scratch.join("probes"))?;
    let mut layer: Vec<Metric> = probes.out.clone();
    layer.extend(traced.counts.iter().cloned());
    layer.extend([
        Metric::new("op_p50_ms", traced.op_ms.p50, "ms"),
        Metric::new("op_p95_ms", traced.op_ms.p95, "ms"),
        Metric::new(
            "bench.trace_spans",
            tracer.len() as f64 / traced.attempted.max(1) as f64,
            "count/op",
        ),
        Metric::new(
            "bench.trace_overhead_frac",
            traced.op_time_ms / plain.op_time_ms - 1.0,
            "frac",
        ),
    ]);
    let mut detail = vec![
        Metric::new("op_p25_ms", traced.op_ms.p25, "ms"),
        Metric::new("ops_per_s", traced.ops_per_s, "1/s"),
        Metric::new(
            "cpu_ms_per_op",
            traced.cpu_s * 1e3 / traced.ops.max(1) as f64,
            "ms",
        ),
        Metric::new("untraced.op_p50_ms", plain.op_ms.p50, "ms"),
        Metric::new("untraced.ops_per_s", plain.ops_per_s, "1/s"),
    ];
    detail.extend(traced.detail.iter().cloned());
    detail.extend(unattributed_frac(&ctx.workload, &probes, &traced.detail));
    for (name, calls, total_ns, self_ns) in tracer.self_times() {
        detail.extend([
            Metric::new(format!("trace.{name}.self_ms"), self_ns as f64 / 1e6, "ms"),
            Metric::new(
                format!("trace.{name}.total_ms"),
                total_ns as f64 / 1e6,
                "ms",
            ),
            Metric::new(format!("trace.{name}.calls"), calls as f64, "count"),
        ]);
    }
    detail.push(Metric::new(
        "bench.probe_wall_s",
        probe_started.elapsed().as_secs_f64(),
        "s",
    ));
    Ok(RunOutput {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        checks: plain.checks + traced.checks,
        mismatches: plain.mismatches + traced.mismatches,
        // Every registered per-layer metric, in registry order; a count
        // the workload's call sites never produced is zero.
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = layer.iter().find(|m| m.name == name).map(|m| m.value);
                Metric::new(name, value.unwrap_or(0.0), unit)
            })
            .collect(),
        detail,
        facts: Vec::new(),
    })
}

/// `(setup_s, untraced stretch, traced stretch)`.
type Sections = (f64, Summary, Option<Summary>);

fn run_staged(
    ctx: &Ctx,
    kind: Kind,
    plain_s: f64,
    traced_s: f64,
    tracer: Option<&Arc<Tracer>>,
    facts: &mut Vec<(String, String)>,
) -> Result<Sections, String> {
    let (setup_s, mut st) =
        timed_setup(|i| Staged::setup(kind, ctx.seed, &ctx.scratch.join(format!("run{i}"))))?;
    facts.push((
        "input_checksum".into(),
        format!("{:016x}", st.input_checksum),
    ));
    st.warmup();
    let cpu0 = cpu_seconds();
    let plain = st.timed(plain_s, None);
    let cpu1 = cpu_seconds();
    let traced = tracer.map(|t| st.timed(traced_s, Some(t)));
    let cpu2 = cpu_seconds();
    st.shutdown();
    let verified = match kind {
        Kind::Gtc => st.verify_gtc(),
        Kind::Pixie => st.readback_pixie(tracer.map(|t| t.as_ref())),
    };
    let mut plain = summarize_section(&st, &plain);
    plain.cpu_s = cpu1 - cpu0;
    let mut traced = traced.map(|sec| summarize_section(&st, &sec));
    if let Some(t) = &mut traced {
        t.cpu_s = cpu2 - cpu1;
    }
    // The reference checks and the read-back belong to the run as a
    // whole; they are booked on its last section.
    verified.book_on(traced.as_mut().unwrap_or(&mut plain));
    Ok((setup_s, plain, traced))
}

fn run_incompute(
    ctx: &Ctx,
    plain_s: f64,
    traced_s: f64,
    tracer: Option<&Arc<Tracer>>,
    facts: &mut Vec<(String, String)>,
) -> Result<Sections, String> {
    let (setup_s, ic) =
        timed_setup(|i| InCompute::setup(ctx.seed, &ctx.scratch.join(format!("run{i}"))))?;
    facts.push((
        "input_checksum".into(),
        format!("{:016x}", ic.input_checksum),
    ));
    let mut phases = vec![Phase::warmup(), Phase::timed(plain_s, None)];
    if let Some(t) = tracer {
        phases.push(Phase::timed(traced_s, Some(Arc::clone(t))));
    }
    let results = ic.run(phases);
    let verified = ic.verify();
    let mut plain = summarize_phase(&ic, &results[1]);
    let mut traced = results.get(2).map(|ph| summarize_phase(&ic, ph));
    verified.book_on(traced.as_mut().unwrap_or(&mut plain));
    Ok((setup_s, plain, traced))
}

fn run_query(
    ctx: &Ctx,
    plain_s: f64,
    traced_s: f64,
    tracer: Option<&Tracer>,
    facts: &mut Vec<(String, String)>,
) -> Result<Sections, String> {
    let open = ctx.workload == "query_open";
    let (setup_s, qs) = timed_setup(|_| QuerySpace::setup())?;
    let checksum = if open {
        open_input_checksum(ctx.seed)
    } else {
        scan_input_checksum(ctx.seed)
    };
    facts.push(("input_checksum".into(), format!("{checksum:016x}")));
    let section = |seconds: f64, seed: u64, tracer: Option<&Tracer>| -> Summary {
        let cpu0 = cpu_seconds();
        let mut s = if open {
            summarize_open(&qs, &run_open(&qs, seed, seconds, tracer))
        } else {
            summarize_scan(&qs, &run_scan(&qs, seed, seconds, tracer))
        };
        s.cpu_s = cpu_seconds() - cpu0;
        s
    };
    if !open {
        // The closed loop has no warm-up rung of its own.
        section(0.3, ctx.seed ^ 0x5eed, None);
    }
    let plain = section(plain_s, ctx.seed, None);
    let traced = tracer.map(|t| section(traced_s, ctx.seed.wrapping_add(1), Some(t)));
    Ok((setup_s, plain, traced))
}

/// `core.staging.unattributed_frac`: the share of a staging rank's step
/// that the isolated stage probes do not explain — one minus (per-chunk
/// pull + unpack + map of every operator, times the chunks a rank
/// serves, plus every operator's `complete_pipeline`) over the measured
/// median rank step. Orchestration, hand-offs and waiting for the other
/// rank live here; it can be negative when the worker pool overlaps
/// what the probes time serially.
fn unattributed_frac(workload: &str, p: &probes::Probes, detail: &[Metric]) -> Option<Metric> {
    let step_ms = detail
        .iter()
        .find(|m| m.name == "core.staging.rank_step_p50_ms")?
        .value;
    let get = |n: &str| p.get(n).unwrap_or(0.0);
    let map_ms = |op: &str, mb: f64| mb / get(&format!("core.ops.{op}.map_mbps")).max(1e-9) * 1e3;
    let finish = |op: &str| get(&format!("core.ops.{op}.finish_ms"));
    let explained_ms = match workload {
        "gtc_staged" => {
            let mb = (1u64 << 20) as f64 / 1e6;
            let per_chunk = get("transport.fabric.pull_us_1m") / 1e3
                + mb / get("core.chunk.unpack_mbps").max(1e-9) * 1e3
                + ["sort", "histogram", "histogram2d", "bitmap"]
                    .iter()
                    .map(|op| map_ms(op, mb))
                    .sum::<f64>();
            4.0 * per_chunk
                + ["sort", "histogram", "histogram2d", "bitmap"]
                    .iter()
                    .map(|op| finish(op))
                    .sum::<f64>()
        }
        "pixie_reorg" => {
            let mb = (32u64 << 10) as f64 / 1e6;
            let per_chunk = get("transport.fabric.pull_us_32k") / 1e3
                + get("ffs.header_decode_us") / 1e3
                + map_ms("reorg", mb);
            64.0 * per_chunk + finish("reorg")
        }
        _ => return None,
    };
    Some(Metric::new(
        "core.staging.unattributed_frac",
        1.0 - explained_ms / step_ms.max(1e-9),
        "frac",
    ))
}

/// Input checksum of a workload for a seed, without running it.
#[cfg(test)]
pub fn input_checksum(workload: &str, seed: u64) -> Option<u64> {
    Some(match workload {
        "gtc_staged" | "gtc_incompute" => {
            crate::staged::pool_checksum(&crate::staged::gtc_pool(seed))
        }
        "pixie_reorg" => crate::staged::pool_checksum(&crate::staged::pixie_pool(seed)),
        "query_open" => open_input_checksum(seed),
        "query_scan" => scan_input_checksum(seed),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for (w, _) in WORKLOADS {
            let a = input_checksum(w, 20100419).unwrap();
            assert_eq!(a, input_checksum(w, 20100419).unwrap(), "{w} repeats");
            assert_ne!(a, input_checksum(w, 20100420).unwrap(), "{w} varies");
        }
    }

    #[test]
    fn workload_names_and_reasons_fit_the_contract() {
        for (name, why) in WORKLOADS {
            assert!(crate::report::legal_name(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
    }
}
