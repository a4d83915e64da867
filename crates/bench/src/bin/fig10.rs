//! Figure 10 (a, b): Pixie3D simulation performance (XT4 partition).
//!
//! Paper shape targets: the Staging configuration *slows* Pixie3D by
//! 0.01–0.7 % — it lacks the compute intensity to hide asynchronous
//! movement behind (0.7 s bursts between heavy collectives) — while the
//! I/O blocking saved is tiny. The CPU-cost gap narrows as scale grows
//! (I/O weighs more), trending toward a crossover.

use predata_bench::{maybe_json, pixie_config, print_table, PIXIE_SCALES};
use simhec::{Placement, StagedRun};

fn main() {
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    let mut series = Vec::new();
    let mut gaps = Vec::new();
    for &cores in &PIXIE_SCALES {
        let i = StagedRun::best_of(&pixie_config(cores, Placement::InComputeNode), 5);
        let s = StagedRun::best_of(&pixie_config(cores, Placement::Staging), 5);
        let steps = 3.0;
        let slowdown = (s.total_time - i.total_time) / i.total_time * 100.0;
        let cpu_gap = (s.cpu_core_seconds - i.cpu_core_seconds) / i.cpu_core_seconds * 100.0;
        gaps.push(cpu_gap);
        rows_a.push(format!(
            "{cores:>6} | {:>12.0} {:>12.0} | {:>9.2}%",
            i.cpu_core_seconds, s.cpu_core_seconds, cpu_gap
        ));
        rows_b.push(format!(
            "{cores:>6} | {:>9.2} {:>8.3} {:>7.3} | {:>9.2} {:>8.3} {:>8.2}%",
            i.main_loop_time / steps,
            i.io_blocking_time / steps,
            i.op_visible_time / steps,
            s.main_loop_time / steps,
            s.io_blocking_time / steps,
            slowdown
        ));
        series.push(serde_json::json!({
            "cores": cores,
            "in_compute_total_s": i.total_time,
            "staging_total_s": s.total_time,
            "staging_slowdown_pct": slowdown,
            "cpu_cost_gap_pct": cpu_gap,
        }));
    }
    print_table(
        "Fig. 10(a): Pixie3D total CPU cost (core-seconds)",
        " cores |   IC core-s    ST core-s |   ST extra",
        &rows_a,
    );
    print_table(
        "Fig. 10(b): per-dump breakdown and staging slowdown",
        " cores |   IC main    IC io  IC ops |   ST main    ST io  slowdown",
        &rows_b,
    );
    let first = gaps.first().copied().unwrap_or(0.0);
    let last = gaps.last().copied().unwrap_or(0.0);
    println!(
        "\nCPU-cost gap shrinks with scale ({first:.2}% -> {last:.2}%): the staging\n\
         approach 'catches up' as I/O weighs more — the paper's tipping-point trend.\n\
         The read-side payoff of this small cost is Fig. 11 (run `fig11`)."
    );
    maybe_json("fig10", &serde_json::Value::Array(series));
}
