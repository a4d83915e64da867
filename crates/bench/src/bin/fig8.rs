//! Figure 8 (a, b): GTC simulation performance.
//!
//! (a) Improvement of total execution time and of total CPU usage for the
//!     Staging configuration vs In-Compute-Node, per scale.
//! (b) Breakdown of total execution time: main loop, visible I/O
//!     blocking, in-node operations.
//!
//! Paper targets: 2.7–5.1 % total-time improvement; staging blocking
//! ≈ 0.30 s vs 8.6 s sync write at 16,384 cores (99.9 % of write latency
//! hidden relative to the data actually moved); interference < 6 %;
//! ~98 CPU·hours saved at 16,384 cores over a 30-minute run.

use predata_bench::{gtc_config, maybe_json, print_table, GTC_SCALES};
use simhec::{Placement, StagedRun};

fn main() {
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    let mut series = Vec::new();
    for &cores in &GTC_SCALES {
        let i = StagedRun::best_of(&gtc_config(cores, Placement::InComputeNode), 5);
        let s = StagedRun::best_of(&gtc_config(cores, Placement::Staging), 5);
        let steps = 3.0;
        let improvement = (i.total_time - s.total_time) / i.total_time * 100.0;
        let cpu_saving = (i.cpu_core_seconds - s.cpu_core_seconds) / i.cpu_core_seconds * 100.0;
        rows_a.push(format!(
            "{cores:>7} | {:>11.1} {:>11.1} | {:>9.2}% {:>9.2}%",
            i.total_time, s.total_time, improvement, cpu_saving
        ));
        rows_b.push(format!(
            "{cores:>7} | {:>9.1} {:>8.2} {:>8.2} | {:>9.1} {:>8.2} {:>8.2} {:>7.2}%",
            i.main_loop_time / steps,
            i.io_blocking_time / steps,
            i.op_visible_time / steps,
            s.main_loop_time / steps,
            s.io_blocking_time / steps,
            0.0,
            s.interference * 100.0
        ));
        series.push(serde_json::json!({
            "cores": cores,
            "in_compute_total_s": i.total_time,
            "staging_total_s": s.total_time,
            "improvement_pct": improvement,
            "cpu_saving_pct": cpu_saving,
            "io_blocking_in_compute_s": i.io_blocking_time / steps,
            "io_blocking_staging_s": s.io_blocking_time / steps,
            "interference_pct": s.interference * 100.0,
            "drain_latency_s": s.drain_latency,
        }));
    }
    print_table(
        "Fig. 8(a): GTC total execution time and CPU usage",
        "  cores |   IC tot(s)   ST tot(s) |  time imp.  cpu saving",
        &rows_a,
    );
    print_table(
        "Fig. 8(b): per-dump breakdown (main loop / I/O blocking / in-node ops)",
        "  cores |   IC main   IC io   IC ops |   ST main   ST io   ST ops  interf",
        &rows_b,
    );

    // Headline cross-checks at 16,384 cores.
    let i = StagedRun::best_of(&gtc_config(16_384, Placement::InComputeNode), 5);
    let s = StagedRun::best_of(&gtc_config(16_384, Placement::Staging), 5);
    let hidden = (1.0 - (s.io_blocking_time / i.io_blocking_time)) * 100.0;
    // CPU-hours saved, normalized to the paper's 30-minute production run.
    let cpu_hours_saved = (i.cpu_core_seconds - s.cpu_core_seconds) / i.total_time // cores eq.
        * 1800.0
        / 3600.0;
    println!(
        "\n@16,384 cores: write blocking {:.2} s -> {:.2} s ({hidden:.1}% hidden), \
         drain latency {:.1} s, interference {:.1}%,\n \
         ~{cpu_hours_saved:.0} CPU·hours saved per 30-minute run (paper: 98).",
        i.io_blocking_time / 3.0,
        s.io_blocking_time / 3.0,
        s.drain_latency,
        s.interference * 100.0,
    );
    maybe_json("fig8", &serde_json::Value::Array(series));
}
