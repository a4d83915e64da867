//! `predata-bench` — the figure-regeneration harness.
//!
//! One binary per figure of the paper's evaluation (§V):
//!
//! | binary   | paper figure | content |
//! |----------|--------------|---------|
//! | `fig7`   | Fig. 7(a–f)  | per-operator time & latency, In-Compute-Node vs Staging, 512–16,384 cores |
//! | `fig8`   | Fig. 8(a,b)  | GTC total time, CPU savings, and per-phase breakdown |
//! | `fig9`   | Fig. 9       | DataSpaces setup / hashing / query time vs querying cores |
//! | `fig10`  | Fig. 10(a,b) | Pixie3D total cost and breakdown |
//! | `fig11`  | Fig. 11      | merged vs unmerged global-array read time |
//! | `ablation` | §V-B text  | pull-scheduling interference; combine() shuffle-volume |
//!
//! Machine-scale numbers come from the `simhec` model (the paper's
//! testbed is simulated per DESIGN.md); laptop-scale *functional* numbers
//! come from running the real middleware. Every binary prints a
//! paper-style table and, with `--json`, a machine-readable series.

#![warn(unreachable_pub)]

use simhec::scenario::{OpKind, Placement, PullPolicyKind, ScenarioConfig};
use simhec::{MachineConfig, OpCosts};

pub mod report;

/// The core counts of the paper's GTC weak-scaling sweep.
pub const GTC_SCALES: [usize; 6] = [512, 1024, 2048, 4096, 8192, 16_384];

/// The core counts of the Pixie3D sweep (XT4 partition).
pub const PIXIE_SCALES: [usize; 5] = [256, 512, 1024, 2048, 4096];

/// GTC production configuration at `cores` total compute cores
/// (1 MPI process × 8 threads per node, 132 MB/process, 120 s interval,
/// 64:1 staging ratio — paper §V-B).
pub fn gtc_config(cores: usize, placement: Placement) -> ScenarioConfig {
    assert!(cores.is_multiple_of(8));
    ScenarioConfig {
        machine: MachineConfig::xt5_like(),
        costs: OpCosts::calibrated(),
        n_compute_procs: cores / 8,
        procs_per_node: 1,
        threads_per_proc: 8,
        bytes_per_proc: 132e6,
        io_interval: 120.0,
        n_io_steps: 3,
        compute_burst: 2.0,
        collective_bytes_per_node: 32e6,
        staging_ratio: 64,
        staging_procs_per_node: 2,
        staging_threads_per_proc: 4,
        ops: vec![OpKind::Sort, OpKind::Histogram, OpKind::Histogram2D],
        placement,
        pull_policy: PullPolicyKind::PhaseAware,
        seed: 20_100_419, // IPDPS 2010 :-)
    }
}

/// Pixie3D production configuration at `cores` compute cores (1 process
/// per core, 32³ local boxes ≈ 2 MB/process, 100 s interval, 128:1 ratio,
/// communication-bound inner loop with ~0.7 s compute bursts — §V-C).
pub fn pixie_config(cores: usize, placement: Placement) -> ScenarioConfig {
    ScenarioConfig {
        machine: MachineConfig::xt4_like(),
        costs: OpCosts::calibrated(),
        n_compute_procs: cores,
        procs_per_node: 4,
        threads_per_proc: 1,
        bytes_per_proc: 2.1e6,
        io_interval: 100.0,
        n_io_steps: 3,
        compute_burst: 0.7,
        collective_bytes_per_node: 24e6,
        staging_ratio: 128,
        staging_procs_per_node: 2,
        staging_threads_per_proc: 2,
        ops: vec![OpKind::Reorg],
        placement,
        pull_policy: PullPolicyKind::PhaseAware,
        seed: 20_100_419,
    }
}

/// Render a row-per-scale table: `header` then one formatted line per row.
pub fn print_table(title: &str, header: &str, rows: &[String]) {
    println!("\n=== {title} ===");
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    for r in rows {
        println!("{r}");
    }
}

/// Emit a JSON series if `--json` was passed on the command line.
pub fn maybe_json(name: &str, value: &serde_json::Value) {
    if std::env::args().any(|a| a == "--json") {
        println!("JSON {name} {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simhec::StagedRun;

    #[test]
    fn gtc_config_matches_paper_geometry() {
        let c = gtc_config(16_384, Placement::Staging);
        assert_eq!(c.compute_nodes(), 2048);
        assert_eq!(c.staging_cores(), 256);
        // 260 GB per dump, within rounding of the paper's figure.
        assert!((c.total_bytes_per_dump() / 1e9 - 270.0).abs() < 15.0);
    }

    #[test]
    fn pixie_config_matches_paper_geometry() {
        let c = pixie_config(4096, Placement::Staging);
        assert_eq!(c.n_compute_procs, 4096);
        assert_eq!(c.staging_cores(), 32);
        // 32³ doubles ≈ 0.26 MB per field × 8 fields ≈ 2.1 MB.
        assert!((c.bytes_per_proc - 2.1e6).abs() < 0.1e6);
    }

    #[test]
    fn both_scenarios_run_at_smallest_scale() {
        let g = StagedRun::run(&gtc_config(512, Placement::Staging));
        assert!(g.total_time > 0.0);
        let p = StagedRun::run(&pixie_config(256, Placement::InComputeNode));
        assert!(p.total_time > 0.0);
    }
}
