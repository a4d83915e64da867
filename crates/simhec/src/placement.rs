//! Automated placement decisions (paper §V-B summary: "Future work is
//! needed to automate placement decisions, where automation would be
//! based on higher level inputs from application developers and users and
//! on information about current platform and file system states").
//!
//! Fig. 7's conclusion is that the right placement depends on the *goal*:
//! staging the sort optimizes simulation time, but if "the latency of
//! generating sorted data is more critical, it is preferable to place the
//! operator into compute nodes". This module encodes that decision rule:
//! run the machine model for each operator in both placements and pick
//! per the user's objective.

use crate::scenario::{OpKind, Placement, ScenarioConfig, StagedRun};

/// What the user wants to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Total simulation wall time (throughput of the science campaign).
    SimulationTime,
    /// Time from I/O trigger until the operator's results exist (online
    /// monitoring, steering).
    ResultLatency,
    /// Total core·seconds charged (machine allocation budget).
    CpuCost,
}

/// The advisor's verdict for one operator.
#[derive(Debug, Clone)]
pub struct PlacementAdvice {
    pub recommended: Placement,
    /// Objective metric in the In-Compute-Node placement.
    pub in_compute_metric: f64,
    /// Objective metric in the Staging placement.
    pub staged_metric: f64,
}

impl PlacementAdvice {
    /// Advantage factor of the recommended placement.
    pub fn advantage(&self) -> f64 {
        let (win, lose) = match self.recommended {
            Placement::InComputeNode => (self.in_compute_metric, self.staged_metric),
            Placement::Staging => (self.staged_metric, self.in_compute_metric),
        };
        if win <= 0.0 {
            f64::INFINITY
        } else {
            lose / win
        }
    }
}

fn metric(cfg: &ScenarioConfig, op: OpKind, objective: Objective) -> f64 {
    let run = StagedRun::best_of(cfg, 3);
    match objective {
        Objective::SimulationTime => run.total_time,
        Objective::CpuCost => run.cpu_core_seconds,
        Objective::ResultLatency => run
            .ops
            .iter()
            .find(|o| o.op == op)
            .map(|o| o.latency)
            .unwrap_or(f64::INFINITY),
    }
}

/// Evaluate one operator in both placements under `objective` and
/// recommend the better one. The scenario is run with *only* that
/// operator so the comparison is not confounded by the others.
pub fn advise_op(base: &ScenarioConfig, op: OpKind, objective: Objective) -> PlacementAdvice {
    let mut cfg = base.clone();
    cfg.ops = vec![op];
    cfg.placement = Placement::InComputeNode;
    let in_compute_metric = metric(&cfg, op, objective);
    cfg.placement = Placement::Staging;
    let staged_metric = metric(&cfg, op, objective);
    let recommended = if staged_metric <= in_compute_metric {
        Placement::Staging
    } else {
        Placement::InComputeNode
    };
    PlacementAdvice {
        recommended,
        in_compute_metric,
        staged_metric,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineConfig, OpCosts};
    use crate::scenario::PullPolicyKind;

    fn gtc_like(cores: usize) -> ScenarioConfig {
        ScenarioConfig {
            machine: MachineConfig::xt5_like(),
            costs: OpCosts::calibrated(),
            n_compute_procs: cores / 8,
            procs_per_node: 1,
            threads_per_proc: 8,
            bytes_per_proc: 132e6,
            io_interval: 120.0,
            n_io_steps: 2,
            compute_burst: 2.0,
            collective_bytes_per_node: 32e6,
            staging_ratio: 64,
            staging_procs_per_node: 2,
            staging_threads_per_proc: 4,
            ops: vec![OpKind::Sort, OpKind::Histogram],
            placement: Placement::Staging,
            pull_policy: PullPolicyKind::PhaseAware,
            seed: 11,
        }
    }

    /// The paper's Fig. 7 tradeoff, reproduced as a decision: optimize
    /// simulation time → stage the sort; optimize latency → keep it in
    /// the compute nodes.
    #[test]
    fn sort_placement_depends_on_objective() {
        let cfg = gtc_like(8192);
        let for_time = advise_op(&cfg, OpKind::Sort, Objective::SimulationTime);
        assert_eq!(for_time.recommended, Placement::Staging, "{for_time:?}");

        let for_latency = advise_op(&cfg, OpKind::Sort, Objective::ResultLatency);
        assert_eq!(
            for_latency.recommended,
            Placement::InComputeNode,
            "{for_latency:?}"
        );
        // Fig. 7(d): staging latency is an order of magnitude or more
        // above the in-compute operation time.
        assert!(for_latency.advantage() > 5.0, "{for_latency:?}");
    }

    #[test]
    fn histogram_staged_for_time_but_local_for_latency() {
        let cfg = gtc_like(8192);
        let t = advise_op(&cfg, OpKind::Histogram, Objective::SimulationTime);
        assert_eq!(t.recommended, Placement::Staging);
        let l = advise_op(&cfg, OpKind::Histogram, Objective::ResultLatency);
        assert_eq!(l.recommended, Placement::InComputeNode);
    }

    #[test]
    fn cpu_cost_advice_for_every_op() {
        let cfg = gtc_like(4096);
        for op in [OpKind::Sort, OpKind::Histogram] {
            let a = advise_op(&cfg, op, Objective::CpuCost);
            assert!(a.in_compute_metric > 0.0 && a.staged_metric > 0.0);
            assert!(a.advantage() >= 1.0);
        }
    }

    #[test]
    fn advantage_is_symmetric_ratio() {
        let a = PlacementAdvice {
            recommended: Placement::Staging,
            in_compute_metric: 200.0,
            staged_metric: 100.0,
        };
        assert!((a.advantage() - 2.0).abs() < 1e-12);
    }
}
