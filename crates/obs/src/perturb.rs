//! Perturbation view: how much did staging slow the simulation?
//!
//! PreDatA's headline evaluation (paper §5) measures per-step GTC
//! *compute-time perturbation* — the slowdown the simulation suffers
//! while the middleware moves and processes its output — and compares
//! the staged approach against In-Compute-Node processing. The inputs
//! are three rows of the fold, per I/O step:
//!
//! - **`compute`** — wall time the simulation spent in its own iteration
//!   loop (the application wraps it in `obs::span!("compute", step)`),
//! - **`blocked`** — wall time `write_pg` held the simulation thread
//!   (pack + expose + request send; the client's span), and
//! - **`pull`** — RDMA pull count and bytes landed during the step (the
//!   staging puller's span),
//!
//! so a report can correlate "step 7's compute ran 4% long" with "step
//! 7 pulled 900 MB". Being rows of the fold they are recorded whenever
//! recording is on; `view` only reads them.

use std::collections::BTreeMap;

use crate::event::SpanRow;

/// Perturbation inputs for one I/O step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerturbStat {
    /// Simulation compute wall time attributed to this step (ns).
    pub compute_ns: u64,
    /// Simulation wall time blocked inside `write_pg` this step (ns).
    pub blocked_ns: u64,
    /// Bytes landed by RDMA pulls for this step.
    pub pull_bytes: u64,
    /// Number of RDMA pulls completed for this step.
    pub pulls: u64,
}

impl PerturbStat {
    /// Fraction of the simulation's step wall time spent blocked in
    /// output: `blocked / (compute + blocked)`. `None` until the
    /// application has reported compute time — without it every step
    /// would read as fully blocked.
    pub fn blocked_fraction(&self) -> Option<f64> {
        (self.compute_ns > 0)
            .then(|| self.blocked_ns as f64 / (self.compute_ns + self.blocked_ns) as f64)
    }
}

/// The `(step, stat)` rows of `rows`, step-sorted; steps with none of
/// the three stages have no row.
pub(crate) fn view(rows: &[SpanRow]) -> Vec<(u64, PerturbStat)> {
    let mut steps: BTreeMap<u64, PerturbStat> = BTreeMap::new();
    for row in rows {
        match row.stage {
            "compute" => steps.entry(row.step).or_default().compute_ns += row.stat.total_ns,
            "blocked" => steps.entry(row.step).or_default().blocked_ns += row.stat.total_ns,
            "pull" => {
                let stat = steps.entry(row.step).or_default();
                stat.pull_bytes += row.stat.bytes;
                stat.pulls += row.stat.count;
            }
            _ => {}
        }
    }
    steps.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Registry};

    #[test]
    fn three_rows_of_the_fold_make_a_step() {
        let reg = Registry::new();
        reg.record(Event::new("compute", 3).at(0, 60));
        reg.record(Event::new("blocked", 3).at(60, 100));
        reg.record(Event::new("pull", 3).rank(0).at(0, 5).bytes(4096));
        reg.record(Event::new("pull", 3).rank(1).at(0, 5).bytes(4096));
        reg.record(Event::new("decode", 4).at(0, 5));
        let snap = reg.snapshot();
        let [(3, stat)] = snap.perturb() else {
            panic!("one row, step 3 (no perturbation stage at step 4)");
        };
        assert_eq!((stat.compute_ns, stat.blocked_ns), (60, 40));
        assert_eq!((stat.pulls, stat.pull_bytes), (2, 8192));
        assert!((stat.blocked_fraction().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn blocked_fraction_needs_compute_time() {
        let mut s = PerturbStat::default();
        assert_eq!(s.blocked_fraction(), None);
        s.blocked_ns = 25;
        assert_eq!(
            s.blocked_fraction(),
            None,
            "blocked alone is not a fraction"
        );
        s.compute_ns = 75;
        assert!((s.blocked_fraction().unwrap() - 0.25).abs() < 1e-12);
    }
}
