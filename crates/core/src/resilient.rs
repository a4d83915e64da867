//! The client half of the degradation ladder: staged writes that fall
//! back to the In-Compute-Node placement when staging is unhealthy, and
//! recover automatically once pulls succeed again.
//!
//! The ladder (DESIGN.md §3.3); this module implements rung 3, rung 4
//! (overload shedding, [`crate::admit`]) lives in the staging runtime:
//!
//! 1. **retry** — transient pull/receive faults are absorbed inside the
//!    transport ([`transport::RetryPolicy`]); nothing changes here.
//! 2. **truncate** — a staging rank whose pull retries exhaust
//!    completes the step with the chunks it has
//!    ([`StepReport::truncated`](crate::StepReport)).
//! 3. **fall back** — a client whose staged writes keep failing stops
//!    paying for them: [`ResilientClient`] reclaims the pinned dumps
//!    and runs the *same operators* synchronously in place
//!    ([`InComputeRunner`]), the paper's baseline placement. While
//!    degraded it keeps probing with real staged writes, so the moment
//!    the staging path heals, output moves back in transit.
//!
//! Placement flexibility is the paper's point — the fallback is not a
//! stub but the evaluated In-Compute-Node configuration, so a degraded
//! run loses asynchrony, never data or analytics.
//!
//! Every fallback step increments `client.fallback_steps`; recoveries
//! increment `client.recoveries`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use predata_core::resilient::{DegradePolicy, ResilientClient, StepOutcome};
//! use predata_core::schema::make_particle_pg;
//! use predata_core::{StagingArea, StagingConfig};
//! use transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};
//!
//! let (_fabric, computes, stagings) = Fabric::new(1, 1, None);
//! let router: Arc<dyn Router> = Arc::new(BlockRouter::new(1, 1));
//! let out = std::env::temp_dir().join(format!("resilient-doc-{}", std::process::id()));
//! let area = StagingArea::spawn(
//!     stagings, Arc::clone(&router),
//!     Arc::new(|_| Vec::new()),
//!     Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
//!     StagingConfig::new(1, &out), 1);
//!
//! let mut client = ResilientClient::new(
//!     computes.into_iter().next().unwrap(), router,
//!     vec![],        // compute-side first passes
//!     Vec::new,      // fallback operator factory
//!     &out, DegradePolicy::default());
//!
//! // Healthy staging: the write stays in transit.
//! let outcome = client.write_step(make_particle_pg(0, 0, vec![0.0; 8]));
//! assert!(matches!(outcome, StepOutcome::Staged(_)));
//! assert!(!client.is_degraded());
//! area.join();
//! # std::fs::remove_dir_all(&out).ok();
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bpio::ProcessGroup;
use minimpi::{Comm, World};
use transport::{ComputeEndpoint, Router};

use crate::client::{ClientError, PredataClient, WriteReceipt};
use crate::incompute::InComputeRunner;
use crate::op::{ComputeSideOp, OpResult, StreamOp};

/// When to stop paying for staged writes, and how often to probe for
/// recovery. Whoever builds the [`ResilientClient`] passes one in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Consecutive failed staged steps before the client declares
    /// staging unhealthy and stops attempting every step.
    pub unhealthy_after: u32,
    /// While degraded, probe with a real staged write on steps where
    /// `step % probe_every == 0` (1 = probe every step).
    pub probe_every: u64,
    /// How long a staged write may take end to end (expose → request →
    /// pull confirmed by drain) before it counts as failed.
    pub step_deadline: Duration,
}

impl Default for DegradePolicy {
    /// Degrade after 2 consecutive failures, probe every step, 10 s
    /// per-step deadline.
    fn default() -> Self {
        DegradePolicy {
            unhealthy_after: 2,
            probe_every: 1,
            step_deadline: Duration::from_secs(10),
        }
    }
}

/// Where one step's output went.
#[derive(Debug)]
pub enum StepOutcome {
    /// The dump went through the staging area as usual.
    Staged(WriteReceipt),
    /// Staging was unhealthy: the dump was processed synchronously in
    /// place and these are the local operator results. `error` is what
    /// failed the staged attempt (`None` when the attempt was skipped
    /// between probes).
    FellBack {
        results: Vec<OpResult>,
        error: Option<ClientError>,
    },
}

impl StepOutcome {
    /// Whether this step ran on the fallback rung.
    pub fn is_fallback(&self) -> bool {
        matches!(self, StepOutcome::FellBack { .. })
    }
}

/// A [`PredataClient`] wrapped in the degradation ladder: staged writes
/// while staging is healthy, synchronous [`InComputeRunner`] steps while
/// it is not, automatic recovery when probes succeed. See the
/// [module docs](self).
pub struct ResilientClient {
    client: PredataClient,
    /// Fallback operator instances, same types as the staging side runs.
    ops: Vec<Box<dyn StreamOp>>,
    compute_side: Vec<Arc<dyn ComputeSideOp>>,
    /// Per-client fallback output directory (keyed by rank so
    /// single-rank fallback worlds never collide on files).
    out_dir: PathBuf,
    policy: DegradePolicy,
    /// 1-rank world: the fallback runs this client's data only — there
    /// is no cross-rank collective to lean on when staging is the thing
    /// that failed.
    comm: Comm,
    _world: Arc<World>,
    consecutive_failures: u32,
    degraded: bool,
}

impl ResilientClient {
    /// Wrap `endpoint` in a resilient client. `compute_side` are the
    /// Stage-1a passes (also re-used by the fallback), `fallback_ops`
    /// builds the local operator instances, and `out_dir` is the *base*
    /// output directory — fallback outputs land in
    /// `out_dir/incompute_rank<r>/`.
    pub fn new(
        endpoint: ComputeEndpoint,
        router: Arc<dyn Router>,
        compute_side: Vec<Arc<dyn ComputeSideOp>>,
        fallback_ops: impl FnOnce() -> Vec<Box<dyn StreamOp>>,
        out_dir: impl Into<PathBuf>,
        policy: DegradePolicy,
    ) -> Self {
        let rank = endpoint.rank();
        let (world, mut comms) = World::with_size(1);
        ResilientClient {
            client: PredataClient::new(endpoint, router, compute_side.clone()),
            ops: fallback_ops(),
            compute_side,
            out_dir: out_dir.into().join(format!("incompute_rank{rank}")),
            policy,
            comm: comms.remove(0),
            _world: world,
            consecutive_failures: 0,
            degraded: false,
        }
    }

    pub fn rank(&self) -> usize {
        self.client.rank()
    }

    /// Whether the client is currently on the fallback rung.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The wrapped client (e.g. for `buffered_bytes` inspection).
    pub fn client(&self) -> &PredataClient {
        &self.client
    }

    /// Write one step's dump through the ladder. Healthy (or probing):
    /// a staged write confirmed by a drain within the step deadline.
    /// On failure the pinned dump is reclaimed and the same data runs
    /// through the in-compute fallback — the step *always* completes;
    /// what varies is where.
    pub fn write_step(&mut self, pg: ProcessGroup) -> StepOutcome {
        let step = pg.step;
        let probing = !self.degraded || step.is_multiple_of(self.policy.probe_every);
        let error = if probing {
            match self.try_staged(pg.clone()) {
                Ok(receipt) => {
                    if self.degraded {
                        self.degraded = false;
                        obs::global().counter("client.recoveries", &[]).inc();
                    }
                    self.consecutive_failures = 0;
                    return StepOutcome::Staged(receipt);
                }
                Err(e) => {
                    // Withdraw whatever stayed pinned (nothing, when the
                    // expose itself failed) before re-writing locally.
                    self.client.reclaim_outstanding();
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.policy.unhealthy_after {
                        self.degraded = true;
                    }
                    Some(e)
                }
            }
        } else {
            None
        };
        let refs: Vec<&dyn ComputeSideOp> = self.compute_side.iter().map(|o| o.as_ref()).collect();
        let results =
            InComputeRunner::run_step(&self.comm, pg, &mut self.ops, &refs, &self.out_dir);
        obs::global().counter("client.fallback_steps", &[]).inc();
        StepOutcome::FellBack { results, error }
    }

    fn try_staged(&self, pg: ProcessGroup) -> Result<WriteReceipt, ClientError> {
        let receipt = self.client.write_pg(pg)?;
        self.client
            .wait_drained(self.policy.step_deadline)
            .map_err(ClientError::Transport)?;
        Ok(receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::HistogramOp;
    use crate::schema::make_particle_pg;
    use transport::{BlockRouter, Fabric};

    /// No staging area at all: every step falls back, the ladder
    /// degrades after the configured failures, and the *operators still
    /// run* — local results carry the same analytics.
    #[test]
    fn dead_staging_falls_back_with_live_results() {
        let (_fabric, computes, stagings) = Fabric::new(1, 1, None);
        drop(stagings);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(1, 1));
        let dir = std::env::temp_dir().join(format!("resilient-dead-{}", std::process::id()));
        let mut client = ResilientClient::new(
            computes.into_iter().next().unwrap(),
            router,
            vec![],
            || vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>],
            &dir,
            DegradePolicy {
                unhealthy_after: 2,
                probe_every: 1,
                step_deadline: Duration::from_millis(50),
            },
        );

        for step in 0..3u64 {
            let rows: Vec<f64> = (0..4)
                .flat_map(|i| vec![i as f64, 0., 0., 0., 0., 1., 0., i as f64])
                .collect();
            let outcome = client.write_step(make_particle_pg(0, step, rows));
            let StepOutcome::FellBack { results, error } = outcome else {
                panic!("staging is dead; step {step} cannot have staged");
            };
            assert!(error.is_some(), "the failed attempt is reported");
            let Some(ffs::Value::ArrU64(bins)) = results[0].values.get("hist_x") else {
                panic!("fallback ran the operator");
            };
            assert_eq!(bins.iter().sum::<u64>(), 4, "all particles counted locally");
            assert_eq!(
                client.is_degraded(),
                step >= 1,
                "unhealthy after 2 failures"
            );
        }
        assert_eq!(client.client().buffered_bytes(), 0, "nothing left pinned");
        std::fs::remove_dir_all(&dir).ok();
    }
}
