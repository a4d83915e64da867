//! `simhec` — a discrete-event model of a peta-scale HEC platform.
//!
//! The paper's evaluation runs GTC and Pixie3D on ORNL Jaguar at 512 to
//! 16,384 cores. Reproducing those *figures* requires a machine, not just
//! the middleware: write latencies come from a shared parallel file
//! system, staging latencies from NIC capacity mismatch (thousands of
//! compute nodes funneling into tens of staging nodes), and the headline
//! interference numbers from asynchronous RDMA pulls competing with the
//! application's collectives for the same NICs.
//!
//! This crate models exactly those mechanisms:
//!
//! * `net` — a fluid (rate-based) network: *node classes* with NIC
//!   capacities, flows with max-min fair bandwidth sharing, background
//!   utilization windows (application collectives), pausable flows
//!   (phase-aware pull scheduling).
//! * [`pfs`] — a shared parallel file system: aggregate and per-client
//!   bandwidth limits, client-count scaling, and deterministic lognormal
//!   performance variability (the "other jobs on the machine" the paper
//!   works around by best-of-5 sampling).
//! * `machine` — calibrated platform presets (XT5/XT4-like) and cost
//!   models for the PreDatA operators.
//! * [`scenario`] — the staged-application timeline: a bulk-synchronous
//!   app with periodic output, run either with In-Compute-Node synchronous
//!   I/O or through a staging area, producing the per-phase breakdowns the
//!   paper's Figures 7, 8 and 10 plot.
//!
//! Determinism: all stochastic elements use [`rng::SplitMix64`] seeded by
//! the caller; a scenario run is a pure function of its inputs.

//! # Example: one modeled run
//!
//! ```
//! use simhec::scenario::{OpKind, Placement, PullPolicyKind, ScenarioConfig};
//! use simhec::{MachineConfig, OpCosts, StagedRun};
//!
//! let cfg = ScenarioConfig {
//!     machine: MachineConfig::xt5_like(),
//!     costs: OpCosts::calibrated(),
//!     n_compute_procs: 256, procs_per_node: 1, threads_per_proc: 8,
//!     bytes_per_proc: 132e6, io_interval: 120.0, n_io_steps: 2,
//!     compute_burst: 2.0, collective_bytes_per_node: 32e6,
//!     staging_ratio: 64, staging_procs_per_node: 2, staging_threads_per_proc: 4,
//!     ops: vec![OpKind::Sort],
//!     placement: Placement::Staging,
//!     pull_policy: PullPolicyKind::PhaseAware,
//!     seed: 42,
//! };
//! let run = StagedRun::run(&cfg);
//! assert!(run.io_blocking_time < 2.0, "staging hides write latency");
//! assert!(run.interference < 0.06, "scheduled pulls bound interference");
//! ```

#![warn(unreachable_pub)]

mod machine;
mod net;
pub mod pfs;
mod placement;
pub mod rng;
pub mod scenario;

#[cfg(test)]
mod proptest_net;

pub use machine::{MachineConfig, OpCosts};
pub use placement::{advise_op, Objective, PlacementAdvice};
pub use scenario::{Placement, RunBreakdown, ScenarioConfig, StagedRun};
