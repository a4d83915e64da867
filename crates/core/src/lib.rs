//! `predata-core` — the PreDatA middleware.
//!
//! PreDatA ("Preparatory Data Analytics", Zheng et al., IPDPS 2010)
//! prepares and characterizes simulation output *in transit*: a small
//! staging area of dedicated nodes pulls each I/O dump asynchronously off
//! the compute nodes and runs pluggable operators over the stream of
//! packed partial data chunks before anything reaches storage.
//!
//! # Architecture (paper Figs. 4 & 5)
//!
//! ```text
//! compute rank ──┐  frame(ffs) → partial_calculate() → route() → request
//! compute rank ──┤                                               │ attrs
//! compute rank ──┘  (bulk bytes stay exposed, in the group's    ▼
//!                    own arrays)
//!                                 staging rank, four stages per step:
//!                                  1. gather requests
//!                                  2. aggregate attrs (global) → initialize
//!                                  3. scheduled RDMA pulls (each lands its
//!                                     chunk on staging) → decode → map
//!                                  4. one exchange: combine → shuffle
//!                                     → reduce → finalize
//! ```
//!
//! * [`client::PredataClient`] — the compute-node side, behind an
//!   ADIOS-style write API ([`bpio`] groups). Frames each chunk around
//!   the group's own arrays ([`chunk::ChunkGather`], no payload copy),
//!   then runs the optional first pass
//!   ([`op::ComputeSideOp::partial_calculate`]) and attaches its
//!   results to the fetch request.
//! * [`staging::StagingArea`] / [`staging::StagingRank`] — the staging
//!   side: an independent "MPI program" ([`minimpi`]) whose ranks gather
//!   requests, build global [`agg::Aggregates`], pull chunks under a
//!   [`transport::PullPolicy`], and drive every registered
//!   [`op::StreamOp`] through the four stages of
//!   [`StagingRank::run_step`](staging::StagingRank::run_step). A
//!   pull that fails transiently is retried, and one whose retries
//!   exhaust is left out of the step ([`StepReport::truncated`]; DESIGN.md
//!   §3.3, `docs/OPERATIONS.md` for the knobs).
//! * [`incompute::InComputeRunner`] — the baseline placement: the same
//!   operators executed synchronously on the compute ranks themselves
//!   (the paper's "In-Compute-Node configuration").
//! * [`ops`] — the operators evaluated in the paper: particle **sort**,
//!   **histogram**, **2-D histogram** (GTC), array layout
//!   **re-organization** (Pixie3D), plus the **bitmap index** used by
//!   GTC's range-query task.
//!
//! Placement flexibility is the point of the paper: the same [`op`]
//! implementations run in either location, and the choice is a runtime
//! configuration, not a code change.

//! # Example: a one-operator pipeline
//!
//! ```
//! use std::sync::Arc;
//! use predata_core::op::{ComputeSideOp, StreamOp};
//! use predata_core::ops::HistogramOp;
//! use predata_core::schema::make_particle_pg;
//! use predata_core::{PredataClient, StagingArea, StagingConfig};
//! use transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};
//!
//! let (fabric, computes, stagings) = Fabric::new(2, 1, None);
//! let router: Arc<dyn Router> = Arc::new(BlockRouter::new(2, 1));
//! let out = std::env::temp_dir().join(format!("predata-doc-{}", std::process::id()));
//!
//! let area = StagingArea::spawn(
//!     stagings, Arc::clone(&router),
//!     Arc::new(|_| vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>]),
//!     Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
//!     StagingConfig::new(2, &out), 1);
//!
//! for (rank, endpoint) in computes.into_iter().enumerate() {
//!     let ops: Vec<Arc<dyn ComputeSideOp>> = vec![Arc::new(HistogramOp::new(vec![0], 4))];
//!     let client = PredataClient::new(endpoint, Arc::clone(&router), ops);
//!     let rows: Vec<f64> = (0..4)
//!         .flat_map(|i| vec![i as f64, 0., 0., 0., 0., 1., rank as f64, i as f64])
//!         .collect();
//!     client.write_pg(make_particle_pg(rank as u64, 0, rows)).unwrap(); // non-blocking
//! }
//!
//! let reports = area.join();
//! let total: u64 = reports.into_iter().flat_map(|r| r.unwrap()).flat_map(|rep| {
//!     rep.results.into_iter().filter_map(|res| match res.values.get("hist_x") {
//!         Some(ffs::Value::ArrU64(bins)) => Some(bins.iter().sum::<u64>()),
//!         _ => None,
//!     })
//! }).sum();
//! assert_eq!(total, 8); // every particle counted, in transit
//! # std::fs::remove_dir_all(&out).ok();
//! ```

#![warn(unreachable_pub)]

pub mod agg;
pub mod chunk;
mod client;
pub mod incompute;
pub mod op;
pub mod ops;
pub mod schema;
pub mod staging;

pub use agg::Aggregates;
pub use chunk::PackedChunk;
pub use client::PredataClient;
pub use incompute::InComputeRunner;
pub use op::{OpResult, StreamOp, Tagged};
pub use staging::{StagingArea, StagingConfig, StepReport};
