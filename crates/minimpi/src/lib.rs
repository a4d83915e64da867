//! `minimpi` — an MPI-flavoured message-passing runtime over OS threads.
//!
//! The PreDatA paper runs its staging area as "a separate MPI program"
//! whose analysis operations use "the highly-optimized MPI routines present
//! on the peta-scale machine" for shuffling and synchronization, and both
//! driver applications (GTC, Pixie3D) are MPI codes. This crate supplies
//! what the pipeline calls of that model — ranks of one world communicator
//! and the four collectives a staging step and the in-compute baseline
//! use (gather, allgather, alltoall, barrier) — with each rank mapped to
//! one OS thread in a single process. Semantics match MPI; the wire is shared
//! memory. Wall-clock timing at peta-scale is supplied separately by the
//! `simhec` discrete-event model.
//!
//! Collectives are built from point-to-point messages that stay inside the
//! crate: each rank has one FIFO queue per source, and since every rank
//! enters the collectives in the same order, a message is matched by its
//! source alone — no tags, no wildcards.
//!
//! # Example
//!
//! ```
//! use minimpi::World;
//!
//! // Each rank sends `10 * src + dst` to every `dst`, and sums what it
//! // received alongside every rank's rank.
//! let sums = World::run(4, |comm| {
//!     let me = comm.rank() as u64;
//!     let received = comm.alltoall((0..4).map(|dst| 10 * me + dst).collect());
//!     let ranks: u64 = comm.allgather(me).iter().sum();
//!     received.iter().sum::<u64>() + ranks
//! });
//! assert_eq!(sums, vec![66, 70, 74, 78]);
//! ```
//!
//! # Traffic accounting
//!
//! Every payload reports a byte size through [`MpiData`]; the world keeps
//! per-rank and aggregate counters so experiments can measure, e.g., how
//! much a `combine()` pass shrinks the shuffle volume.

#![warn(unreachable_pub)]

mod collectives;
mod comm;
mod data;
mod mailbox;
mod stats;
mod world;

pub use comm::Comm;
pub use data::MpiData;
pub use stats::TrafficStats;
pub use world::{PoisonOnUnwind, World};
