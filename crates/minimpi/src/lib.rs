//! `minimpi` — an MPI-flavoured message-passing runtime over OS threads.
//!
//! The PreDatA paper runs its staging area as "a separate MPI program"
//! whose analysis operations use "the highly-optimized MPI routines present
//! on the peta-scale machine" for shuffling and synchronization, and both
//! driver applications (GTC, Pixie3D) are MPI codes. This crate supplies
//! the same programming model — ranks, communicators, point-to-point
//! send/recv with tags, and the collectives the paper's code paths need
//! (barrier, bcast, reduce, allreduce, gather(v), allgather(v),
//! alltoall(v), scan, exscan, split) — with each rank mapped to one OS
//! thread in a single process. Semantics match MPI; the wire is shared
//! memory. Wall-clock timing at peta-scale is supplied separately by the
//! `simhec` discrete-event model.
//!
//! # Example
//!
//! ```
//! use minimpi::World;
//!
//! let sums = World::run(4, |comm| {
//!     let mine = (comm.rank() + 1) as u64;
//!     comm.allreduce(mine, |a, b| a + b)
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```
//!
//! # Traffic accounting
//!
//! Every payload reports a byte size through [`MpiData`]; the world keeps
//! per-rank and aggregate counters so experiments can measure, e.g., how
//! much a `combine()` pass shrinks the shuffle volume.

mod collectives;
mod comm;
mod data;
mod envelope;
mod stats;
mod world;

pub use comm::{CollectiveGate, Comm, RecvError};
pub use data::{MpiData, MpiScalar};
pub use stats::TrafficStats;
pub use world::{PoisonOnUnwind, World};

/// Wildcard source for receive matching.
pub const ANY_SOURCE: usize = usize::MAX;
/// Wildcard tag.
pub const ANY_TAG: u64 = u64::MAX;
/// Tags at and above this value are reserved for internal plumbing
/// (collectives, communicator splits); user `send` rejects them.
pub const RESERVED_TAGS: u64 = u64::MAX - 15;
