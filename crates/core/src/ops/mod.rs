//! Built-in PreDatA operations — the ones evaluated in the paper.
//!
//! * [`sort::SortOp`] — global particle sort by the (rank, id) label,
//!   enabling particle tracking across the hundreds of per-step files
//!   (GTC task 1).
//! * [`bitmap::BitmapIndex`] / [`bitmap::BitmapIndexOp`] — bin-encoded
//!   bitmap indexing for range queries over particle attributes
//!   (GTC task 2, after Sinha & Winslett).
//! * [`histogram::HistogramOp`] — per-attribute 1-D histograms for online
//!   monitoring (GTC task 3) — and [`histogram::Histogram2dOp`] — 2-D
//!   histograms for parallel-coordinate visualization (GTC task 3): one
//!   implementation, [`histogram::BinnedCountOp`], with one or two
//!   attribute columns per key.
//! * [`reorg::ReorgOp`] — array-layout re-organization: merges scattered
//!   per-process chunks of global arrays into large contiguous extents
//!   before writing (Pixie3D).
//!
//! What they share — the bin formula, the global-range look-up, the
//! compute-side [`attach_particle_stats`] and the one writer of operator
//! outputs — is the private `kit` module.

pub mod bitmap;
pub mod histogram;
mod kit;
pub mod reorg;
pub mod sort;

pub use bitmap::{BitmapIndex, BitmapIndexOp, IndexSet};
pub use histogram::{Histogram2dOp, HistogramOp};
pub use kit::attach_particle_stats;
pub use reorg::ReorgOp;
pub use sort::SortOp;
