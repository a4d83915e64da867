//! `apps` — synthetic skeletons of the paper's two driver applications.
//!
//! The PreDatA operators care about the *shape* of application output,
//! not the physics, so these skeletons reproduce exactly the data
//! properties the paper's analysis tasks depend on:
//!
//! * [`gtc::GtcWorld`] — a particle-in-cell skeleton. Each rank owns a
//!   2-D `np × 8` particle array (coordinates, velocities, weight, and the
//!   immutable (rank, id) label assigned at t=0). Particles migrate
//!   between ranks "in a random manner as the simulation evolves", so
//!   every dump's arrays are out of label order — the reason GTC needs
//!   the in-transit sort.
//! * [`pixie3d::PixieWorld`] — an MHD skeleton on a 3-D block
//!   decomposition producing the eight field arrays (mass density, linear
//!   momentum, vector potential, temperature), plus the diagnostic
//!   routines the paper's Fig. 2 pipeline derives from them (energy,
//!   flux, divergence, maximum velocity).
//!
//! Both are deterministic functions of their seed.

#![warn(unreachable_pub)]

mod gtc;
mod pixie3d;

pub use gtc::{GtcWorld, Species};
pub use pixie3d::PixieWorld;
