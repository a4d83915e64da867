//! `dataspaces` — the global data knowledge service (paper §IV-D).
//!
//! DataSpaces gives concurrently-running, differently-decomposed codes the
//! abstraction of a *virtual semantically-specialized shared space* over
//! the staging area's memory: data is `put` with geometric descriptors
//! meaningful to the application (regions of a discretized global domain),
//! indexed on the fly, and served to `get`s that are agnostic of where the
//! bytes physically live. The paper evaluates it by indexing GTC's sorted
//! particles over a `2·10⁶ × 256` (local-id × rank) domain and serving
//! range queries from querying-application cores within the 120 s I/O
//! window (Fig. 9).
//!
//! Reproduced features:
//!
//! * **data sharing / redistribution** — [`DataSpaces::put`] splits a
//!   region's data into fixed *blocks* hashed across shards (one shard per
//!   staging server); [`DataSpaces::get`] reassembles any requested region
//!   regardless of how it was put (M writers, N readers).
//! * **data indexing** — block-grid hashing: locating the servers for a
//!   region is pure arithmetic, no central master.
//! * **data querying** — geometric range queries ([`DataSpaces::get`]),
//!   aggregation/reduction queries ([`DataSpaces::reduce`]), and
//!   *continuous queries* ([`QueryService::subscribe_reduce`]) that
//!   re-evaluate a reduction over a registered consumer's region on
//!   every commit of its variable.
//! * **coherence** — versions: readers of version `v` block until the
//!   writer [`DataSpaces::commit`]s it (get-after-put consistency across
//!   applications).
//! * **two-level load balancing** — block hashing spreads *data* evenly;
//!   the per-variable directory is sharded by name hash so *index*
//!   traffic also spreads.
//! * **lock-free committed reads** — [`DataSpaces::commit`] freezes a
//!   version's blocks and publishes them as an immutable epoch snapshot;
//!   readers bind a [`Session`] to that snapshot and scan without taking
//!   any lock a writer uses, so queries never block puts (and
//!   `evict_before` never corrupts an in-flight scan: snapshot
//!   isolation by reference counting).
//! * **a concurrent query front-end** — [`QueryService`] admits
//!   range/reduction/continuous queries into a bounded queue served by a
//!   worker pool, and every query carries a deadline. See
//!   [`service`](QueryService).

//! # Example
//!
//! ```
//! use bpio::DataArray;
//! use dataspaces::{DataSpaces, DsConfig, Reduction, Region};
//! use std::time::Duration;
//!
//! let ds = DataSpaces::new(DsConfig::new(vec![16, 16], vec![4, 4], 2));
//! let region = Region::new(vec![2, 2], vec![4, 4]);
//! ds.put("field", 0, &region, DataArray::F64(vec![1.5; 16])).unwrap();
//! ds.commit("field", 0);
//!
//! let sub = Region::new(vec![3, 3], vec![2, 2]);
//! let got = ds.get("field", 0, &sub, Duration::from_secs(1)).unwrap();
//! assert_eq!(got, DataArray::F64(vec![1.5; 4]));
//! let max = ds.reduce("field", 0, &region, Reduction::Max, Duration::from_secs(1)).unwrap();
//! assert_eq!(max, 1.5);
//! ```

pub mod bridge;
mod domain;
mod error;
mod index;
#[cfg(test)]
mod kernel_tests;
mod service;
mod session;
mod space;

pub use bridge::SpaceIndexOp;
pub use domain::{DsConfig, Region};
pub use error::DsError;
pub use service::{
    ContinuousHandle, ContinuousUpdate, QueryKind, QueryOutput, QueryResponse, QueryService,
    QueryServiceConfig, QueryTicket,
};
pub use session::Session;
pub use space::{CommitHook, DataSpaces, Reduction, SpaceStats, VarRef};
