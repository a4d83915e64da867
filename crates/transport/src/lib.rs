//! `transport` — asynchronous data movement between compute and staging.
//!
//! This crate reproduces the substrate PreDatA builds on (the paper's
//! DataStager \[2\] + EVPath \[17\] layer): compute nodes *expose* packed
//! data chunks for one-sided access, send small *data-fetch requests* to
//! their staging node, and staging nodes later *pull* the bulk bytes with
//! RDMA-get semantics, on a schedule chosen to bound interference with the
//! application's own communication.
//!
//! On Jaguar the wire was Portals RDMA over SeaStar; here the "fabric" is
//! an in-process memory registry plus one request queue per staging rank
//! and one completion queue per compute rank, preserving the protocol
//! exactly:
//!
//! 1. compute: [`ComputeEndpoint::expose`] a chunk (or
//!    [`expose_gather`](ComputeEndpoint::expose_gather) its regions) →
//!    [`MemHandle`]
//! 2. compute: [`ComputeEndpoint::send_request`] with attached
//!    [`ffs::AttrList`] partial results (the Stage-1c "data fetch request")
//! 3. staging: [`StagingEndpoint::recv_request`]s, aggregates attachments
//! 4. staging: [`StagingEndpoint::rdma_get`] pulls bytes one-sided — a
//!    whole exposed buffer is handed over itself, by reference count
//!    (`ComputeEndpoint::expose_bytes`), and a [`Gather`] exposed where
//!    its regions lie ([`ComputeEndpoint::expose_gather`]) is landed in
//!    one buffer of the puller's; completion is posted to the compute
//!    endpoint's completion queue with the gather, which the exposer
//!    drops when it consumes the completion, and once nothing else holds
//!    the exposed memory the exposer may recycle it. A staging rank's
//!    pull loop holds a [`StagingEndpoint::completion_batch`], so each
//!    exposer is woken once per loop.
//!
//! Pull *order and pacing* are policy ([`PullPolicy`]): FIFO, largest-first,
//! or phase-aware (pause while the application is inside collectives —
//! the mechanism behind the paper's "<6% worst-case interference" claim).
//! Every chunk is its own pull: one server-directed `rdma_get` per fetch
//! request, in policy order (DESIGN.md §3.4 has the measurement behind
//! that).
//!
//! Every queue is an [`evq::EventQueue`], the workspace's one in-process
//! event queue (EVPath's role in the paper): the fabric's request and
//! completion queues here, and the DataSpaces query service's jobs,
//! replies and continuous updates. Dropping an endpoint closes its
//! queue, so a request sent to a dropped staging endpoint fails with
//! [`TransportError::Disconnected`].
//!
//! The transport is also where failures are *made reproducible*: a
//! seeded [`FaultPlan`], handed to [`Fabric::with_faults`] (see
//! `fault`), injects drop/stale-handle/pin-exhaustion faults on a
//! deterministic schedule, in the call that fails
//! ([`StagingEndpoint::rdma_get`], [`ComputeEndpoint::expose`]), and
//! [`retry`] is the one rule that absorbs them: at most four attempts, with exponential backoff and
//! deterministic jitter. The plan is a constructor argument, the rule
//! has no knob, and neither is read from the environment.
//!
//! # Example
//!
//! Every fabric operation is fallible — `expose` enforces the pin
//! budget, `rdma_get` consumes the exposure (a second get on the same
//! handle is a protocol error, reported as [`TransportError::StaleHandle`]):
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use transport::{Fabric, FetchRequest, TransportError};
//!
//! let (fabric, computes, stagings) = Fabric::new(1, 1, None);
//! let buf: Arc<[u8]> = vec![7u8; 64].into();
//! let handle = computes[0].expose(Arc::clone(&buf), 0).unwrap();
//! computes[0].send_request(0, FetchRequest {
//!     src_rank: 0, io_step: 0, handle, chunk_bytes: 64,
//!     format: 0, attrs: ffs::AttrList::new(),
//! }).unwrap();
//!
//! let req = stagings[0].recv_request(Duration::from_secs(1)).unwrap();
//! let pulled = stagings[0].rdma_get(&req).unwrap();     // one-sided get
//! assert_eq!(&pulled[..], &buf[..]);
//! computes[0].wait_completion(Duration::from_secs(1)).unwrap(); // buffer reusable
//! assert_eq!(fabric.stats().bytes_pulled(), 64);
//!
//! // The exposure is consumed: pulling the same handle again is stale.
//! assert!(matches!(
//!     stagings[0].rdma_get(&req),
//!     Err(TransportError::StaleHandle(_))
//! ));
//! ```

#![warn(unreachable_pub)]

pub mod evq;
mod fabric;
mod fault;
mod policy;
mod request;
pub mod retry;
mod router;

pub use fabric::{
    CompletionBatch, CompletionEvent, ComputeEndpoint, Fabric, FabricStats, Gather, MemHandle,
    StagingEndpoint, TransportError,
};
pub use fault::{FaultKind, FaultPlan};
pub use policy::{
    CongestionSignal, FifoPolicy, LargestFirstPolicy, PhaseAwarePolicy, PullPolicy,
    RateLimitedPolicy,
};
pub use request::FetchRequest;
pub use router::{BlockRouter, Router};
