//! Deterministic fault injection for the staging transport.
//!
//! The paper's in-transit pipeline only beats the In-Compute-Node
//! baseline while the staging path stays up; its streaming successors
//! (ADIOS2/openPMD staging) treat staged transport as *unreliable by
//! design*. This module is the test substrate for that stance: a
//! [`FaultPlan`] is a seeded, reproducible schedule of transport faults
//! — dropped pulls, stale handles, pin-budget exhaustion —
//! that the retry/degradation machinery must absorb.
//!
//! # Determinism
//!
//! Whether a chunk `(src_rank, io_step)` is faulted is a pure function
//! of `(seed, kind, src_rank, io_step)` — a splitmix64 hash compared
//! against the configured probability — so the schedule is identical
//! across runs, thread interleavings, and worker counts. Per-chunk
//! *injection counts* bound how many attempts fail: with
//! `max_injections = 1` every selected chunk fails exactly its first
//! attempt (a transient fault a retry absorbs); with the default
//! (unbounded) the chunk never succeeds (a hard fault that must
//! exhaust retries and trigger degradation).
//!
//! # Where faults apply
//!
//! In the call that fails. *Pull* faults (`drop`, `stale`) are
//! consulted inside [`StagingEndpoint::rdma_get`], before the registry
//! lookup: a faulted attempt returns its error with the exposure
//! untouched, nothing timed and no completion posted, so a retry can
//! succeed. *Pin* faults are consulted inside
//! [`ComputeEndpoint::expose`], because the client's error path is
//! what they exist to exercise. *Put* and *query* faults are consulted
//! by [`retry::guard`](crate::retry::guard) before the DataSpaces put
//! or the query execution touches anything.
//!
//! [`StagingEndpoint::rdma_get`]: crate::StagingEndpoint::rdma_get
//! [`ComputeEndpoint::expose`]: crate::ComputeEndpoint::expose
//!
//! # Where a plan comes from
//!
//! The constructor of the thing being faulted:
//! [`Fabric::with_faults`](crate::Fabric::with_faults) attaches a plan
//! to pulls, stale handles and pins; `DataSpaces::with_faults`
//! attaches one to puts and to the query service over that space.
//! Nothing reads a plan from the environment. A plan's fields are its
//! builders:
//!
//! | builder | meaning | default |
//! |---|---|---|
//! | [`new(seed)`](FaultPlan::new) | hash seed for chunk selection | — |
//! | [`drop_chunks`](FaultPlan::drop_chunks) | P(pull attempt fails with `Timeout`, exposure kept); also P(query-service / DataSpaces-put attempt faults — each independently salted and keyed, so enabling one never perturbs another's schedule) | `0` |
//! | [`stale_handles`](FaultPlan::stale_handles) | P(pull attempt fails with `StaleHandle`, exposure kept) | `0` |
//! | [`pin_exhaustion`](FaultPlan::pin_exhaustion) | P(`expose` fails with `PinBudgetExceeded`) | `0` |
//! | [`max_injections`](FaultPlan::max_injections) | failed attempts per chunk per kind | unbounded |
//! | [`steps`](FaultPlan::steps) | only fault io_steps in the range | all steps |
//!
//! Every injected fault increments the
//! `transport.faults_injected{kind=…}` counter of the registry its
//! caller passes: the plan is built without a fabric and holds none.
//!
//! # Example
//!
//! ```
//! use transport::{Fabric, FaultPlan, FetchRequest, TransportError};
//!
//! // Every chunk's first pull attempt fails; a retry succeeds.
//! let plan = FaultPlan::new(42).drop_chunks(1.0).max_injections(1);
//! let obs = obs::Registry::new();
//! let (_fabric, computes, stagings) =
//!     Fabric::with_faults(1, 1, None, Some(plan.into()), obs.clone());
//! let handle = computes[0].expose(vec![7u8; 8].into(), 0).unwrap();
//! let req = FetchRequest {
//!     src_rank: 0, io_step: 0, handle, chunk_bytes: 8,
//!     format: 0, attrs: ffs::AttrList::new(),
//! };
//! assert_eq!(stagings[0].rdma_get(&req), Err(TransportError::Timeout));
//! assert_eq!(&stagings[0].rdma_get(&req).unwrap()[..], &[7u8; 8]);
//! let injected = obs.snapshot().counter("transport.faults_injected", &[("kind", "drop")]);
//! assert_eq!(injected, Some(1));
//! ```

use std::collections::HashMap;
use std::ops::Range;

use parking_lot::Mutex;

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A pull attempt fails with [`Timeout`](crate::TransportError::Timeout);
    /// the exposure is untouched, so a retry can succeed.
    Drop,
    /// A pull attempt fails with
    /// [`StaleHandle`](crate::TransportError::StaleHandle) — the transient
    /// handle-advertisement race of a real fabric.
    Stale,
    /// An `expose` fails with
    /// [`PinBudgetExceeded`](crate::TransportError::PinBudgetExceeded).
    Pin,
    /// A query-service execution attempt fails with
    /// [`Timeout`](crate::TransportError::Timeout) before touching the
    /// space (the staged read path a real deployment would retry). Rides
    /// the same `drop` probability as pull faults but salts and counts
    /// independently, so enabling it never perturbs the pull schedule.
    Query,
    /// A DataSpaces `put`/`put_ref` attempt fails with
    /// [`Timeout`](crate::TransportError::Timeout) before touching the
    /// index. Rides the `drop` probability with an independent salt,
    /// keyed on `(var_id, version)`.
    Put,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Stale => "stale",
            FaultKind::Pin => "pin",
            FaultKind::Query => "query",
            FaultKind::Put => "put",
        }
    }

    fn salt(self) -> u64 {
        match self {
            FaultKind::Drop => 0x0D0D,
            FaultKind::Stale => 0x57A1,
            FaultKind::Pin => 0x0919,
            FaultKind::Query => 0x9E4A,
            FaultKind::Put => 0x9407,
        }
    }
}

/// A seeded, deterministic schedule of transport faults. See the
/// module docs for semantics and where a plan is attached.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    stale_p: f64,
    pin_p: f64,
    max_injections: u32,
    steps: Option<Range<u64>>,
    /// `(kind, src_rank, step)` → injections so far.
    injected: Mutex<HashMap<(FaultKind, u64, u64), u32>>,
}

/// The one mixer behind fault selection and retry jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform fraction in `[0, 1)` from a hash.
fn fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// An empty plan with the given seed: nothing faults until a
    /// builder method sets a probability.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p: 0.0,
            stale_p: 0.0,
            pin_p: 0.0,
            max_injections: u32::MAX,
            steps: None,
            injected: Mutex::new(HashMap::new()),
        }
    }

    /// Set P(pull attempt fails with `Timeout`).
    pub fn drop_chunks(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Set P(pull attempt fails with `StaleHandle`).
    pub fn stale_handles(mut self, p: f64) -> Self {
        self.stale_p = p;
        self
    }

    /// Set P(`expose` fails with `PinBudgetExceeded`).
    pub fn pin_exhaustion(mut self, p: f64) -> Self {
        self.pin_p = p;
        self
    }

    /// Cap injected failures per chunk per kind (1 = transient: the
    /// first attempt fails, retries succeed). Default: unbounded.
    pub fn max_injections(mut self, n: u32) -> Self {
        self.max_injections = n;
        self
    }

    /// Restrict faults to io_steps in `range`.
    pub fn steps(mut self, range: Range<u64>) -> Self {
        self.steps = Some(range);
        self
    }

    /// Whether the plan *selects* chunk `(src_rank, step)` for `kind` —
    /// the pure deterministic decision, before injection-count caps.
    /// Exposed so tests can predict a seeded schedule.
    pub fn selects(&self, kind: FaultKind, src_rank: u64, step: u64) -> bool {
        if let Some(range) = &self.steps {
            if !range.contains(&step) {
                return false;
            }
        }
        let p = match kind {
            FaultKind::Drop => self.drop_p,
            FaultKind::Stale => self.stale_p,
            FaultKind::Pin => self.pin_p,
            FaultKind::Query | FaultKind::Put => self.drop_p,
        };
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let h = splitmix64(self.seed ^ kind.salt() ^ splitmix64(src_rank ^ (step << 32)));
        fraction(h) < p
    }

    /// Consult the plan before one attempt at `kind` keyed `(a, b)`:
    /// whether this attempt is faulted — selected and still under the
    /// per-key injection cap. An injection is counted into `obs`; the
    /// caller builds its error and skips the real operation, so a later
    /// attempt can succeed. The keys are `(src rank, io step)` for
    /// pulls and pins, `(var id, dump version)` for puts and
    /// `(query id, dump version)` for queries.
    pub(crate) fn inject(&self, obs: &obs::Registry, kind: FaultKind, a: u64, b: u64) -> bool {
        if !self.selects(kind, a, b) {
            return false;
        }
        let mut injected = self.injected.lock();
        let count = injected.entry((kind, a, b)).or_insert(0);
        if *count >= self.max_injections {
            return false;
        }
        *count += 1;
        drop(injected);
        obs.counter("transport.faults_injected", &[("kind", kind.label())])
            .inc();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_deterministic_and_probability_shaped() {
        let a = FaultPlan::new(7).drop_chunks(0.5);
        let b = FaultPlan::new(7).drop_chunks(0.5);
        let mut hits = 0;
        for chunk in 0..1000u64 {
            let sel = a.selects(FaultKind::Drop, chunk, 0);
            assert_eq!(
                sel,
                b.selects(FaultKind::Drop, chunk, 0),
                "same seed, same schedule"
            );
            hits += sel as u32;
        }
        assert!(
            (400..600).contains(&hits),
            "p=0.5 selects about half: {hits}"
        );
        let c = FaultPlan::new(8).drop_chunks(0.5);
        let diverges = (0..1000u64)
            .any(|i| a.selects(FaultKind::Drop, i, 0) != c.selects(FaultKind::Drop, i, 0));
        assert!(diverges, "different seeds give different schedules");
    }

    #[test]
    fn injection_cap_makes_faults_transient() {
        let obs = obs::Registry::new();
        let plan = FaultPlan::new(1).drop_chunks(1.0).max_injections(2);
        assert!(plan.inject(&obs, FaultKind::Drop, 5, 3));
        assert!(plan.inject(&obs, FaultKind::Drop, 5, 3));
        assert!(!plan.inject(&obs, FaultKind::Drop, 5, 3), "cap reached");
        assert!(
            plan.inject(&obs, FaultKind::Drop, 6, 3),
            "other chunks unaffected"
        );
        let injected = obs
            .snapshot()
            .counter("transport.faults_injected", &[("kind", "drop")]);
        assert_eq!(
            injected,
            Some(3),
            "every injection counted, in the caller's registry"
        );
    }

    #[test]
    fn step_filter_bounds_the_outage() {
        let obs = obs::Registry::new();
        let plan = FaultPlan::new(1).drop_chunks(1.0).steps(2..4);
        let faulted = |step| plan.inject(&obs, FaultKind::Drop, 0, step);
        assert_eq!([1, 2, 3, 4].map(faulted), [false, true, true, false]);
    }

    #[test]
    fn put_and_query_ride_drop_with_independent_schedules() {
        let obs = obs::Registry::new();
        let plan = FaultPlan::new(3).drop_chunks(1.0).max_injections(1);
        assert!(plan.inject(&obs, FaultKind::Put, 4, 1));
        assert!(
            !plan.inject(&obs, FaultKind::Put, 4, 1),
            "transient: retry clean"
        );
        assert!(plan.inject(&obs, FaultKind::Query, 0, 7));
        assert!(!plan.inject(&obs, FaultKind::Query, 0, 7));
        // Keys are disjoint: the pull key (4, 1) is still uninjected.
        assert!(plan.inject(&obs, FaultKind::Drop, 4, 1));

        // At p < 1 the three kinds select from independent schedules.
        let plan = FaultPlan::new(11).drop_chunks(0.5);
        let diverges = (0..200u64).any(|i| {
            plan.selects(FaultKind::Drop, i, 0) != plan.selects(FaultKind::Put, i, 0)
                || plan.selects(FaultKind::Drop, i, 0) != plan.selects(FaultKind::Query, i, 0)
        });
        assert!(diverges, "independent salts give independent schedules");
    }
}
