//! Deterministic fault injection for the staging transport.
//!
//! The paper's in-transit pipeline only beats the In-Compute-Node
//! baseline while the staging path stays up; its streaming successors
//! (ADIOS2/openPMD staging) treat staged transport as *unreliable by
//! design*. This module is the test substrate for that stance: a
//! [`FaultPlan`] is a seeded, reproducible schedule of transport faults
//! — dropped pulls, stale handles, pull delays, pin-budget exhaustion —
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
//! *Pull* faults (`drop`, `stale`, `delay`) are consulted by the
//! retry-aware staging runtime **before** it calls
//! [`StagingEndpoint::rdma_get`] — the raw fabric call stays exact, so
//! unit tests of the fabric protocol are unaffected by an ambient
//! `PREDATA_FAULTS`. *Pin* faults are consulted inside
//! [`ComputeEndpoint::expose`], because the client's error path is what
//! they exist to exercise. *Put* faults are consulted by the retrying
//! DataSpaces put path before the index is touched, and *collective*
//! faults at the entry of minimpi shuffle/gather/reduce collectives,
//! before any message moves — in both cases the underlying primitive
//! stays exact.
//!
//! [`StagingEndpoint::rdma_get`]: crate::StagingEndpoint::rdma_get
//! [`ComputeEndpoint::expose`]: crate::ComputeEndpoint::expose
//!
//! # Environment contract
//!
//! `PREDATA_FAULTS` holds a comma-separated `key=value` spec, e.g.
//! `seed=7,drop=1.0,max_injections=1` (every pull fails once, then
//! succeeds) or `seed=7,drop=1.0,steps=0..3` (pulls of steps 0–2 never
//! succeed). Unset, empty, `0`, or `off` disables injection. Fields:
//!
//! | key | meaning | default |
//! |---|---|---|
//! | `seed` | hash seed for chunk selection and retry jitter | `0` |
//! | `drop` | P(pull attempt fails with `Timeout`, exposure kept); also P(query-service / DataSpaces-put / collective-entry attempt faults — each independently salted and keyed, so enabling one never perturbs another's schedule) | `0` |
//! | `stale` | P(pull attempt fails with `StaleHandle`, exposure kept) | `0` |
//! | `delay_ms` | sleep injected before selected pulls | `0` |
//! | `delay` | P(pull is delayed by `delay_ms`) | `1` if `delay_ms` set |
//! | `pin` | P(`expose` fails with `PinBudgetExceeded`) | `0` |
//! | `max_injections` | failed attempts per chunk per kind | unbounded |
//! | `steps=a..b` | only fault io_steps in `[a, b)` | all steps |
//!
//! Every injected fault increments the
//! `transport.faults_injected{kind=…}` counter.
//!
//! # Example
//!
//! ```
//! use transport::{Fabric, FaultKind, FaultPlan};
//!
//! // Every chunk's first pull attempt fails; retries succeed.
//! let plan = FaultPlan::parse("seed=42,drop=1.0,max_injections=1").unwrap().unwrap();
//! let (_fabric, computes, _stagings) = Fabric::new(1, 1, None);
//! let handle = computes[0].expose(vec![0u8; 8].into(), 0).unwrap();
//! assert!(plan.selects(FaultKind::Drop, 0, 0));
//! assert!(plan.inject_pull(0, 0, handle).is_some(), "first attempt faulted");
//! assert!(plan.inject_pull(0, 0, handle).is_none(), "second attempt clean");
//!
//! // "off" disables the plan entirely.
//! assert!(FaultPlan::parse("off").unwrap().is_none());
//! ```

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use obs::spec::Spec;
use parking_lot::Mutex;

use crate::fabric::{MemHandle, TransportError};

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A pull attempt fails with [`TransportError::Timeout`]; the
    /// exposure is untouched, so a retry can succeed.
    Drop,
    /// A pull attempt fails with [`TransportError::StaleHandle`] — the
    /// transient handle-advertisement race of a real fabric.
    Stale,
    /// A pull attempt is delayed (burns deadline budget, then proceeds).
    Delay,
    /// An `expose` fails with [`TransportError::PinBudgetExceeded`].
    Pin,
    /// A query-service execution attempt fails with
    /// [`TransportError::Timeout`] before touching the space (the
    /// staged read path a real deployment would retry). Rides the same
    /// `drop` probability as pull faults but salts and counts
    /// independently, so enabling it never perturbs the pull schedule.
    Query,
    /// A DataSpaces `put`/`put_ref` attempt fails with
    /// [`TransportError::Timeout`] before touching the index. Rides the
    /// `drop` probability with an independent salt, keyed on
    /// `(var_id, version)`.
    Put,
    /// A collective entry (shuffle/gather/reduce) fails with
    /// [`TransportError::Timeout`] before any message moves. Rides the
    /// `drop` probability with an independent salt, keyed on
    /// `(rank, collective sequence number)`. Injection happens strictly
    /// *before* the first send/recv of the collective, so a retried —
    /// or even exhausted — attempt can still complete the collective
    /// without deadlocking peers.
    Collective,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Stale => "stale",
            FaultKind::Delay => "delay",
            FaultKind::Pin => "pin",
            FaultKind::Query => "query",
            FaultKind::Put => "put",
            FaultKind::Collective => "collective",
        }
    }

    fn salt(self) -> u64 {
        match self {
            FaultKind::Drop => 0x0D0D,
            FaultKind::Stale => 0x57A1,
            FaultKind::Delay => 0xDE1A,
            FaultKind::Pin => 0x0919,
            FaultKind::Query => 0x9E4A,
            FaultKind::Put => 0x9407,
            FaultKind::Collective => 0xC011,
        }
    }
}

/// A seeded, deterministic schedule of transport faults. See the
/// [module docs](self) for semantics and the `PREDATA_FAULTS` grammar.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    stale_p: f64,
    delay_p: f64,
    pin_p: f64,
    delay: Duration,
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
            delay_p: 0.0,
            pin_p: 0.0,
            delay: Duration::ZERO,
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

    /// Parse a `PREDATA_FAULTS` spec. `Ok(None)` means "no plan"
    /// (empty, `0`, or `off`); `Err` describes a malformed field.
    pub fn parse(spec: &str) -> Result<Option<FaultPlan>, String> {
        let fields = match obs::spec::parse("fault", spec)? {
            Spec::Unset | Spec::Off => return Ok(None),
            Spec::Fields(fields) => fields,
        };
        let mut plan = FaultPlan::new(0);
        let mut delay_p: Option<f64> = None;
        for f in &fields {
            match f.key {
                "seed" => plan.seed = f.num()?,
                "drop" => plan.drop_p = f.num()?,
                "stale" => plan.stale_p = f.num()?,
                "pin" => plan.pin_p = f.num()?,
                "delay" => delay_p = Some(f.num()?),
                "delay_ms" => plan.delay = Duration::from_millis(f.num()?),
                "max_injections" => plan.max_injections = f.num()?,
                "steps" => {
                    let (a, b) = f
                        .value
                        .split_once("..")
                        .ok_or_else(|| f.err("wants a..b"))?;
                    plan.steps = Some(f.num_of(a)?..f.num_of(b)?);
                }
                _ => return Err(f.unknown()),
            }
        }
        plan.delay_p = match delay_p {
            Some(p) => p,
            None if plan.delay > Duration::ZERO => 1.0,
            None => 0.0,
        };
        Ok(Some(plan))
    }

    /// The process-wide plan from `PREDATA_FAULTS`, read once. A
    /// malformed spec aborts loudly — a silently ignored fault plan
    /// would fake passing resilience tests.
    pub fn from_env() -> Option<Arc<FaultPlan>> {
        static PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
        PLAN.get_or_init(|| obs::spec::from_env("PREDATA_FAULTS", FaultPlan::parse).map(Arc::new))
            .clone()
    }

    /// The plan's seed (also salts retry-backoff jitter).
    pub fn seed(&self) -> u64 {
        self.seed
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
            FaultKind::Delay => self.delay_p,
            FaultKind::Pin => self.pin_p,
            FaultKind::Query | FaultKind::Put | FaultKind::Collective => self.drop_p,
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

    /// Selected and still under the per-chunk injection cap: count one
    /// injection and report it.
    fn try_inject(&self, kind: FaultKind, src_rank: u64, step: u64) -> bool {
        if !self.selects(kind, src_rank, step) {
            return false;
        }
        let mut injected = self.injected.lock();
        let count = injected.entry((kind, src_rank, step)).or_insert(0);
        if *count >= self.max_injections {
            return false;
        }
        *count += 1;
        drop(injected);
        obs::global()
            .counter("transport.faults_injected", &[("kind", kind.label())])
            .inc();
        true
    }

    /// Consult the plan before one pull attempt of chunk
    /// `(src_rank, step)` via `handle`: sleeps any injected delay, then
    /// returns the injected error, if this attempt is faulted. The
    /// caller skips the real `rdma_get` on `Some` — the exposure is
    /// untouched, so a later attempt can succeed.
    pub fn inject_pull(
        &self,
        src_rank: u64,
        step: u64,
        handle: MemHandle,
    ) -> Option<TransportError> {
        if self.try_inject(FaultKind::Delay, src_rank, step) && self.delay > Duration::ZERO {
            std::thread::sleep(self.delay);
        }
        if self.try_inject(FaultKind::Drop, src_rank, step) {
            return Some(TransportError::Timeout);
        }
        if self.try_inject(FaultKind::Stale, src_rank, step) {
            return Some(TransportError::StaleHandle(handle));
        }
        None
    }

    /// Consult the plan before one attempt at an operation that is keyed
    /// by two numbers and faults with `Timeout` before it touches
    /// anything, so a retry is exact — the kinds that ride the `drop`
    /// probability, each under its own salt and its own `(kind, a, b)`
    /// injection count, so one spec exercises every path without
    /// coupling their schedules:
    ///
    /// * [`FaultKind::Query`], `(query id, dump version)`: one execution
    ///   attempt of the query service. A faulted attempt first sleeps
    ///   the plan's `delay_ms`, burning the query's deadline budget.
    /// * [`FaultKind::Put`], `(var id, dump version)`: one DataSpaces
    ///   `put` / `put_ref` attempt, before the index is touched.
    /// * [`FaultKind::Collective`], `(rank, collective sequence
    ///   number)`: strictly before the collective's first message. On
    ///   retry exhaustion the caller proceeds with the collective
    ///   anyway — abandoning one unilaterally would deadlock every peer.
    ///
    /// Pulls and exposes, which carry a handle and a size, have
    /// [`inject_pull`](Self::inject_pull) and
    /// [`inject_expose`](Self::inject_expose).
    pub fn inject(&self, kind: FaultKind, a: u64, b: u64) -> Option<TransportError> {
        if !self.try_inject(kind, a, b) {
            return None;
        }
        if kind == FaultKind::Query && self.delay > Duration::ZERO {
            std::thread::sleep(self.delay);
        }
        Some(TransportError::Timeout)
    }

    /// Consult the plan before one `expose` of `requested` bytes by
    /// compute rank `rank` at `step`.
    pub fn inject_expose(&self, rank: u64, step: u64, requested: usize) -> Option<TransportError> {
        if self.try_inject(FaultKind::Pin, rank, step) {
            return Some(TransportError::PinBudgetExceeded {
                requested,
                available: 0,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=9, drop=0.5, stale=0.25, pin=0.1, delay_ms=3, max_injections=2, steps=1..4",
        )
        .unwrap()
        .unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.drop_p, 0.5);
        assert_eq!(plan.stale_p, 0.25);
        assert_eq!(plan.pin_p, 0.1);
        assert_eq!(plan.delay, Duration::from_millis(3));
        assert_eq!(plan.delay_p, 1.0, "delay_ms without delay= implies p=1");
        assert_eq!(plan.max_injections, 2);
        assert_eq!(plan.steps, Some(1..4));
    }

    #[test]
    fn parse_off_and_errors() {
        assert!(FaultPlan::parse("").unwrap().is_none());
        assert!(FaultPlan::parse("off").unwrap().is_none());
        assert!(FaultPlan::parse("0").unwrap().is_none());
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("drop=x").is_err());
        assert!(FaultPlan::parse("steps=3").is_err());
        assert!(FaultPlan::parse("frob=1").is_err());
    }

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
        let h = MemHandle::test_only(9);
        let plan = FaultPlan::new(1).drop_chunks(1.0).max_injections(2);
        assert!(matches!(
            plan.inject_pull(5, 3, h),
            Some(TransportError::Timeout)
        ));
        assert!(matches!(
            plan.inject_pull(5, 3, h),
            Some(TransportError::Timeout)
        ));
        assert!(plan.inject_pull(5, 3, h).is_none(), "cap reached");
        assert!(
            plan.inject_pull(6, 3, h).is_some(),
            "other chunks unaffected"
        );
    }

    #[test]
    fn stale_faults_name_the_handle() {
        let h = MemHandle::test_only(11);
        let plan = FaultPlan::new(1).stale_handles(1.0);
        assert_eq!(
            plan.inject_pull(0, 0, h),
            Some(TransportError::StaleHandle(h))
        );
    }

    #[test]
    fn step_filter_bounds_the_outage() {
        let h = MemHandle::test_only(10);
        let plan = FaultPlan::new(1).drop_chunks(1.0).steps(2..4);
        assert!(plan.inject_pull(0, 1, h).is_none());
        assert!(plan.inject_pull(0, 2, h).is_some());
        assert!(plan.inject_pull(0, 3, h).is_some());
        assert!(plan.inject_pull(0, 4, h).is_none());
    }

    #[test]
    fn put_and_collective_ride_drop_with_independent_schedules() {
        let plan = FaultPlan::new(3).drop_chunks(1.0).max_injections(1);
        let timeout = Some(TransportError::Timeout);
        assert_eq!(plan.inject(FaultKind::Put, 4, 1), timeout);
        assert!(
            plan.inject(FaultKind::Put, 4, 1).is_none(),
            "transient: retry clean"
        );
        assert_eq!(plan.inject(FaultKind::Collective, 0, 7), timeout);
        assert!(plan.inject(FaultKind::Collective, 0, 7).is_none());
        // Keys are disjoint: the pull key (4, 1) is still uninjected.
        let h = MemHandle::test_only(1);
        assert!(plan.inject_pull(4, 1, h).is_some());

        // At p < 1 the three kinds select from independent schedules.
        let plan = FaultPlan::new(11).drop_chunks(0.5);
        let diverges = (0..200u64).any(|i| {
            plan.selects(FaultKind::Drop, i, 0) != plan.selects(FaultKind::Put, i, 0)
                || plan.selects(FaultKind::Drop, i, 0) != plan.selects(FaultKind::Collective, i, 0)
        });
        assert!(diverges, "independent salts give independent schedules");
    }

    #[test]
    fn pin_faults_report_the_requested_size() {
        let plan = FaultPlan::new(0).pin_exhaustion(1.0);
        match plan.inject_expose(2, 0, 4096) {
            Some(TransportError::PinBudgetExceeded { requested, .. }) => {
                assert_eq!(requested, 4096)
            }
            other => panic!("expected pin fault, got {other:?}"),
        }
    }
}
