//! Retry with exponential backoff, deterministic jitter, and a
//! per-step deadline budget.
//!
//! PreDatA's staging path is only worth its transport cost while pulls
//! keep succeeding; a transient fabric hiccup (a dropped get, a handle
//! advertised a beat before its exposure) should cost a few
//! milliseconds of backoff, not the whole step. [`RetryPolicy`] is the
//! single knob for that: how many attempts, how the backoff grows, and
//! the hard *deadline* after which the step's degradation ladder — not
//! more retries — takes over.
//!
//! Retries are observable, never silent: each re-attempt increments
//! `transport.retries{op=…}` and giving up increments
//! `transport.retry_exhausted{op=…}`, in the registry the caller passes
//! (a policy is built without a fabric and holds none), so the
//! acceptance bar "transient faults absorbed" is checkable as
//! `retries > 0 && retry_exhausted == 0` on that registry's snapshot.
//!
//! # Where a policy comes from
//!
//! [`RetryPolicy::default`] is the one policy the middleware runs
//! under; the builders tune it for whoever constructs the retrying
//! component (`StagingConfig::retry`, `DataSpaces::with_faults`).
//! `attempts(1)` disables retrying — every transient error is
//! immediately terminal.
//!
//! # Example
//!
//! ```
//! use transport::{RetryPolicy, TransportError};
//!
//! let policy = RetryPolicy::default().attempts(3);
//! let obs = obs::Registry::new();
//! let mut calls = 0;
//! // Fails twice with a retryable Timeout, then succeeds.
//! let out = policy.run(&obs, "pull", 7, |attempt| {
//!     calls += 1;
//!     if attempt < 2 { Err(TransportError::Timeout) } else { Ok(attempt) }
//! });
//! assert_eq!(out, Ok(2));
//! assert_eq!(calls, 3);
//! assert_eq!(obs.snapshot().counter("transport.retries", &[("op", "pull")]), Some(2));
//!
//! // Non-retryable errors surface immediately.
//! let out: Result<(), _> = policy.run(&obs, "pull", 7, |_| Err(TransportError::Disconnected));
//! assert_eq!(out, Err(TransportError::Disconnected));
//! ```

use std::time::{Duration, Instant};

use crate::fabric::TransportError;
use crate::fault::{splitmix64, FaultKind, FaultPlan};

/// Exponential-backoff retry policy with a deadline budget. See the
/// module docs for who sets it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_backoff: Duration,
    max_backoff: Duration,
    deadline: Duration,
}

impl Default for RetryPolicy {
    /// 4 attempts, 1 ms base backoff doubling to a 100 ms cap, 10 s
    /// deadline.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            deadline: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// Set the total attempt count (1 = no retries).
    pub fn attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Set the first backoff; later backoffs double up to the cap.
    pub fn base_backoff(mut self, d: Duration) -> Self {
        self.base_backoff = d;
        self
    }

    /// Cap individual backoffs.
    pub fn max_backoff(mut self, d: Duration) -> Self {
        self.max_backoff = d;
        self
    }

    /// Hard budget across all attempts and backoffs: once spent, no
    /// further attempts are made even if `max_attempts` remain.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = d;
        self
    }

    /// Total attempt count.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The per-step deadline budget.
    pub fn step_deadline(&self) -> Duration {
        self.deadline
    }

    /// Whether `err` is worth retrying: timeouts and stale handles are
    /// transient races (the exposure may land a beat later);
    /// disconnects and pin-budget refusals are not — retrying cannot
    /// make a dropped peer or an over-committed budget succeed.
    pub fn is_retryable(err: &TransportError) -> bool {
        matches!(
            err,
            TransportError::Timeout | TransportError::StaleHandle(_)
        )
    }

    /// Backoff before retry number `attempt` (1-based): exponential
    /// from the base, capped, with ±25% deterministic jitter derived
    /// from `salt` so concurrent pullers de-synchronise identically on
    /// every run.
    pub(crate) fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1))
            .min(self.max_backoff);
        let nanos = exp.as_nanos() as u64;
        let jitter_span = nanos / 4;
        if jitter_span == 0 {
            return exp;
        }
        let h = splitmix64(salt ^ u64::from(attempt).wrapping_mul(0xA5A5_A5A5));
        Duration::from_nanos(nanos - jitter_span / 2 + h % jitter_span)
    }

    /// The one inject-then-retry gate: consult `plan` before each attempt
    /// at operation `kind` keyed `(a, b)` (`FaultPlan::inject`) and
    /// absorb its transient faults under this policy, counted in `obs`
    /// under `op`. `Ok` means go ahead; `Err` is the fault that outlasted
    /// the retries. Without a plan there is nothing to absorb: `Ok`, and
    /// no counter moves.
    pub fn guard(
        &self,
        obs: &obs::Registry,
        plan: Option<&FaultPlan>,
        op: &'static str,
        kind: FaultKind,
        a: u64,
        b: u64,
    ) -> Result<(), TransportError> {
        let Some(plan) = plan else {
            return Ok(());
        };
        self.run(obs, op, (a << 32) ^ b, |_| {
            plan.inject(obs, kind, a, b).map_or(Ok(()), Err)
        })
    }

    /// Run `f` under this policy. `f` gets the 0-based attempt index;
    /// retryable errors are re-attempted after `backoff`
    /// until attempts or the deadline budget run out. Each re-attempt
    /// increments `obs`'s `transport.retries{op}`; giving up on a
    /// retryable error increments its `transport.retry_exhausted{op}` —
    /// callers translate that into the degradation ladder.
    pub fn run<T>(
        &self,
        obs: &obs::Registry,
        op: &'static str,
        salt: u64,
        mut f: impl FnMut(u32) -> Result<T, TransportError>,
    ) -> Result<T, TransportError> {
        let started = Instant::now();
        let mut attempt = 0;
        loop {
            match f(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if !Self::is_retryable(&e) => return Err(e),
                Err(e) => {
                    attempt += 1;
                    let backoff = self.backoff(attempt, salt);
                    let exhausted = attempt >= self.max_attempts
                        || started.elapsed() + backoff >= self.deadline;
                    if exhausted {
                        obs.counter("transport.retry_exhausted", &[("op", op)])
                            .inc();
                        return Err(e);
                    }
                    obs.counter("transport.retries", &[("op", op)]).inc();
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_capped_and_deterministic() {
        let p = RetryPolicy::default()
            .base_backoff(Duration::from_millis(4))
            .max_backoff(Duration::from_millis(20));
        let b1 = p.backoff(1, 7);
        let b2 = p.backoff(2, 7);
        let b5 = p.backoff(5, 7);
        // Jitter is bounded by ±25% of the exponential value.
        assert!(b1 >= Duration::from_millis(3) && b1 <= Duration::from_millis(5));
        assert!(b2 >= Duration::from_millis(6) && b2 <= Duration::from_millis(10));
        assert!(b5 <= Duration::from_millis(25), "capped at max_backoff+25%");
        assert_eq!(b1, p.backoff(1, 7), "same salt, same jitter");
        assert_ne!(p.backoff(1, 8), b1, "different salt de-synchronises");
    }

    #[test]
    fn exhaustion_returns_the_last_error() {
        let p = RetryPolicy::default()
            .attempts(3)
            .base_backoff(Duration::from_micros(10));
        let mut calls = 0;
        let out: Result<(), _> = p.run(&obs::Registry::new(), "test_exhaust", 1, |_| {
            calls += 1;
            Err(TransportError::Timeout)
        });
        assert_eq!(out, Err(TransportError::Timeout));
        assert_eq!(calls, 3);
    }

    /// `guard` is injection and retry composed: a transient schedule
    /// costs one retry, a hard one exhausts with the injected error, and
    /// no plan is no work. Each case counts in a registry of its own.
    #[test]
    fn guard_absorbs_a_transient_fault_and_exhausts_on_a_hard_one() {
        let p = RetryPolicy::default()
            .attempts(3)
            .base_backoff(Duration::from_micros(10));
        let count = |obs: &obs::Registry, name| obs.counter(name, &[("op", "put")]).get();

        let obs = obs::Registry::new();
        let transient = FaultPlan::new(0).drop_chunks(1.0).max_injections(1);
        let out = p.guard(&obs, Some(&transient), "put", FaultKind::Put, 4, 1);
        assert_eq!(out, Ok(()));
        assert_eq!(count(&obs, "transport.retries"), 1);
        assert_eq!(count(&obs, "transport.retry_exhausted"), 0);

        let obs = obs::Registry::new();
        let hard = FaultPlan::new(0).drop_chunks(1.0);
        let out = p.guard(&obs, Some(&hard), "put", FaultKind::Put, 0, 7);
        assert_eq!(out, Err(TransportError::Timeout));
        assert_eq!(count(&obs, "transport.retries"), 2);
        assert_eq!(count(&obs, "transport.retry_exhausted"), 1);

        let obs = obs::Registry::new();
        assert_eq!(p.guard(&obs, None, "put", FaultKind::Put, 1, 1), Ok(()));
        assert_eq!(count(&obs, "transport.retries"), 0);
        assert_eq!(count(&obs, "transport.retry_exhausted"), 0);
    }

    #[test]
    fn deadline_budget_cuts_attempts_short() {
        let p = RetryPolicy::default()
            .attempts(1000)
            .base_backoff(Duration::from_millis(5))
            .max_backoff(Duration::from_millis(5))
            .deadline(Duration::from_millis(20));
        let started = Instant::now();
        let obs = obs::Registry::new();
        let out: Result<(), _> = p.run(&obs, "test_deadline", 1, |_| Err(TransportError::Timeout));
        assert_eq!(out, Err(TransportError::Timeout));
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "deadline bounded the loop well under 1000 × 5 ms"
        );
    }
}
