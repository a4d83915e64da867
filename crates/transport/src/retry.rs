//! The one retry rule: an operation that fails with a transient error
//! is attempted at most four times in all, after a backoff that starts
//! at 1 ms and doubles, with deterministic jitter.
//!
//! PreDatA's staging path is only worth its transport cost while pulls
//! keep succeeding; a transient fabric hiccup (a dropped get, a handle
//! advertised a beat before its exposure) should cost a few
//! milliseconds of backoff, not the whole step. The rule has no knob:
//! the backoffs are 1, 2 and 4 ms (each jittered within ± 12.5 %), under
//! 8 ms per operation, and once they are spent the caller's degradation ladder —
//! not more retries — takes over. How long a step may wait for its
//! peers is the step's own deadline (`StagingConfig::step_timeout`),
//! not a retry budget.
//!
//! Retries are observable, never silent: each re-attempt increments
//! `transport.retries{op=…}` and giving up increments
//! `transport.retry_exhausted{op=…}`, in the registry the caller passes,
//! so the acceptance bar "transient faults absorbed" is checkable as
//! `retries > 0 && retry_exhausted == 0` on that registry's snapshot.
//!
//! # Example
//!
//! ```
//! use transport::{retry, TransportError};
//!
//! let obs = obs::Registry::new();
//! let mut calls = 0;
//! // Fails twice with a retryable Timeout, then succeeds.
//! let out = retry::retry(&obs, "pull", 7, || {
//!     calls += 1;
//!     if calls < 3 { Err(TransportError::Timeout) } else { Ok(calls) }
//! });
//! assert_eq!(out, Ok(3));
//! assert_eq!(obs.snapshot().counter("transport.retries", &[("op", "pull")]), Some(2));
//!
//! // Non-retryable errors surface immediately.
//! let out: Result<(), _> = retry::retry(&obs, "pull", 7, || Err(TransportError::Disconnected));
//! assert_eq!(out, Err(TransportError::Disconnected));
//! ```

use std::time::Duration;

use crate::fabric::TransportError;
use crate::fault::{splitmix64, FaultKind, FaultPlan};

/// Total attempts at one operation, the first included.
const ATTEMPTS: u32 = 4;

/// The backoff before the first retry; each later one doubles it.
const BASE_BACKOFF: Duration = Duration::from_millis(1);

/// Backoff before retry number `attempt` (1-based): exponential from
/// [`BASE_BACKOFF`], with deterministic jitter across a quarter of that
/// value (± 12.5 %), derived from `salt`
/// so concurrent pullers de-synchronise identically on every run.
fn backoff(attempt: u32, salt: u64) -> Duration {
    let nanos = BASE_BACKOFF.as_nanos() as u64 * (1 << (attempt - 1));
    let jitter_span = nanos / 4;
    let h = splitmix64(salt ^ u64::from(attempt).wrapping_mul(0xA5A5_A5A5));
    Duration::from_nanos(nanos - jitter_span / 2 + h % jitter_span)
}

/// Run `f` under the retry rule: a retryable error
/// ([`TransportError::is_retryable`]) is re-attempted after
/// a backoff until four attempts are spent. Each re-attempt increments
/// `obs`'s `transport.retries{op}`; giving up on a retryable error
/// increments its `transport.retry_exhausted{op}` and returns that
/// error — callers translate it into the degradation ladder.
pub fn retry<T>(
    obs: &obs::Registry,
    op: &'static str,
    salt: u64,
    mut f: impl FnMut() -> Result<T, TransportError>,
) -> Result<T, TransportError> {
    let mut attempt = 0;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if !e.is_retryable() => return Err(e),
            Err(e) => {
                attempt += 1;
                if attempt >= ATTEMPTS {
                    obs.counter("transport.retry_exhausted", &[("op", op)])
                        .inc();
                    return Err(e);
                }
                obs.counter("transport.retries", &[("op", op)]).inc();
                std::thread::sleep(backoff(attempt, salt));
            }
        }
    }
}

/// The inject-then-retry gate of the DataSpaces put and the query
/// service: consult `plan` before each attempt at operation `kind` keyed
/// `(a, b)`, failing a faulted attempt with [`TransportError::Timeout`]
/// before it touches anything, and absorb
/// its transient faults under [`retry`], counted in `obs` under `op`.
/// `Ok` means go ahead; `Err` is the fault that outlasted the retries.
/// Without a plan there is nothing to absorb: `Ok`, and no counter
/// moves.
pub fn guard(
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
    retry(obs, op, (a << 32) ^ b, || {
        if plan.inject(obs, kind, a, b) {
            Err(TransportError::Timeout)
        } else {
            Ok(())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_is_deterministic() {
        let b1 = backoff(1, 7);
        let b2 = backoff(2, 7);
        let b3 = backoff(3, 7);
        // Jitter stays within ± 12.5 % of the exponential value.
        let ms = Duration::from_micros;
        assert!(b1 >= ms(875) && b1 < ms(1125), "{b1:?}");
        assert!(b2 >= ms(1750) && b2 < ms(2250), "{b2:?}");
        assert!(b3 >= ms(3500) && b3 < ms(4500), "{b3:?}");
        assert_eq!(b1, backoff(1, 7), "same salt, same jitter");
        assert_ne!(backoff(1, 8), b1, "different salt de-synchronises");
    }

    #[test]
    fn exhaustion_returns_the_last_error() {
        let obs = obs::Registry::new();
        let mut calls = 0;
        let out: Result<(), _> = retry(&obs, "test_exhaust", 1, || {
            calls += 1;
            Err(TransportError::Timeout)
        });
        assert_eq!(out, Err(TransportError::Timeout));
        assert_eq!(calls, ATTEMPTS);
        let count = |name| obs.counter(name, &[("op", "test_exhaust")]).get();
        assert_eq!(count("transport.retries"), u64::from(ATTEMPTS - 1));
        assert_eq!(count("transport.retry_exhausted"), 1);
    }

    /// `guard` is injection and retry composed: a transient schedule
    /// costs one retry, a hard one exhausts with the injected error, and
    /// no plan is no work. Each case counts in a registry of its own.
    #[test]
    fn guard_absorbs_a_transient_fault_and_exhausts_on_a_hard_one() {
        let count = |obs: &obs::Registry, name| obs.counter(name, &[("op", "put")]).get();

        let obs = obs::Registry::new();
        let transient = FaultPlan::new(0).drop_chunks(1.0).max_injections(1);
        let out = guard(&obs, Some(&transient), "put", FaultKind::Put, 4, 1);
        assert_eq!(out, Ok(()));
        assert_eq!(count(&obs, "transport.retries"), 1);
        assert_eq!(count(&obs, "transport.retry_exhausted"), 0);

        let obs = obs::Registry::new();
        let hard = FaultPlan::new(0).drop_chunks(1.0);
        let out = guard(&obs, Some(&hard), "put", FaultKind::Put, 0, 7);
        assert_eq!(out, Err(TransportError::Timeout));
        assert_eq!(count(&obs, "transport.retries"), 3);
        assert_eq!(count(&obs, "transport.retry_exhausted"), 1);

        let obs = obs::Registry::new();
        assert_eq!(guard(&obs, None, "put", FaultKind::Put, 1, 1), Ok(()));
        assert_eq!(count(&obs, "transport.retries"), 0);
        assert_eq!(count(&obs, "transport.retry_exhausted"), 0);
    }
}
