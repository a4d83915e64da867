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
//! `transport.retry_exhausted{op=…}`, so the acceptance bar "transient
//! faults absorbed" is checkable as `retries > 0 && retry_exhausted ==
//! 0` on the metrics snapshot.
//!
//! # Environment contract
//!
//! `PREDATA_RETRY` tunes the process-wide default policy, e.g.
//! `attempts=6,base_ms=2,max_ms=250,deadline_ms=30000`. `off` (or
//! `attempts=1`) disables retrying — every transient error is
//! immediately terminal, which restores the pre-retry behaviour.
//!
//! # Example
//!
//! ```
//! use transport::{RetryPolicy, TransportError};
//!
//! let policy = RetryPolicy::default().attempts(3);
//! let mut calls = 0;
//! // Fails twice with a retryable Timeout, then succeeds.
//! let out = policy.run("pull", 7, |attempt| {
//!     calls += 1;
//!     if attempt < 2 { Err(TransportError::Timeout) } else { Ok(attempt) }
//! });
//! assert_eq!(out, Ok(2));
//! assert_eq!(calls, 3);
//!
//! // Non-retryable errors surface immediately.
//! let out: Result<(), _> = policy.run("pull", 7, |_| Err(TransportError::Disconnected));
//! assert_eq!(out, Err(TransportError::Disconnected));
//! ```

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use obs::spec::Spec;

use crate::fabric::TransportError;
use crate::fault::{splitmix64, FaultKind, FaultPlan};

/// Exponential-backoff retry policy with a deadline budget. See the
/// [module docs](self) for the `PREDATA_RETRY` grammar.
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

    /// Parse a `PREDATA_RETRY` spec. `Ok(None)` means "use the default
    /// policy" (empty spec); `off`/`0` yields a no-retry policy.
    pub fn parse(spec: &str) -> Result<Option<RetryPolicy>, String> {
        let mut policy = RetryPolicy::default();
        let fields = match obs::spec::parse("retry", spec)? {
            Spec::Unset => return Ok(None),
            Spec::Off => return Ok(Some(policy.attempts(1))),
            Spec::Fields(fields) => fields,
        };
        for f in &fields {
            match f.key {
                "attempts" => policy.max_attempts = f.num()?,
                "base_ms" => policy.base_backoff = Duration::from_millis(f.num()?),
                "max_ms" => policy.max_backoff = Duration::from_millis(f.num()?),
                "deadline_ms" => policy.deadline = Duration::from_millis(f.num()?),
                _ => return Err(f.unknown()),
            }
        }
        policy.max_attempts = policy.max_attempts.max(1);
        Ok(Some(policy))
    }

    /// The process-wide policy from `PREDATA_RETRY`, read once.
    /// Malformed specs abort loudly.
    pub fn from_env() -> RetryPolicy {
        static POLICY: OnceLock<RetryPolicy> = OnceLock::new();
        POLICY
            .get_or_init(|| {
                obs::spec::from_env("PREDATA_RETRY", RetryPolicy::parse).unwrap_or_default()
            })
            .clone()
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
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
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
    /// at operation `kind` keyed `(a, b)` ([`FaultPlan::inject`]) and
    /// absorb its transient faults under this policy, counted under
    /// `op`. `Ok` means go ahead; `Err` is the fault that outlasted the
    /// retries. Without a plan there is nothing to absorb: `Ok`, and no
    /// counter moves.
    pub fn guard(
        &self,
        plan: Option<&FaultPlan>,
        op: &'static str,
        kind: FaultKind,
        a: u64,
        b: u64,
    ) -> Result<(), TransportError> {
        let Some(plan) = plan else {
            return Ok(());
        };
        self.run(op, (a << 32) ^ b, |_| {
            plan.inject(kind, a, b).map_or(Ok(()), Err)
        })
    }

    /// Run `f` under this policy. `f` gets the 0-based attempt index;
    /// retryable errors are re-attempted after [`backoff`](Self::backoff)
    /// until attempts or the deadline budget run out. Each re-attempt
    /// increments `transport.retries{op}`; giving up on a retryable
    /// error increments `transport.retry_exhausted{op}` — callers
    /// translate that into the degradation ladder.
    pub fn run<T>(
        &self,
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
                        obs::global()
                            .counter("transport.retry_exhausted", &[("op", op)])
                            .inc();
                        return Err(e);
                    }
                    obs::global()
                        .counter("transport.retries", &[("op", op)])
                        .inc();
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
    fn parse_grammar_and_off() {
        let p = RetryPolicy::parse("attempts=6, base_ms=2, max_ms=250, deadline_ms=30000")
            .unwrap()
            .unwrap();
        assert_eq!(p.max_attempts(), 6);
        assert_eq!(p.base_backoff, Duration::from_millis(2));
        assert_eq!(p.max_backoff, Duration::from_millis(250));
        assert_eq!(p.step_deadline(), Duration::from_secs(30));

        assert_eq!(
            RetryPolicy::parse("off").unwrap().unwrap().max_attempts(),
            1
        );
        assert!(RetryPolicy::parse("").unwrap().is_none());
        assert!(RetryPolicy::parse("attempts=x").is_err());
        assert!(RetryPolicy::parse("frob=1").is_err());
    }

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
        let out: Result<(), _> = p.run("test_exhaust", 1, |_| {
            calls += 1;
            Err(TransportError::Timeout)
        });
        assert_eq!(out, Err(TransportError::Timeout));
        assert_eq!(calls, 3);
    }

    /// `guard` is injection and retry composed: a transient schedule
    /// costs one retry, a hard one exhausts with the injected error, and
    /// no plan is no work. Each case counts under an `op` of its own.
    #[test]
    fn guard_absorbs_a_transient_fault_and_exhausts_on_a_hard_one() {
        let p = RetryPolicy::default()
            .attempts(3)
            .base_backoff(Duration::from_micros(10));
        let count = |name, op| obs::global().counter(name, &[("op", op)]).get();
        let plan = |spec| FaultPlan::parse(spec).unwrap();

        let transient = plan("drop=1,max_injections=1");
        let out = p.guard(transient.as_ref(), "guard_transient", FaultKind::Put, 4, 1);
        assert_eq!(out, Ok(()));
        assert_eq!(count("transport.retries", "guard_transient"), 1);
        assert_eq!(count("transport.retry_exhausted", "guard_transient"), 0);

        let hard = plan("drop=1");
        let out = p.guard(hard.as_ref(), "guard_hard", FaultKind::Collective, 0, 7);
        assert_eq!(out, Err(TransportError::Timeout));
        assert_eq!(count("transport.retries", "guard_hard"), 2);
        assert_eq!(count("transport.retry_exhausted", "guard_hard"), 1);

        assert_eq!(p.guard(None, "guard_none", FaultKind::Query, 1, 1), Ok(()));
        assert_eq!(count("transport.retries", "guard_none"), 0);
        assert_eq!(count("transport.retry_exhausted", "guard_none"), 0);
    }

    #[test]
    fn deadline_budget_cuts_attempts_short() {
        let p = RetryPolicy::default()
            .attempts(1000)
            .base_backoff(Duration::from_millis(5))
            .max_backoff(Duration::from_millis(5))
            .deadline(Duration::from_millis(20));
        let started = Instant::now();
        let out: Result<(), _> = p.run("test_deadline", 1, |_| Err(TransportError::Timeout));
        assert_eq!(out, Err(TransportError::Timeout));
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "deadline bounded the loop well under 1000 × 5 ms"
        );
    }
}
