//! Pull-scheduling policies.
//!
//! The paper: "Data is extracted … via the scheduled, asynchronous RDMA
//! operations. … Carefully scheduling such RDMA operations eliminates the
//! potential interference between communications performed by the
//! simulation vs. those used for output." A policy decides, each time a
//! staging node is ready to issue pulls, *which* pending requests to pull
//! now and which to defer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::request::FetchRequest;

#[derive(Debug, Default)]
struct SignalInner {
    busy: Mutex<bool>,
    idle: Condvar,
}

/// Shared flag the application (or the machine model) raises while the
/// simulation is inside communication-heavy phases (collectives). The
/// phase-aware policy defers bulk pulls while it is set; pullers park on
/// the internal condvar instead of polling, and are woken the moment the
/// application clears the flag.
#[derive(Debug, Clone, Default)]
pub struct CongestionSignal {
    inner: Arc<SignalInner>,
}

impl CongestionSignal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the network as busy with application traffic. Clearing the
    /// flag wakes every thread parked in `wait_until_idle`.
    pub fn set_busy(&self, busy: bool) {
        *self.inner.busy.lock() = busy;
        if !busy {
            self.inner.idle.notify_all();
        }
    }

    pub(crate) fn is_busy(&self) -> bool {
        *self.inner.busy.lock()
    }

    /// Park until the signal clears or `timeout` passes. Returns true if
    /// the network is idle on return.
    pub(crate) fn wait_until_idle(&self, timeout: Duration) -> bool {
        let mut busy = self.inner.busy.lock();
        !self
            .inner
            .idle
            .wait_while_for(&mut busy, |busy| *busy, timeout)
            .timed_out()
    }
}

/// Decides pull order and pacing for one staging node.
///
/// Each step the staging rank hands its gathered requests to [`order`]
/// once, then pulls them one at a time in that order on its own thread;
/// before each pull it calls [`wait_ready`] with the request it is about
/// to pull, and pulls only once the policy is willing (a policy that
/// stays unwilling past the rank's gather timeout fails the step with
/// `Timeout`). A policy is built without a fabric: the rank passes its
/// registry, and a policy that defers a pull counts it there, in
/// `transport.pull_deferrals{policy}`.
///
/// [`order`]: PullPolicy::order
/// [`wait_ready`]: PullPolicy::wait_ready
pub trait PullPolicy: Send + Sync {
    /// Reorder `pending` in place (front = next to pull).
    fn order(&mut self, pending: &mut Vec<FetchRequest>);

    /// Block until the policy is willing to pull `next`, or `timeout`
    /// passes. Returns true when ready; a policy that paces parks here —
    /// on a condvar ([`PhaseAwarePolicy`]), or for the refill time of
    /// `next`'s bytes ([`RateLimitedPolicy`]) — and one that does not is
    /// always ready.
    fn wait_ready(&self, _next: &FetchRequest, _timeout: Duration, _obs: &obs::Registry) -> bool {
        true
    }
}

/// Pull in arrival order.
#[derive(Debug, Clone, Default)]
pub struct FifoPolicy;

impl PullPolicy for FifoPolicy {
    fn order(&mut self, _pending: &mut Vec<FetchRequest>) {}
}

/// Pull the largest chunks first: finishes the bulk of the buffered bytes
/// on compute nodes earliest, minimizing their pinned-buffer residency.
#[derive(Debug, Clone, Default)]
pub struct LargestFirstPolicy;

impl PullPolicy for LargestFirstPolicy {
    fn order(&mut self, pending: &mut Vec<FetchRequest>) {
        pending.sort_by_key(|r| std::cmp::Reverse(r.chunk_bytes));
    }
}

/// FIFO, but defers pulls while the application holds the congestion
/// signal — the interference-avoidance scheduler of the paper.
#[derive(Debug, Clone)]
pub struct PhaseAwarePolicy {
    signal: CongestionSignal,
}

impl PhaseAwarePolicy {
    pub fn new(signal: CongestionSignal) -> Self {
        PhaseAwarePolicy { signal }
    }
}

impl PullPolicy for PhaseAwarePolicy {
    fn order(&mut self, _pending: &mut Vec<FetchRequest>) {}

    fn wait_ready(&self, _next: &FetchRequest, timeout: Duration, obs: &obs::Registry) -> bool {
        if self.signal.is_busy() {
            obs.counter("transport.pull_deferrals", &[("policy", "phase_aware")])
                .inc();
        }
        self.signal.wait_until_idle(timeout)
    }
}

/// Token-bucket throttle: bounds the average pull bandwidth so staged
/// output traffic stays under a configured share of the NIC even outside
/// collective windows (the coarse complement of [`PhaseAwarePolicy`]).
/// Every pull is charged its chunk's bytes.
#[derive(Debug)]
pub struct RateLimitedPolicy {
    /// Sustained budget, bytes per second.
    pub(crate) bytes_per_sec: f64,
    /// Burst capacity, bytes.
    pub(crate) burst: f64,
    /// Tokens (bytes) in the bucket, as of the instant beside them.
    tokens: Mutex<(f64, Instant)>,
}

impl RateLimitedPolicy {
    pub fn new(bytes_per_sec: f64, burst: f64) -> Self {
        assert!(bytes_per_sec > 0.0 && burst > 0.0);
        RateLimitedPolicy {
            bytes_per_sec,
            burst,
            tokens: Mutex::new((burst, Instant::now())),
        }
    }

    /// Try to spend `bytes` from the bucket; returns false (caller should
    /// defer) when the budget is exhausted.
    ///
    /// A request larger than the burst capacity is charged the full
    /// burst instead: the bucket can never hold more than `burst`, so
    /// demanding more would starve the caller forever. Draining the
    /// whole bucket keeps the long-run rate at the configured budget
    /// while letting oversized pulls through one refill apart.
    pub(crate) fn try_spend(&self, bytes: f64) -> bool {
        let bytes = bytes.min(self.burst);
        let mut guard = self.tokens.lock();
        let now = Instant::now();
        let refill = now.duration_since(guard.1).as_secs_f64() * self.bytes_per_sec;
        guard.0 = (guard.0 + refill).min(self.burst);
        guard.1 = now;
        if guard.0 >= bytes {
            guard.0 -= bytes;
            true
        } else {
            false
        }
    }
}

impl PullPolicy for RateLimitedPolicy {
    fn order(&mut self, _pending: &mut Vec<FetchRequest>) {}

    fn wait_ready(&self, next: &FetchRequest, timeout: Duration, obs: &obs::Registry) -> bool {
        let bytes = (next.chunk_bytes as f64).min(self.burst);
        if self.try_spend(bytes) {
            return true;
        }
        // Park once for exactly the refill time of the deficit — no
        // repeated polling at a fixed interval.
        let deficit = (bytes - self.tokens.lock().0).max(0.0);
        let parked = Duration::from_secs_f64(deficit / self.bytes_per_sec).min(timeout);
        std::thread::sleep(parked);
        obs.counter("transport.pull_deferrals", &[("policy", "rate_limited")])
            .inc();
        self.try_spend(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::MemHandle;
    use ffs::AttrList;

    fn req(bytes: usize) -> FetchRequest {
        FetchRequest {
            src_rank: 0,
            io_step: 0,
            handle: MemHandle::test_only(bytes as u64),
            chunk_bytes: bytes,
            format: 0,
            attrs: AttrList::new(),
        }
    }

    #[test]
    fn fifo_keeps_order() {
        let mut p = FifoPolicy;
        let mut q = vec![req(10), req(30), req(20)];
        p.order(&mut q);
        let sizes: Vec<_> = q.iter().map(|r| r.chunk_bytes).collect();
        assert_eq!(sizes, vec![10, 30, 20]);
        assert!(
            p.wait_ready(&q[0], Duration::ZERO, &obs::Registry::new()),
            "never paces"
        );
    }

    #[test]
    fn largest_first_sorts_descending() {
        let mut p = LargestFirstPolicy;
        let mut q = vec![req(10), req(30), req(20)];
        p.order(&mut q);
        let sizes: Vec<_> = q.iter().map(|r| r.chunk_bytes).collect();
        assert_eq!(sizes, vec![30, 20, 10]);
    }

    #[test]
    fn rate_limiter_enforces_long_run_rate() {
        // 1 MB/s budget with a 10 KB burst: spending 1 KB 10 times drains
        // the burst; afterwards spends succeed at ~the refill rate.
        let p = RateLimitedPolicy::new(1e6, 10e3);
        let mut granted = 0;
        for _ in 0..20 {
            if p.try_spend(1e3) {
                granted += 1;
            }
        }
        assert!(
            (9..=11).contains(&granted),
            "burst bounds initial grants: {granted}"
        );
        // After ~20 ms the bucket holds ~20 KB... capped at 10 KB burst.
        std::thread::sleep(std::time::Duration::from_millis(25));
        assert!(p.try_spend(9e3), "bucket refilled up to burst");
        assert!(!p.try_spend(9e3), "but not beyond it");
    }

    #[test]
    fn phase_aware_defers_while_busy() {
        let sig = CongestionSignal::new();
        let p = PhaseAwarePolicy::new(sig.clone());
        let obs = obs::Registry::new();
        let ready = || p.wait_ready(&req(1), Duration::ZERO, &obs);
        assert!(ready());
        sig.set_busy(true);
        assert!(!ready());
        sig.set_busy(false);
        assert!(ready());
        let deferrals = obs.counter("transport.pull_deferrals", &[("policy", "phase_aware")]);
        assert_eq!(deferrals.get(), 1, "counted in the caller's registry");
    }

    #[test]
    fn phase_aware_wait_ready_wakes_on_signal_clear() {
        let sig = CongestionSignal::new();
        sig.set_busy(true);
        let p = PhaseAwarePolicy::new(sig.clone());
        assert!(
            !p.wait_ready(&req(1), Duration::from_millis(2), &obs::Registry::new()),
            "still busy"
        );
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            sig.set_busy(false);
        });
        let start = Instant::now();
        // Far shorter than the 10 s budget: woken by the condvar, not by
        // the deadline.
        assert!(p.wait_ready(&req(1), Duration::from_secs(10), &obs::Registry::new()));
        assert!(start.elapsed() < Duration::from_secs(5));
        t.join().unwrap();
        // No deadline overflow: an idle signal answers at once.
        assert!(p.wait_ready(&req(1), Duration::MAX, &obs::Registry::new()));
    }

    #[test]
    fn rate_limiter_zero_byte_requests_always_pass() {
        let p = RateLimitedPolicy::new(1e6, 10e3);
        // Even with the bucket fully drained, a zero-byte request costs
        // nothing and must never be deferred.
        while p.try_spend(1e3) {}
        for _ in 0..100 {
            assert!(p.try_spend(0.0), "zero-byte spend deferred");
        }
    }

    #[test]
    fn rate_limiter_oversized_request_drains_burst_not_starves() {
        // A burst refills in 1 ms: long enough that the second spend below
        // finds the bucket still empty on a busy host.
        let p = RateLimitedPolicy::new(1e6, 1e3);
        // A single request larger than the whole burst capacity: charged
        // the full burst (the most the bucket can ever hold), not
        // deferred forever.
        assert!(p.try_spend(1e6), "oversized request starves");
        // The bucket is now empty — an immediate second oversized
        // request defers until refill.
        assert!(!p.try_spend(1e6));
        std::thread::sleep(Duration::from_millis(5));
        assert!(p.try_spend(1e6), "bucket refilled after one burst time");
    }

    #[test]
    fn rate_limiter_wait_ready_charges_an_oversized_chunk_the_burst() {
        // A 1 MiB chunk against a 1 KB burst: charged the burst (the
        // most the bucket can ever hold), so it comes back ready one
        // refill (0.1 ms) later, well within the timeout.
        let p = RateLimitedPolicy::new(1e7, 1e3);
        while p.try_spend(1e3) {}
        let start = Instant::now();
        assert!(
            p.wait_ready(&req(1 << 20), Duration::from_secs(5), &obs::Registry::new()),
            "wait_ready starved by a chunk larger than the burst"
        );
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn rate_limited_wait_ready_parks_for_the_chunks_refill() {
        let p = RateLimitedPolicy::new(1e6, 10e3);
        // Drain the burst: under 1 KB is left.
        while p.try_spend(1e3) {}
        // A 10 KB chunk is short at least 9 KB, which is 9 ms of refill:
        // wait_ready must park for the deficit, then succeed.
        let start = Instant::now();
        let obs = obs::Registry::new();
        assert!(p.wait_ready(&req(10_000), Duration::from_secs(1), &obs));
        assert!(start.elapsed() >= Duration::from_millis(5), "parked");
        let deferrals = obs.counter("transport.pull_deferrals", &[("policy", "rate_limited")]);
        assert_eq!(deferrals.get(), 1);
    }
}
