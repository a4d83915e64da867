//! The one in-process event queue.
//!
//! PreDatA moves in-transit data through a single event system, EVPath.
//! Here every hand-off between threads is an [`EventQueue`]: the
//! fabric's per-staging-rank request queues and per-compute-rank
//! completion queues, the DataSpaces query service's job queue, its
//! one-shot replies and its continuous-update queues, and the
//! benchmark harness's hand-off probe.
//!
//! [`EventQueue`] is a multi-producer **multi-consumer** queue, bounded
//! or not, built on a mutex + two condvars. Blocked producers park on
//! `not_full` and blocked consumers on `not_empty` — there is no
//! sleep-polling anywhere, so hand-off latency is bounded by the
//! scheduler, not by a spin interval.
//!
//! Waking costs a system call only when someone waits. The queue counts
//! its parked consumers and parked producers under its lock, and
//! notifies a condvar only when that count is not zero: a hand-off to a
//! consumer that is busy (or polls) is a lock and a push, and an
//! unbounded queue never notifies `not_full`. A producer that hands over
//! a run of events can enqueue them with [`EventQueue::submit_quiet`]
//! and [`EventQueue::wake`] once at the end; a consumer that takes an
//! event and leaves more behind passes the wake on to the next parked
//! consumer, so one wake drains a run into a pool of consumers too.
//! [`EventQueue::close`] tears the
//! queue down: parked producers fail fast with [`SubmitError::Closed`],
//! and consumers drain the remaining events before seeing
//! [`PollError::Closed`]. Owners that must tell the other side they are
//! gone (a dropped endpoint, subscriber or unanswered query) close their
//! queue on drop.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

/// Queue submission failures.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError<T> {
    /// Bounded queue is full (back-pressure).
    Full(T),
    /// The queue was closed.
    Closed(T),
}

/// Why a blocking receive returned without an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollError {
    /// The deadline passed with the queue still open.
    Timeout,
    /// The queue is closed and fully drained; no event will ever arrive.
    Closed,
}

struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// Consumers parked on `not_empty`, and producers on `not_full`
    /// (counted from before their park to after it).
    parked_consumers: usize,
    parked_producers: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    /// `usize::MAX` when unbounded.
    cap: usize,
}

/// Typed MPMC event queue connecting threads inside a staging node.
/// Bounded queues provide back-pressure so a fast producer cannot overrun
/// slow consumers (the streaming-memory constraint); multiple consumers
/// let a worker pool — the query service's — pull from one queue.
pub struct EventQueue<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for EventQueue<T> {
    fn clone(&self) -> Self {
        EventQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> EventQueue<T> {
    /// Unbounded queue.
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// Bounded queue of capacity `cap`.
    pub fn bounded(cap: usize) -> Self {
        EventQueue {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner {
                    queue: VecDeque::new(),
                    closed: false,
                    parked_consumers: 0,
                    parked_producers: 0,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                cap,
            }),
        }
    }

    /// Blocking submit (parks while bounded and full), waking a parked
    /// consumer if there is one: [`submit_quiet`](Self::submit_quiet)
    /// then [`wake`](Self::wake), under one lock. Submitting to a closed
    /// queue is a no-op, mirroring EVPath's torn-down graphs.
    pub fn submit(&self, ev: T) {
        let _ = self.send(ev);
    }

    /// Blocking submit that reports teardown: parks while the queue is
    /// full, returns `Err(Closed)` if the queue is (or becomes) closed.
    pub(crate) fn send(&self, ev: T) -> Result<(), SubmitError<T>> {
        if self.enqueue(ev)? {
            self.shared.not_empty.notify_one();
        }
        Ok(())
    }

    /// [`submit`](Self::submit) without the wake: the event is queued,
    /// and a consumer that polls sees it at once, but a parked consumer
    /// sleeps on until the producer's [`wake`](Self::wake) (or a later
    /// `submit`, or [`close`](Self::close)).
    pub fn submit_quiet(&self, ev: T) {
        let _ = self.enqueue(ev);
    }

    /// Wake one parked consumer, if there is one. The consumer that
    /// wakes passes the wake on while it leaves events behind (module
    /// docs), so one `wake` after a run of quiet submits drains them all.
    pub fn wake(&self) {
        if self.shared.inner.lock().parked_consumers > 0 {
            self.shared.not_empty.notify_one();
        }
    }

    /// The one enqueue: park while bounded and full, then push. Returns
    /// whether a consumer is parked, for the caller to wake.
    fn enqueue(&self, ev: T) -> Result<bool, SubmitError<T>> {
        let cap = self.shared.cap;
        let mut inner = self.shared.inner.lock();
        if !inner.closed && inner.queue.len() >= cap {
            // A run of quiet submits that fills the queue wakes a
            // consumer before it parks: nobody else would make room.
            if inner.parked_consumers > 0 {
                self.shared.not_empty.notify_one();
            }
            inner.parked_producers += 1;
            self.shared
                .not_full
                .wait_while(&mut inner, |i| !i.closed && i.queue.len() >= cap);
            inner.parked_producers -= 1;
        }
        if inner.closed {
            return Err(SubmitError::Closed(ev));
        }
        inner.queue.push_back(ev);
        Ok(inner.parked_consumers > 0)
    }

    /// Non-blocking submit.
    pub fn try_submit(&self, ev: T) -> Result<(), SubmitError<T>> {
        let mut inner = self.shared.inner.lock();
        if inner.closed {
            return Err(SubmitError::Closed(ev));
        }
        if inner.queue.len() >= self.shared.cap {
            return Err(SubmitError::Full(ev));
        }
        inner.queue.push_back(ev);
        let parked = inner.parked_consumers > 0;
        drop(inner);
        if parked {
            self.shared.not_empty.notify_one();
        }
        Ok(())
    }

    /// Blocking receive with deadline, distinguishing timeout from
    /// teardown. A closed queue is drained before `Closed` is reported.
    /// `Duration::MAX` waits without a deadline.
    pub fn recv(&self, timeout: Duration) -> Result<T, PollError> {
        let mut inner = self.shared.inner.lock();
        if inner.queue.is_empty() && !inner.closed {
            inner.parked_consumers += 1;
            self.shared.not_empty.wait_while_for(
                &mut inner,
                |i| i.queue.is_empty() && !i.closed,
                timeout,
            );
            inner.parked_consumers -= 1;
        }
        let closed = inner.closed;
        match self.pop(inner) {
            Some(ev) => Ok(ev),
            None if closed => Err(PollError::Closed),
            None => Err(PollError::Timeout),
        }
    }

    pub fn try_poll(&self) -> Option<T> {
        self.pop(self.shared.inner.lock())
    }

    /// Take the front event and release the lock, then wake whoever the
    /// taking concerns: a parked producer (there is room now) and, while
    /// events are left behind, a parked consumer (the passed-on wake).
    fn pop(&self, mut inner: MutexGuard<'_, Inner<T>>) -> Option<T> {
        let ev = inner.queue.pop_front()?;
        let producer = inner.parked_producers > 0;
        let consumer = inner.parked_consumers > 0 && !inner.queue.is_empty();
        drop(inner);
        if producer {
            self.shared.not_full.notify_one();
        }
        if consumer {
            self.shared.not_empty.notify_one();
        }
        Some(ev)
    }

    /// Close the queue: parked producers fail with `Closed`, consumers
    /// drain what remains then see [`PollError::Closed`]. Idempotent.
    pub fn close(&self) {
        let mut inner = self.shared.inner.lock();
        inner.closed = true;
        drop(inner);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Consumers parked in [`recv`](Self::recv) right now.
    #[cfg(test)]
    pub(crate) fn parked_consumers(&self) -> usize {
        self.shared.inner.lock().parked_consumers
    }

    #[allow(clippy::len_without_is_empty)] // callers read a depth; none asks for emptiness
    pub fn len(&self) -> usize {
        self.shared.inner.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    #[test]
    fn queue_fifo() {
        let q = EventQueue::unbounded();
        q.submit(1);
        q.submit(2);
        assert_eq!(q.try_poll(), Some(1));
        assert_eq!(q.try_poll(), Some(2));
        assert_eq!(q.try_poll(), None);
    }

    #[test]
    fn bounded_backpressure() {
        let q = EventQueue::bounded(2);
        q.try_submit(1).unwrap();
        q.try_submit(2).unwrap();
        assert_eq!(q.try_submit(3), Err(SubmitError::Full(3)));
        assert_eq!(q.recv(Duration::from_millis(1)), Ok(1));
        q.try_submit(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn blocked_submit_parks_until_space() {
        let q = EventQueue::bounded(1);
        q.submit(1u64);
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.send(2).is_ok());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(q.recv(Duration::from_secs(1)), Ok(1));
        assert_eq!(q.recv(Duration::from_secs(1)), Ok(2));
        assert!(t.join().unwrap());
    }

    #[test]
    fn close_fails_parked_submitter() {
        let q = EventQueue::bounded(1);
        q.submit(1u64);
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.send(2));
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(t.join().unwrap(), Err(SubmitError::Closed(2)));
        // The queued event is still drainable, then Closed is reported.
        assert_eq!(q.recv(Duration::from_millis(1)), Ok(1));
        assert_eq!(q.recv(Duration::from_millis(1)), Err(PollError::Closed));
    }

    #[test]
    fn recv_distinguishes_timeout_from_close() {
        let q = EventQueue::<u8>::unbounded();
        assert_eq!(q.recv(Duration::from_millis(1)), Err(PollError::Timeout));
        q.close();
        assert_eq!(q.recv(Duration::from_millis(1)), Err(PollError::Closed));
        assert_eq!(q.try_submit(1), Err(SubmitError::Closed(1)));
    }

    #[test]
    fn close_wakes_parked_consumers() {
        let q = EventQueue::<u8>::unbounded();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.recv(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        // Far sooner than the 30 s deadline: close() woke the waiter.
        assert_eq!(t.join().unwrap(), Err(PollError::Closed));
    }

    /// `Duration::MAX` is no deadline (it used to overflow `Instant`):
    /// the consumer parks until an event, then until close.
    #[test]
    fn recv_without_deadline_parks_until_event_or_close() {
        let q = EventQueue::<u8>::unbounded();
        let q2 = q.clone();
        let t = std::thread::spawn(move || (q2.recv(Duration::MAX), q2.recv(Duration::MAX)));
        q.submit(7);
        q.close();
        assert_eq!(t.join().unwrap(), (Ok(7), Err(PollError::Closed)));
    }

    #[test]
    fn a_quiet_submit_waits_for_the_wake() {
        let q = EventQueue::<u64>::unbounded();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.recv(Duration::from_secs(30)));
        while q.parked_consumers() == 0 {
            std::thread::yield_now();
        }
        q.submit_quiet(7);
        q.submit_quiet(8);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.parked_consumers(), 1, "a quiet submit wakes nobody");
        assert!(!t.is_finished());
        let woken = Instant::now();
        q.wake();
        assert_eq!(t.join().unwrap(), Ok(7));
        assert!(
            woken.elapsed() < Duration::from_secs(10),
            "woken, not timed out"
        );
        // Nobody parked: a wake is a no-op, and a poller sees the rest.
        q.wake();
        assert_eq!(q.try_poll(), Some(8));
    }

    /// `recv` with a 20 s deadline, asserting that it did not sleep to
    /// that deadline (after which it may still find an event).
    fn woken_recv(q: &EventQueue<u64>) -> Result<u64, PollError> {
        let started = Instant::now();
        let got = q.recv(Duration::from_secs(20));
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "a consumer slept to its deadline"
        );
        got
    }

    /// Many producers (plain, quiet-run and non-blocking submits) into a
    /// small bounded queue, many consumers, then `close`: every event is
    /// delivered exactly once, and no consumer ever sleeps until its
    /// deadline — every park ends in a wake, including the parks of
    /// consumers that only a quiet run's one `wake`, the wake a taker
    /// passes on, or a quiet producer that found the queue full could
    /// end.
    #[test]
    fn mpmc_stress_delivers_each_event_once_and_never_times_out() {
        const PRODUCERS: u64 = 6;
        const PER_PRODUCER: u64 = 3000;
        for cap in [4, usize::MAX] {
            let q = if cap == usize::MAX {
                EventQueue::unbounded()
            } else {
                EventQueue::bounded(cap)
            };
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = q.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            match woken_recv(&q) {
                                Ok(v) => got.push(v),
                                Err(e) => return (got, e),
                            }
                        }
                    })
                })
                .collect();
            std::thread::scope(|s| {
                for p in 0..PRODUCERS {
                    let q = &q;
                    s.spawn(move || {
                        let ids = (0..PER_PRODUCER).map(|i| p * PER_PRODUCER + i);
                        let ids: Vec<u64> = ids.collect();
                        for run in ids.chunks(1 + p as usize * 3) {
                            match p % 3 {
                                0 => run.iter().for_each(|&v| q.submit(v)),
                                1 => {
                                    run.iter().for_each(|&v| q.submit_quiet(v));
                                    q.wake();
                                }
                                _ => {
                                    for &v in run {
                                        let mut v = v;
                                        while let Err(SubmitError::Full(back)) = q.try_submit(v) {
                                            v = back;
                                            std::thread::yield_now();
                                        }
                                    }
                                }
                            }
                        }
                    });
                }
            });
            q.close();
            let mut all = Vec::new();
            for t in consumers {
                let (got, end) = t.join().unwrap();
                assert_eq!(end, PollError::Closed, "cap {cap}");
                all.extend(got);
            }
            all.sort_unstable();
            let want: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
            assert!(all == want, "cap {cap}: each event exactly once");
            let inner = q.shared.inner.lock();
            assert_eq!((inner.parked_consumers, inner.parked_producers), (0, 0));
        }
        // One-shot consumers, all parked, and a quiet run of as many
        // events with one wake: each taker passes the wake on.
        let q = EventQueue::<u64>::unbounded();
        let takers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || woken_recv(&q))
            })
            .collect();
        while q.parked_consumers() < 4 {
            std::thread::yield_now();
        }
        (0..4).for_each(|v| q.submit_quiet(v));
        q.wake();
        let mut got: Vec<u64> = takers
            .into_iter()
            .map(|t| t.join().unwrap().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, [0, 1, 2, 3]);
    }

    #[test]
    fn multi_consumer_work_sharing() {
        let q = EventQueue::bounded(8);
        let consumed = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while let Ok(v) = q.recv(Duration::from_secs(5)) {
                        consumed.fetch_add(v, Ordering::SeqCst);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for v in 1..=100u64 {
            q.submit(v);
        }
        q.close();
        let per_worker: Vec<u64> = workers.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(per_worker.iter().sum::<u64>(), 100);
        assert_eq!(consumed.load(Ordering::SeqCst), 5050);
    }
}
