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
//! scheduler, not by a spin interval. [`EventQueue::close`] tears the
//! queue down: parked producers fail fast with [`SubmitError::Closed`],
//! and consumers drain the remaining events before seeing
//! [`PollError::Closed`]. Owners that must tell the other side they are
//! gone (a dropped endpoint, subscriber or unanswered query) close their
//! queue on drop.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: Option<usize>,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
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
        Self::with_capacity(None)
    }

    /// Bounded queue of capacity `cap`.
    pub fn bounded(cap: usize) -> Self {
        Self::with_capacity(Some(cap))
    }

    fn with_capacity(cap: Option<usize>) -> Self {
        EventQueue {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner {
                    queue: VecDeque::new(),
                    closed: false,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                cap,
            }),
        }
    }

    /// Blocking submit (parks while bounded and full). Submitting to a
    /// closed queue is a no-op, mirroring EVPath's torn-down graphs.
    pub fn submit(&self, ev: T) {
        let _ = self.send(ev);
    }

    /// Blocking submit that reports teardown: parks while the queue is
    /// full, returns `Err(Closed)` if the queue is (or becomes) closed.
    pub fn send(&self, ev: T) -> Result<(), SubmitError<T>> {
        let mut inner = self.shared.lock();
        loop {
            if inner.closed {
                return Err(SubmitError::Closed(ev));
            }
            match self.shared.cap {
                Some(cap) if inner.queue.len() >= cap => {
                    inner = self
                        .shared
                        .not_full
                        .wait(inner)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                _ => break,
            }
        }
        inner.queue.push_back(ev);
        drop(inner);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Non-blocking submit.
    pub fn try_submit(&self, ev: T) -> Result<(), SubmitError<T>> {
        let mut inner = self.shared.lock();
        if inner.closed {
            return Err(SubmitError::Closed(ev));
        }
        if let Some(cap) = self.shared.cap {
            if inner.queue.len() >= cap {
                return Err(SubmitError::Full(ev));
            }
        }
        inner.queue.push_back(ev);
        drop(inner);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Blocking receive with deadline, distinguishing timeout from
    /// teardown. A closed queue is drained before `Closed` is reported.
    /// `Duration::MAX` waits without a deadline.
    pub fn recv(&self, timeout: Duration) -> Result<T, PollError> {
        // `None`: a timeout too long to state as a deadline (such as
        // `Duration::MAX`) waits for an event or teardown alone.
        let deadline = Instant::now().checked_add(timeout);
        let mut inner = self.shared.lock();
        loop {
            if let Some(ev) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Ok(ev);
            }
            if inner.closed {
                return Err(PollError::Closed);
            }
            let Some(deadline) = deadline else {
                inner = self
                    .shared
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                return Err(PollError::Timeout);
            }
            let (g, _) = self
                .shared
                .not_empty
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = g;
        }
    }

    pub fn try_poll(&self) -> Option<T> {
        let mut inner = self.shared.lock();
        let ev = inner.queue.pop_front();
        drop(inner);
        if ev.is_some() {
            self.shared.not_full.notify_one();
        }
        ev
    }

    /// Close the queue: parked producers fail with `Closed`, consumers
    /// drain what remains then see [`PollError::Closed`]. Idempotent.
    pub fn close(&self) {
        let mut inner = self.shared.lock();
        inner.closed = true;
        drop(inner);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

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
