//! EVPath-flavoured typed event channels ("stones").
//!
//! PreDatA buffers and manipulates in-transit data with the EVPath event
//! system: events flow through a graph of *stones*, each applying a
//! filter/transform action or handing events to a terminal handler. This
//! module provides the small subset the staging runtime needs: a typed
//! [`EventQueue`] and composable [`Stone`] chains.
//!
//! [`EventQueue`] is a multi-producer **multi-consumer** bounded queue
//! built on a mutex + two condvars. Blocked producers park on `not_full`
//! and blocked consumers on `not_empty` — there is no sleep-polling
//! anywhere, so hand-off latency is bounded by the scheduler, not by a
//! spin interval. [`EventQueue::close`] tears the queue down: parked
//! producers fail fast with [`SubmitError::Closed`], and consumers drain
//! the remaining events before seeing [`PollError::Closed`]. That is the
//! shutdown/cancellation path of the staging worker pool.
//!
//! Stones run inline on the submitting thread (EVPath's default immediate
//! dispatch); queues decouple threads where the staging node's worker pool
//! needs it.

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
    /// Deepest the queue has ever been — the back-pressure/utilization
    /// signal the obs subsystem reports per pipeline queue. Updated under
    /// the lock every push, so it costs no extra synchronization.
    high_water: usize,
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

/// Typed MPMC event queue connecting pipeline threads inside a staging
/// node. Bounded queues provide back-pressure so a fast fetcher cannot
/// overrun slow operators (the streaming-memory constraint); multiple
/// consumers let a decode+map worker pool pull from one queue.
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
                    high_water: 0,
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
        inner.high_water = inner.high_water.max(inner.queue.len());
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
        inner.high_water = inner.high_water.max(inner.queue.len());
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

    /// Deepest this queue has ever been (its depth high-water mark).
    pub fn high_water(&self) -> usize {
        self.shared.lock().high_water
    }
}

/// One processing element: takes an event, optionally emits a transformed
/// event downstream.
type Action<T> = Box<dyn FnMut(T) -> Option<T> + Send>;

/// A linear chain of actions ending in a terminal handler — the common
/// stone topology in PreDatA's staging pipeline (decode → filter →
/// operate → output).
pub struct Stone<T> {
    actions: Vec<Action<T>>,
    terminal: Box<dyn FnMut(T) + Send>,
    processed: u64,
    dropped: u64,
}

impl<T> Stone<T> {
    /// Create a stone whose surviving events reach `terminal`.
    pub fn new(terminal: impl FnMut(T) + Send + 'static) -> Self {
        Stone {
            actions: Vec::new(),
            terminal: Box::new(terminal),
            processed: 0,
            dropped: 0,
        }
    }

    /// Append a filter: events for which `keep` is false are dropped.
    pub fn filter(mut self, mut keep: impl FnMut(&T) -> bool + Send + 'static) -> Self {
        self.actions
            .push(Box::new(move |ev| if keep(&ev) { Some(ev) } else { None }));
        self
    }

    /// Append a transform.
    pub fn transform(mut self, mut f: impl FnMut(T) -> T + Send + 'static) -> Self {
        self.actions.push(Box::new(move |ev| Some(f(ev))));
        self
    }

    /// Submit one event through the chain.
    pub fn submit(&mut self, ev: T) {
        let mut cur = Some(ev);
        for action in &mut self.actions {
            match cur.take() {
                Some(ev) => cur = action(ev),
                None => break,
            }
        }
        match cur {
            Some(ev) => {
                self.processed += 1;
                (self.terminal)(ev);
            }
            None => self.dropped += 1,
        }
    }

    /// (delivered, dropped) counts.
    pub fn counts(&self) -> (u64, u64) {
        (self.processed, self.dropped)
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
    fn high_water_tracks_deepest_fill() {
        let q = EventQueue::unbounded();
        assert_eq!(q.high_water(), 0);
        for v in 0..5 {
            q.submit(v);
        }
        while q.try_poll().is_some() {}
        // Draining never lowers the mark.
        q.submit(9);
        assert_eq!(q.high_water(), 5);
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

    #[test]
    fn stone_chain_filters_and_transforms() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let mut stone = Stone::new(move |v: u64| {
            seen2.fetch_add(v, Ordering::SeqCst);
        })
        .filter(|v| v % 2 == 0)
        .transform(|v| v * 10);
        for v in 0..6 {
            stone.submit(v);
        }
        // Evens 0,2,4 → ×10 → 0+20+40 = 60.
        assert_eq!(seen.load(Ordering::SeqCst), 60);
        assert_eq!(stone.counts(), (3, 3));
    }
}
