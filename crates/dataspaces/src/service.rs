//! The query service: a concurrent front-end over [`DataSpaces`].
//!
//! The paper's querying application runs on its own cores and fires
//! range/reduction/continuous queries at the staged index while the next
//! dump is still being staged. This module is that front-end: queries
//! are admitted as jobs into a bounded [`EventQueue`] (back-pressure),
//! served by a fixed worker pool, and each carries a per-query deadline
//! ([`QueryServiceConfig`] sizes all three).
//!
//! # Sessions
//!
//! A query binds to its dump version *at admission to execution*: the
//! worker opens a [`Session`](crate::Session) (a committed snapshot
//! pinned by `Arc`s), so concurrent commits and `evict_before` calls
//! never corrupt an in-flight scan. The worker that dequeues a query serves it whole —
//! one scan into one answer buffer, or one fold — so the pool's
//! parallelism is across queries, and an answer is a pure function of
//! (query, committed data): the same bytes at any worker count.
//!
//! # Continuous queries
//!
//! [`QueryService::subscribe_reduce`] registers a commit-level
//! continuous query: every commit of the variable re-evaluates the
//! reduction over the subscribed region on that commit's snapshot and
//! delivers a [`ContinuousUpdate`] through a *bounded* per-subscriber
//! queue — a slow subscriber loses updates (counted in
//! `dataspaces.continuous_dropped`), it never stalls the pool. It is the
//! space's one continuous query. Every hand-off here — jobs, replies,
//! updates — is a [`transport::evq::EventQueue`].
//!
//! # Resilience
//!
//! The service is a boundary of the staged read path, so it honours the
//! fault plan of the space it serves ([`DataSpaces::fault_plan`], set by
//! [`DataSpaces::with_faults`]): each query passes
//! [`retry::guard`](transport::retry::guard) as a
//! [`FaultKind::Query`] before it touches the space — transient faults
//! are absorbed by retries (counted in
//! `transport.retries{op=query}`), exhaustion surfaces as
//! [`DsError::Faulted`] (counted in `transport.retry_exhausted`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bpio::DataArray;
use parking_lot::Mutex;
use transport::evq::{EventQueue, PollError, SubmitError};
use transport::{retry, FaultKind};

use crate::domain::Region;
use crate::error::DsError;
use crate::space::{DataSpaces, Reduction};

/// Query-service tuning, set by whoever builds the service.
#[derive(Debug, Clone)]
pub struct QueryServiceConfig {
    /// Worker threads serving queries.
    pub workers: usize,
    /// Admission-queue capacity; a full queue rejects with
    /// [`DsError::QueueFull`].
    pub queue_cap: usize,
    /// Deadline for queries submitted without an explicit one.
    pub default_deadline: Duration,
}

impl Default for QueryServiceConfig {
    fn default() -> Self {
        QueryServiceConfig {
            workers: 4,
            queue_cap: 256,
            default_deadline: Duration::from_secs(10),
        }
    }
}

/// What a query computes over its region.
#[derive(Debug, Clone)]
pub enum QueryKind {
    /// Retrieve the region's data (paper: geometric range query).
    Range(Region),
    /// Aggregate the region (paper: min/max/sum/count/average).
    Reduce(Region, Reduction),
}

/// A completed query's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    Data(DataArray),
    Value(f64),
}

impl QueryOutput {
    /// The data of a range query (panics on a reduction result).
    pub fn into_data(self) -> DataArray {
        match self {
            QueryOutput::Data(d) => d,
            QueryOutput::Value(v) => panic!("reduction result {v} is not data"),
        }
    }

    /// The value of a reduction query (panics on a range result).
    pub fn value(&self) -> f64 {
        match self {
            QueryOutput::Value(v) => *v,
            QueryOutput::Data(_) => panic!("range result is not a value"),
        }
    }
}

/// A served query: its payload plus how long it queued and executed.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    pub output: QueryOutput,
    /// Admission-to-execution queue wait.
    pub waited: Duration,
    /// Execution time (session + scan + merge).
    pub exec: Duration,
}

type Answer = Result<QueryResponse, DsError>;

/// Claim check for an admitted query.
pub struct QueryTicket {
    id: u64,
    reply: EventQueue<Answer>,
}

impl QueryTicket {
    /// Block until the query completes, up to `timeout`
    /// (`Duration::MAX`: no limit). A query dropped unanswered — its
    /// worker panicked — fails with [`DsError::ServiceClosed`].
    pub fn wait(self, timeout: Duration) -> Result<QueryResponse, DsError> {
        match self.reply.recv(timeout) {
            Ok(r) => r,
            Err(PollError::Timeout) => Err(DsError::DeadlineMissed { query: self.id }),
            Err(PollError::Closed) => Err(DsError::ServiceClosed),
        }
    }
}

/// One delivery of a continuous query: the reduction re-evaluated on a
/// freshly committed version.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousUpdate {
    pub var: String,
    pub version: u64,
    pub value: f64,
}

/// A continuous query's subscriber end. Dropping it closes its queue,
/// which unsubscribes: the service prunes the subscription on its next
/// delivery attempt.
pub struct ContinuousHandle {
    updates: EventQueue<ContinuousUpdate>,
}

impl ContinuousHandle {
    /// Next update, up to `timeout` (`Duration::MAX`: no limit). `None`
    /// on timeout or once the service is gone.
    pub fn recv(&self, timeout: Duration) -> Option<ContinuousUpdate> {
        self.updates.recv(timeout).ok()
    }

    /// Next update if one is already buffered.
    pub fn try_recv(&self) -> Option<ContinuousUpdate> {
        self.updates.try_poll()
    }
}

impl Drop for ContinuousHandle {
    fn drop(&mut self) {
        self.updates.close();
    }
}

/// A query's reply end, held by its job. Dropping it closes the reply
/// queue, so a job lost unanswered (a worker panic) wakes its ticket.
struct Reply(EventQueue<Answer>);

impl Drop for Reply {
    fn drop(&mut self) {
        self.0.close();
    }
}

struct QueryJob {
    id: u64,
    var: String,
    version: u64,
    kind: QueryKind,
    admitted: Instant,
    deadline: Instant,
    reply: Reply,
}

enum Job {
    Query(QueryJob),
    /// Re-evaluate continuous subscriptions of `var` against a fresh
    /// commit.
    Continuous {
        var: String,
        version: u64,
    },
}

struct ContinuousSub {
    var: String,
    region: Region,
    how: Reduction,
    updates: EventQueue<ContinuousUpdate>,
}

/// A subscription dropped by the service going away closes its queue,
/// so a subscriber parked in [`ContinuousHandle::recv`] wakes.
impl Drop for ContinuousSub {
    fn drop(&mut self) {
        self.updates.close();
    }
}

struct Inner {
    space: Arc<DataSpaces>,
    cfg: QueryServiceConfig,
    jobs: EventQueue<Job>,
    next_id: AtomicU64,
    subs: Mutex<Vec<ContinuousSub>>,
    deadline_missed: obs::Counter,
    delivered: obs::Counter,
    dropped: obs::Counter,
}

/// The concurrent query front-end: a bounded admission queue served by
/// a worker pool, each query served whole on one session.
pub struct QueryService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl QueryService {
    /// Spawn the worker pool and hook commit notifications for
    /// continuous queries. The service holds the space alive; dropping
    /// the service shuts the pool down (in-flight queries finish).
    ///
    /// The service records into its space's registry
    /// (`DataSpaces::obs`).
    pub fn new(space: Arc<DataSpaces>, cfg: QueryServiceConfig) -> QueryService {
        let reg = space.obs();
        let inner = Arc::new(Inner {
            jobs: EventQueue::bounded(cfg.queue_cap),
            next_id: AtomicU64::new(0),
            subs: Mutex::new(Vec::new()),
            deadline_missed: reg.counter("dataspaces.query_deadline_missed", &[]),
            delivered: reg.counter("dataspaces.continuous_delivered", &[]),
            dropped: reg.counter("dataspaces.continuous_dropped", &[]),
            space: Arc::clone(&space),
            cfg,
        });

        // Continuous queries ride the space's commit hook. Weak: once
        // the service drops, commits stop enqueueing (the hook itself
        // cannot be unregistered).
        let weak: Weak<Inner> = Arc::downgrade(&inner);
        space.on_commit(Box::new(move |var, version| {
            if let Some(inner) = weak.upgrade() {
                if inner.subs.lock().iter().any(|s| s.var == var) {
                    // Never park the committing thread: a full queue
                    // costs this commit its continuous evaluation (the
                    // next commit re-evaluates anyway).
                    let _ = inner.jobs.try_submit(Job::Continuous {
                        var: var.to_string(),
                        version,
                    });
                }
            }
        }));

        let workers = (0..inner.cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ds-query-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn query worker")
            })
            .collect();
        QueryService {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Admit a query with the configured default deadline.
    pub fn submit(&self, var: &str, version: u64, kind: QueryKind) -> Result<QueryTicket, DsError> {
        self.submit_with_deadline(var, version, kind, self.inner.cfg.default_deadline)
    }

    /// Admit a query that must finish within `deadline` of admission;
    /// overdue execution fails with [`DsError::DeadlineMissed`]. A full
    /// admission queue rejects immediately with [`DsError::QueueFull`]
    /// (the caller's back-pressure signal).
    pub fn submit_with_deadline(
        &self,
        var: &str,
        version: u64,
        kind: QueryKind,
        deadline: Duration,
    ) -> Result<QueryTicket, DsError> {
        let inner = &self.inner;
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let reply = EventQueue::bounded(1);
        let job = Job::Query(QueryJob {
            id,
            var: var.to_string(),
            version,
            kind,
            admitted: now,
            deadline: now + deadline,
            reply: Reply(reply.clone()),
        });
        match inner.jobs.try_submit(job) {
            Ok(()) => Ok(QueryTicket { id, reply }),
            Err(SubmitError::Full(_)) => Err(DsError::QueueFull),
            Err(SubmitError::Closed(_)) => Err(DsError::ServiceClosed),
        }
    }

    /// Submit and wait: the synchronous convenience wrapper.
    pub fn query(
        &self,
        var: &str,
        version: u64,
        kind: QueryKind,
    ) -> Result<QueryResponse, DsError> {
        let patience = self.inner.cfg.default_deadline + Duration::from_secs(5);
        self.submit(var, version, kind)?.wait(patience)
    }

    /// Register a continuous reduction query: every commit of `var`
    /// re-evaluates `how` over `region` on that commit's snapshot and
    /// delivers the value through a queue of `capacity` updates.
    /// Overflow drops the update (counted), never blocks the pool.
    pub fn subscribe_reduce(
        &self,
        var: &str,
        region: Region,
        how: Reduction,
        capacity: usize,
    ) -> ContinuousHandle {
        let updates = EventQueue::bounded(capacity.max(1));
        self.inner.subs.lock().push(ContinuousSub {
            var: var.to_string(),
            region,
            how,
            updates: updates.clone(),
        });
        ContinuousHandle { updates }
    }

    /// Drain and stop: close admission, let workers finish queued
    /// queries, join the pool. Idempotent.
    pub fn shutdown(&self) {
        self.inner.jobs.close();
        let mut workers = self.workers.lock();
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    // No deadline: a worker parks until a job or close.
    loop {
        match inner.jobs.recv(Duration::MAX) {
            Ok(Job::Query(job)) => serve(inner, job),
            Ok(Job::Continuous { var, version }) => serve_continuous(inner, &var, version),
            Err(PollError::Timeout) => continue,
            Err(PollError::Closed) => break,
        }
    }
}

fn serve(inner: &Arc<Inner>, job: QueryJob) {
    let waited = job.admitted.elapsed();
    let started = Instant::now();
    let result = execute(inner, &job);
    let exec = started.elapsed();
    match &result {
        Ok(_) => {
            let event = obs::Event::timed("ds.query", job.version, started, exec);
            inner.space.obs().record(event);
        }
        Err(DsError::DeadlineMissed { .. }) => inner.deadline_missed.inc(),
        Err(_) => {}
    }
    job.reply.0.submit(result.map(|output| QueryResponse {
        output,
        waited,
        exec,
    }));
}

fn execute(inner: &Arc<Inner>, job: &QueryJob) -> Result<QueryOutput, DsError> {
    if Instant::now() >= job.deadline {
        return Err(DsError::DeadlineMissed { query: job.id });
    }
    // Resilience boundary: consult the space's fault plan under the
    // retry rule before touching the space.
    let plan = inner.space.fault_plan();
    retry::guard(
        inner.space.obs(),
        plan,
        "query",
        FaultKind::Query,
        job.id,
        job.version,
    )
    .map_err(|cause| DsError::Faulted {
        query: job.id,
        cause,
    })?;
    let now = Instant::now();
    if now >= job.deadline {
        return Err(DsError::DeadlineMissed { query: job.id });
    }
    let session = inner
        .space
        .session(&job.var, job.version, job.deadline - now)?;
    match &job.kind {
        QueryKind::Range(region) => session.get(region).map(QueryOutput::Data),
        QueryKind::Reduce(region, how) => session.reduce(region, *how).map(QueryOutput::Value),
    }
}

fn serve_continuous(inner: &Arc<Inner>, var: &str, version: u64) {
    // The commit already happened; a missing session means the version
    // was evicted between enqueue and service — nothing to deliver.
    let Ok(session) = inner.space.session_now(var, version) else {
        return;
    };
    let mut subs = inner.subs.lock();
    subs.retain(|sub| {
        if sub.var != var {
            return true;
        }
        let Ok(value) = session.reduce(&sub.region, sub.how) else {
            return true;
        };
        match sub.updates.try_submit(ContinuousUpdate {
            var: var.to_string(),
            version,
            value,
        }) {
            Ok(()) => {
                inner.delivered.inc();
                true
            }
            Err(SubmitError::Full(_)) => {
                inner.dropped.inc();
                true
            }
            // Handle dropped: unsubscribe.
            Err(SubmitError::Closed(_)) => false,
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DsConfig;

    /// A space of its own, recording into a registry of its own.
    fn own_space(cfg: DsConfig) -> Arc<DataSpaces> {
        Arc::new(DataSpaces::with_faults(cfg, None, obs::Registry::new()))
    }

    fn staged_space() -> Arc<DataSpaces> {
        let ds = own_space(DsConfig::new(vec![64, 64], vec![16, 16], 4));
        let whole = Region::whole(&[64, 64]);
        let data: Vec<f64> = (0..64 * 64).map(|i| i as f64).collect();
        ds.put("field", 0, &whole, DataArray::F64(data)).unwrap();
        ds.commit("field", 0);
        ds
    }

    fn service(ds: &Arc<DataSpaces>, workers: usize) -> QueryService {
        QueryService::new(
            Arc::clone(ds),
            QueryServiceConfig {
                workers,
                ..QueryServiceConfig::default()
            },
        )
    }

    #[test]
    fn range_query_round_trips() {
        let ds = staged_space();
        let svc = service(&ds, 2);
        let q = Region::new(vec![10, 0], vec![30, 64]);
        let resp = svc.query("field", 0, QueryKind::Range(q.clone())).unwrap();
        let expected = ds.get("field", 0, &q, Duration::from_secs(1)).unwrap();
        assert_eq!(resp.output.into_data(), expected);
    }

    /// A served range answer counts in the space's stats as a direct
    /// get does; a reduction does not.
    #[test]
    fn served_range_answers_count_in_space_stats() {
        let ds = staged_space();
        let svc = service(&ds, 2);
        let got = |ds: &DataSpaces| {
            let stats = ds.stats();
            (
                stats.gets.load(Ordering::Relaxed),
                stats.bytes_got.load(Ordering::Relaxed),
            )
        };
        let q = Region::new(vec![10, 3], vec![30, 50]);
        svc.query("field", 0, QueryKind::Reduce(q.clone(), Reduction::Sum))
            .unwrap();
        assert_eq!(got(&ds), (0, 0));
        let answer = svc.query("field", 0, QueryKind::Range(q)).unwrap();
        let bytes = answer.output.into_data().byte_len() as u64;
        assert_eq!(bytes, 30 * 50 * 8);
        assert_eq!(got(&ds), (1, bytes));
    }

    /// `Duration::MAX` is no limit, not an `Instant` overflow.
    #[test]
    fn wait_without_a_limit_returns_the_answer() {
        let ds = staged_space();
        let svc = service(&ds, 1);
        let q = Region::new(vec![0, 0], vec![4, 4]);
        let ticket = svc
            .submit("field", 0, QueryKind::Reduce(q, Reduction::Count))
            .unwrap();
        assert_eq!(ticket.wait(Duration::MAX).unwrap().output.value(), 16.0);
    }

    /// A job dropped before it is answered (its worker panicked) closes
    /// the reply queue: the ticket fails instead of waiting forever.
    #[test]
    fn a_query_dropped_unanswered_closes_its_ticket() {
        let reply = EventQueue::bounded(1);
        let ticket = QueryTicket {
            id: 0,
            reply: reply.clone(),
        };
        drop(Reply(reply));
        assert_eq!(
            ticket.wait(Duration::from_secs(10)).unwrap_err(),
            DsError::ServiceClosed
        );
    }

    /// The backlog accessor: a drained queue reads zero.
    #[test]
    fn backlog_tracks_admission_queue() {
        let ds = staged_space();
        let svc = service(&ds, 2);
        let q = Region::new(vec![0, 0], vec![8, 8]);
        let ticket = svc.submit("field", 0, QueryKind::Range(q)).unwrap();
        ticket.wait(Duration::from_secs(5)).unwrap();
        svc.shutdown();
        assert_eq!(svc.inner.jobs.len(), 0, "served queue drains to zero");
    }

    #[test]
    fn fanned_results_match_inline_at_any_worker_count() {
        let ds = staged_space();
        let q = Region::new(vec![3, 5], vec![57, 50]);
        let inline = ds.get("field", 0, &q, Duration::from_secs(1)).unwrap();
        let inline_sum = ds
            .reduce("field", 0, &q, Reduction::Sum, Duration::from_secs(1))
            .unwrap();
        for workers in [1usize, 2, 7] {
            let svc = service(&ds, workers);
            let got = svc
                .query("field", 0, QueryKind::Range(q.clone()))
                .unwrap()
                .output
                .into_data();
            assert_eq!(got, inline, "range identical at {workers} workers");
            let sum = svc
                .query("field", 0, QueryKind::Reduce(q.clone(), Reduction::Sum))
                .unwrap()
                .output
                .value();
            assert_eq!(sum.to_bits(), inline_sum.to_bits(), "bit-identical sum");
        }
    }

    #[test]
    fn deadline_is_enforced() {
        let ds = staged_space();
        let svc = service(&ds, 1);
        let q = Region::new(vec![0, 0], vec![4, 4]);
        // A deadline already over at admission: the typed error names
        // the query and the space's counter moves.
        let missed = || {
            let snap = ds.obs().snapshot();
            snap.counter("dataspaces.query_deadline_missed", &[])
        };
        let ticket = svc
            .submit_with_deadline("field", 0, QueryKind::Range(q.clone()), Duration::ZERO)
            .unwrap();
        let id = ticket.id;
        assert_eq!(
            ticket.wait(Duration::from_secs(5)).unwrap_err(),
            DsError::DeadlineMissed { query: id }
        );
        assert_eq!(missed(), Some(1));
        // Version 9 is never committed: the query spends its deadline
        // waiting for the commit and fails with the version it waited
        // for, not a hang.
        let err = svc
            .submit_with_deadline("ghost", 9, QueryKind::Range(q), Duration::from_millis(200))
            .unwrap()
            .wait(Duration::from_secs(5))
            .unwrap_err();
        assert_eq!(
            err,
            DsError::VersionTimeout {
                var: "ghost".into(),
                version: 9
            }
        );
    }

    /// Only queries nobody serves yet hold admission slots: with the
    /// one worker busy, the queue admits exactly its capacity — and the
    /// one worker then serves them all.
    #[test]
    fn a_running_query_takes_no_admission_slot() {
        let ds = staged_space();
        let svc = QueryService::new(
            Arc::clone(&ds),
            QueryServiceConfig {
                workers: 1,
                queue_cap: 3,
                ..QueryServiceConfig::default()
            },
        );
        let whole = Region::whole(&[64, 64]);
        // Version 1 is not committed yet: the worker waits on it.
        let running = svc
            .submit(
                "field",
                1,
                QueryKind::Reduce(whole.clone(), Reduction::Count),
            )
            .unwrap();
        while svc.inner.jobs.len() > 0 {
            std::thread::yield_now();
        }
        let waiting: Vec<_> = (0..3)
            .map(|_| svc.submit("field", 0, QueryKind::Range(whole.clone())))
            .collect::<Result<_, _>>()
            .expect("an idle queue admits its capacity");
        assert_eq!(svc.inner.jobs.len(), 3);
        assert!(matches!(
            svc.submit("field", 0, QueryKind::Range(whole.clone())),
            Err(DsError::QueueFull)
        ));
        ds.commit("field", 1);
        assert_eq!(
            running.wait(Duration::from_secs(5)).unwrap().output.value(),
            0.0
        );
        let expected = ds.get("field", 0, &whole, Duration::from_secs(1)).unwrap();
        for ticket in waiting {
            let got = ticket.wait(Duration::from_secs(5)).unwrap();
            assert_eq!(got.output.into_data(), expected);
        }
    }

    #[test]
    fn continuous_subscription_fires_per_commit_and_drops_on_overflow() {
        let ds = Arc::new(DataSpaces::new(DsConfig::new(vec![16, 16], vec![4, 4], 2)));
        let svc = service(&ds, 1);
        let region = Region::whole(&[16, 16]);
        let sub = svc.subscribe_reduce("f", region.clone(), Reduction::Max, 1);
        for v in 0..3u64 {
            ds.put("f", v, &region, DataArray::F64(vec![v as f64; 256]))
                .unwrap();
            ds.commit("f", v);
        }
        // Capacity 1 with three commits: at least one update arrives and
        // carries a max consistent with its version.
        let first = sub.recv(Duration::from_secs(5)).expect("an update");
        assert_eq!(first.var, "f");
        assert_eq!(first.value, first.version as f64);
        drop(sub);
        // After the handle drops, a later commit prunes the subscription
        // rather than erroring. One worker serves jobs in admission
        // order, so the query answered after the commit proves the
        // commit's continuous job was served.
        ds.put("f", 9, &region, DataArray::F64(vec![0.0; 256]))
            .unwrap();
        ds.commit("f", 9);
        svc.query("f", 9, QueryKind::Reduce(region.clone(), Reduction::Count))
            .unwrap();
        assert!(svc.inner.subs.lock().is_empty());
        // The service going away wakes a parked subscriber.
        let other = svc.subscribe_reduce("f", region, Reduction::Max, 1);
        drop(svc);
        let parked = Instant::now();
        assert_eq!(other.recv(Duration::from_secs(30)), None);
        assert!(
            parked.elapsed() < Duration::from_secs(10),
            "woken by the close"
        );
    }

    #[test]
    fn queries_bind_to_their_version_across_eviction() {
        let ds = staged_space();
        let svc = service(&ds, 2);
        let whole = Region::whole(&[64, 64]);
        // Stage and commit a second version, then evict version 0 while
        // no query is running; a new query for v0 must fail cleanly...
        ds.put("field", 1, &whole, DataArray::F64(vec![1.0; 64 * 64]))
            .unwrap();
        ds.commit("field", 1);
        ds.evict_before("field", 1);
        // (an evicted version is "no longer committed", so the wait
        // burns the deadline rather than finding it)
        let err = svc
            .submit_with_deadline(
                "field",
                0,
                QueryKind::Range(whole.clone()),
                Duration::from_millis(50),
            )
            .unwrap()
            .wait(Duration::from_secs(5))
            .unwrap_err();
        assert!(
            matches!(
                err,
                DsError::VersionTimeout { .. } | DsError::NotCommitted { .. }
            ),
            "{err:?}"
        );
        // ...while v1 serves.
        let ok = svc.query("field", 1, QueryKind::Reduce(whole, Reduction::Min));
        assert_eq!(ok.unwrap().output.value(), 1.0);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let ds = staged_space();
        let svc = service(&ds, 1);
        svc.shutdown();
        let q = Region::new(vec![0, 0], vec![4, 4]);
        match svc.submit("field", 0, QueryKind::Range(q)) {
            Err(DsError::ServiceClosed) => {}
            Err(other) => panic!("expected ServiceClosed, got {other:?}"),
            Ok(_) => panic!("expected ServiceClosed, got an admitted ticket"),
        }
    }

    /// A dropped continuous-query handle unsubscribes: the next commit
    /// neither delivers to it nor counts a drop for it.
    #[test]
    fn a_dropped_handle_moves_no_continuous_counter() {
        let ds = own_space(DsConfig::new(vec![16, 16], vec![4, 4], 2));
        // `(continuous_delivered, continuous_dropped)`.
        let counts = || {
            let snap = ds.obs().snapshot();
            let read = |name| snap.counter(name, &[]).unwrap_or(0);
            (
                read("dataspaces.continuous_delivered"),
                read("dataspaces.continuous_dropped"),
            )
        };
        // One worker serves jobs in admission order: a query answered
        // after a commit proves that commit's continuous job was served.
        let svc = service(&ds, 1);
        let region = Region::whole(&[16, 16]);
        let commit = |v: u64| {
            ds.put("f", v, &region, DataArray::F64(vec![v as f64; 256]))
                .unwrap();
            ds.commit("f", v);
            svc.query("f", v, QueryKind::Reduce(region.clone(), Reduction::Count))
                .unwrap();
        };
        let sub = svc.subscribe_reduce("f", region.clone(), Reduction::Max, 1);
        commit(0);
        assert_eq!(counts(), (1, 0), "first update delivered");
        commit(1);
        assert_eq!(counts(), (1, 1), "unread queue full: dropped");
        assert_eq!(sub.recv(Duration::from_secs(5)).map(|u| u.version), Some(0));
        drop(sub);
        commit(2);
        assert_eq!(counts(), (1, 1), "the dropped handle is pruned");
    }
}
