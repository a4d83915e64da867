//! The in-process fabric: memory registry, request queues, completions.
//!
//! Every exposure is a [`Gather`] the fabric owns from
//! [`ComputeEndpoint::expose_gather`] until its completion carries it
//! home (a whole buffer, [`ComputeEndpoint::expose`], is a gather of one
//! region). A pull ([`StagingEndpoint::rdma_get`]) takes the exposure
//! out of the registry, lands its bytes in a `Vec<u8>` the puller owns
//! and posts a completion to the exposer's queue with the gather, which
//! is dropped on the exposer's own thread when it consumes the
//! completion ([`ComputeEndpoint::wait_completion`],
//! [`ComputeEndpoint::poll_completions`]), so the memory is freed where
//! it was allocated, and the puller spends nothing on it. Each buffer
//! has one owner at a time: nothing is shared between exposer and
//! puller.
//!
//! A bare pull wakes a parked exposer at once. Inside a
//! [`StagingEndpoint::completion_batch`] the pull enqueues its
//! completion quietly — an exposer that polls sees it at once — and the
//! batch wakes each exposer it delivered to once, when it is dropped.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::evq::{EventQueue, PollError};
use crate::fault::{FaultKind, FaultPlan};
use crate::request::FetchRequest;

/// Opaque handle to memory exposed for one-sided access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemHandle(u64);

impl MemHandle {
    #[cfg(test)]
    pub(crate) fn test_only(v: u64) -> Self {
        MemHandle(v)
    }
}

/// Transport failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// `rdma_get` on a handle that was never exposed or already consumed.
    StaleHandle(MemHandle),
    /// Receive timed out.
    Timeout,
    /// The peer side has been dropped.
    Disconnected,
    /// Exposing this buffer would exceed the endpoint's pin budget.
    PinBudgetExceeded { requested: usize, available: usize },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::StaleHandle(h) => write!(f, "stale RDMA handle {h:?}"),
            TransportError::Timeout => write!(f, "transport receive timed out"),
            TransportError::Disconnected => write!(f, "peer endpoint dropped"),
            TransportError::PinBudgetExceeded {
                requested,
                available,
            } => {
                write!(
                    f,
                    "pin budget exceeded: need {requested} B, {available} B free"
                )
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// Whether this error is worth retrying: timeouts and stale handles
    /// are transient races (the exposure may land a beat later);
    /// disconnects and pin-budget refusals are not — retrying cannot
    /// make a dropped peer or an over-committed budget succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TransportError::Timeout | TransportError::StaleHandle(_)
        )
    }
}

/// Completion notice delivered to the exposing compute endpoint when a
/// staging node finishes pulling one of its chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionEvent {
    pub handle: MemHandle,
    pub bytes: usize,
    pub(crate) io_step: u64,
}

/// A completion on its way home: the event, and the gather the pull
/// landed, for the exposer to drop (module docs).
struct Completed {
    event: CompletionEvent,
    _gather: Box<dyn Gather>,
}

/// Fabric-wide counters.
#[derive(Debug, Default)]
pub struct FabricStats {
    rdma_gets: AtomicU64,
    bytes_pulled: AtomicU64,
    requests_sent: AtomicU64,
    /// High-water mark of simultaneously exposed (pinned) bytes across all
    /// compute endpoints — the paper's "moderate consequent costs for data
    /// buffering on compute nodes".
    peak_pinned_bytes: AtomicUsize,
}

impl FabricStats {
    pub fn rdma_gets(&self) -> u64 {
        self.rdma_gets.load(Ordering::Relaxed)
    }
    pub fn bytes_pulled(&self) -> u64 {
        self.bytes_pulled.load(Ordering::Relaxed)
    }
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent.load(Ordering::Relaxed)
    }
    pub fn peak_pinned_bytes(&self) -> usize {
        self.peak_pinned_bytes.load(Ordering::Relaxed)
    }

    fn note_pinned(&self, now: usize) {
        self.peak_pinned_bytes.fetch_max(now, Ordering::Relaxed);
    }
}

/// Exposed memory: regions that lie where their owner keeps them and,
/// read in order, are the exposed bytes. The exposer hands the fabric
/// the gather itself; a pull lands its regions in one buffer on the
/// puller's side, so the copy is the puller's, not the exposer's
/// ([`ComputeEndpoint::expose_gather`]), and the gather comes back with
/// the pull's completion (module docs).
pub trait Gather: Send {
    /// Total bytes: the sum of the regions' lengths.
    fn len(&self) -> usize;

    /// Whether there are no bytes at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Call `f` on every region, in order.
    fn regions(&self, f: &mut dyn FnMut(&[u8]));
}

/// A whole buffer is a gather of one region.
impl Gather for Arc<[u8]> {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn regions(&self, f: &mut dyn FnMut(&[u8])) {
        f(self)
    }
}

struct Registry {
    next: u64,
    exposed: HashMap<u64, (Box<dyn Gather>, u64)>, // handle -> (memory, io_step)
    pinned_bytes: usize,
}

struct FabricInner {
    registry: Mutex<Registry>,
    stats: FabricStats,
    /// Per-staging-rank request queues.
    requests: Vec<EventQueue<FetchRequest>>,
    /// Per-compute-rank completion queues.
    completions: Vec<EventQueue<Completed>>,
    /// Deterministic fault-injection schedule, if any
    /// ([`Fabric::with_faults`]).
    faults: Option<Arc<FaultPlan>>,
    /// The run's registry ([`Fabric::with_faults`]): every endpoint, and
    /// what is built from one, records into it.
    obs: obs::Registry,
    /// Its handles, resolved once here so the `rdma_get` hot path is a
    /// relaxed atomic add with no registry lookup.
    obs_get_ns: obs::Histogram,
    obs_get_bytes: obs::Counter,
}

/// Factory for matched endpoint sets.
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// Build a fabric connecting `n_compute` compute endpoints to
    /// `n_staging` staging endpoints. `pin_budget` bounds the bytes each
    /// compute endpoint may keep exposed at once (None = unlimited).
    /// No fault schedule is attached, and the fabric records into the
    /// [global registry](obs::global).
    pub fn new(
        n_compute: usize,
        n_staging: usize,
        pin_budget: Option<usize>,
    ) -> (Fabric, Vec<ComputeEndpoint>, Vec<StagingEndpoint>) {
        Fabric::with_faults(
            n_compute,
            n_staging,
            pin_budget,
            None,
            obs::global().clone(),
        )
    }

    /// [`Fabric::new`] with a fault schedule (`None` = run clean) and the
    /// registry the run records into. The one way a plan reaches pulls
    /// ([`StagingEndpoint::rdma_get`]) and pins
    /// ([`ComputeEndpoint::expose`]); and the one way a registry reaches the
    /// endpoints and what is built from them ([`ComputeEndpoint::obs`],
    /// [`StagingEndpoint::obs`]).
    pub fn with_faults(
        n_compute: usize,
        n_staging: usize,
        pin_budget: Option<usize>,
        faults: Option<Arc<FaultPlan>>,
        obs: obs::Registry,
    ) -> (Fabric, Vec<ComputeEndpoint>, Vec<StagingEndpoint>) {
        let requests: Vec<_> = (0..n_staging).map(|_| EventQueue::unbounded()).collect();
        let completions: Vec<_> = (0..n_compute).map(|_| EventQueue::unbounded()).collect();
        let inner = Arc::new(FabricInner {
            registry: Mutex::new(Registry {
                next: 1,
                exposed: HashMap::new(),
                pinned_bytes: 0,
            }),
            stats: FabricStats::default(),
            requests: requests.clone(),
            completions: completions.clone(),
            faults,
            obs_get_ns: obs.histogram("transport.rdma_get_ns", &[]),
            obs_get_bytes: obs.counter("transport.rdma_get_bytes", &[]),
            obs,
        });
        let computes = completions
            .into_iter()
            .enumerate()
            .map(|(rank, completions)| ComputeEndpoint {
                rank,
                inner: Arc::clone(&inner),
                completions,
                pin_budget,
                my_pinned: Arc::new(AtomicUsize::new(0)),
            })
            .collect();
        let stagings = requests
            .into_iter()
            .enumerate()
            .map(|(rank, requests)| StagingEndpoint {
                rank,
                inner: Arc::clone(&inner),
                requests,
                batch: Mutex::default(),
            })
            .collect();
        (Fabric { inner }, computes, stagings)
    }

    pub fn stats(&self) -> &FabricStats {
        &self.inner.stats
    }

    /// Bytes currently exposed (pinned) fabric-wide.
    pub fn pinned_bytes(&self) -> usize {
        self.inner.registry.lock().pinned_bytes
    }
}

/// Compute-node side of the fabric. Dropping it closes its completion
/// queue and drops the gathers of the completions it never consumed.
pub struct ComputeEndpoint {
    rank: usize,
    inner: Arc<FabricInner>,
    completions: EventQueue<Completed>,
    pin_budget: Option<usize>,
    my_pinned: Arc<AtomicUsize>,
}

impl Drop for ComputeEndpoint {
    fn drop(&mut self) {
        self.completions.close();
        while self.completions.try_poll().is_some() {}
    }
}

impl ComputeEndpoint {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The fabric's registry.
    pub fn obs(&self) -> &obs::Registry {
        &self.inner.obs
    }

    /// Bytes this endpoint currently has exposed.
    pub fn pinned_bytes(&self) -> usize {
        self.my_pinned.load(Ordering::Relaxed)
    }

    /// [`expose_gather`](Self::expose_gather) of a whole buffer, a
    /// gather of one region.
    pub fn expose(&self, buf: Arc<[u8]>, io_step: u64) -> Result<MemHandle, TransportError> {
        self.expose_gather(Box::new(buf), io_step)
    }

    /// Register a [`Gather`] for one-sided access and get its handle:
    /// its regions stay where they are, pinned, until a staging node
    /// pulls them, and the pull lands them in one buffer of the
    /// puller's. The registry owns the gather until then; the pull's
    /// completion brings it back, to be dropped on the thread that
    /// consumes the completion, and [`reclaim`](Self::reclaim) drops it
    /// on the caller's. A refused exposure (fault plan, pin budget)
    /// drops it here and pins nothing.
    pub fn expose_gather(
        &self,
        gather: Box<dyn Gather>,
        io_step: u64,
    ) -> Result<MemHandle, TransportError> {
        let len = gather.len();
        if let Some(plan) = &self.inner.faults {
            if plan.inject(&self.inner.obs, FaultKind::Pin, self.rank as u64, io_step) {
                return Err(TransportError::PinBudgetExceeded {
                    requested: len,
                    available: 0,
                });
            }
        }
        if let Some(budget) = self.pin_budget {
            let current = self.my_pinned.load(Ordering::Relaxed);
            if current + len > budget {
                return Err(TransportError::PinBudgetExceeded {
                    requested: len,
                    available: budget.saturating_sub(current),
                });
            }
        }
        let mut reg = self.inner.registry.lock();
        let h = reg.next;
        reg.next += 1;
        reg.exposed.insert(h, (gather, io_step));
        reg.pinned_bytes += len;
        let global_now = reg.pinned_bytes;
        drop(reg);
        self.my_pinned.fetch_add(len, Ordering::Relaxed);
        self.inner.stats.note_pinned(global_now);
        Ok(MemHandle(h))
    }

    /// Send a data-fetch request to staging endpoint `staging_rank`.
    pub fn send_request(
        &self,
        staging_rank: usize,
        req: FetchRequest,
    ) -> Result<(), TransportError> {
        self.inner
            .stats
            .requests_sent
            .fetch_add(1, Ordering::Relaxed);
        self.inner.requests[staging_rank]
            .send(req)
            .map_err(|_| TransportError::Disconnected)
    }

    /// Block until the next pull-completion for one of this endpoint's
    /// exposures. The exposure's gather is dropped here, on the caller's
    /// thread.
    pub fn wait_completion(&self, timeout: Duration) -> Result<CompletionEvent, TransportError> {
        let done = self.completions.recv(timeout).map_err(poll_error)?;
        Ok(self.consume(done))
    }

    /// Consume every already-arrived completion without blocking,
    /// dropping their gathers as [`wait_completion`](Self::wait_completion)
    /// does, and return how many there were.
    pub fn poll_completions(&self) -> usize {
        let mut n = 0;
        while let Some(done) = self.completions.try_poll() {
            self.consume(done);
            n += 1;
        }
        n
    }

    /// A consumed completion: its pin is released, and its gather goes.
    fn consume(&self, done: Completed) -> CompletionEvent {
        self.my_pinned
            .fetch_sub(done.event.bytes, Ordering::Relaxed);
        done.event
    }

    /// Withdraw an exposure that was never pulled, freeing its pinned
    /// bytes; returns the reclaimed size. `None` means the registry no
    /// longer holds the handle — the pull won the race, and the normal
    /// completion path will release the pin accounting instead. A client
    /// whose fetch request never left uses this to un-pin its dump.
    pub fn reclaim(&self, handle: MemHandle) -> Option<usize> {
        let mut reg = self.inner.registry.lock();
        let (mem, _step) = reg.exposed.remove(&handle.0)?;
        let len = mem.len();
        reg.pinned_bytes -= len;
        drop(reg);
        self.my_pinned.fetch_sub(len, Ordering::Relaxed);
        Some(len)
    }
}

/// Staging-node side of the fabric. Dropping it closes its request
/// queue: later [`ComputeEndpoint::send_request`]s to it fail with
/// [`TransportError::Disconnected`].
pub struct StagingEndpoint {
    rank: usize,
    inner: Arc<FabricInner>,
    requests: EventQueue<FetchRequest>,
    /// The open [`CompletionBatch`], if any.
    batch: Mutex<Batch>,
}

/// A staging endpoint's completion batch: whether one is open, and the
/// exposers its pulls have enqueued a completion to, not yet woken (kept
/// with its capacity from batch to batch).
#[derive(Default)]
struct Batch {
    open: bool,
    exposers: Vec<usize>,
}

/// The guard of [`StagingEndpoint::completion_batch`]: dropping it wakes
/// every exposer that a pull delivered a completion to while it lived,
/// once each — on a normal exit, an early error return and unwinding
/// alike.
pub struct CompletionBatch<'a> {
    endpoint: &'a StagingEndpoint,
}

impl Drop for CompletionBatch<'_> {
    fn drop(&mut self) {
        let mut batch = self.endpoint.batch.lock();
        batch.open = false;
        batch.exposers.sort_unstable();
        batch.exposers.dedup();
        for rank in batch.exposers.drain(..) {
            self.endpoint.inner.completions[rank].wake();
        }
    }
}

impl Drop for StagingEndpoint {
    fn drop(&mut self) {
        self.requests.close();
    }
}

impl StagingEndpoint {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The fabric's registry.
    pub fn obs(&self) -> &obs::Registry {
        &self.inner.obs
    }

    /// Open a completion batch: until the returned guard is dropped,
    /// [`rdma_get`](Self::rdma_get) enqueues each completion without
    /// waking its exposer, and the guard's drop wakes every exposer that
    /// got one, once. A staging rank holds one around its pull loop, so
    /// an exposer parked for its completions wakes once per loop, not
    /// once per chunk; one that polls sees each completion as soon as
    /// its pull ends. The batch is the endpoint's: a pull made on
    /// another thread while it is open joins it, and the first of two
    /// guards to drop ends it.
    pub fn completion_batch(&self) -> CompletionBatch<'_> {
        self.batch.lock().open = true;
        CompletionBatch { endpoint: self }
    }

    /// Block for the next fetch request, with a deadline.
    pub fn recv_request(&self, timeout: Duration) -> Result<FetchRequest, TransportError> {
        let r = self.requests.recv(timeout).map_err(poll_error)?;
        // The chunk's `request_received` transition, on this staging
        // rank: counted per step, these marks are the rank's gathered
        // backlog.
        obs::mark_in(&self.inner.obs, "request_received", r.io_step)
            .rank(self.rank)
            .chunk(r.src_rank as u64);
        Ok(r)
    }

    /// One-sided pull of an exposed chunk. Consumes the exposure (the
    /// compute side sees a completion and may reuse its memory) and
    /// returns its bytes, landed region by region in a buffer of the
    /// puller's own. The gather itself goes home with the completion
    /// (module docs), which wakes the exposer at once, or, inside a
    /// [`completion_batch`](Self::completion_batch), when the batch
    /// ends. If the exposer's endpoint is gone, the bytes still land
    /// (one-sided RDMA semantics) and the gather is dropped here.
    ///
    /// The fabric's fault plan, if any, is consulted first, keyed on the
    /// chunk `(src_rank, io_step)`: a `drop` fault fails the attempt
    /// with [`TransportError::Timeout`], then a `stale` fault with
    /// [`TransportError::StaleHandle`]. A faulted attempt leaves the
    /// exposure in place, times nothing and posts no completion, so a
    /// retry can succeed.
    pub fn rdma_get(&self, req: &FetchRequest) -> Result<Vec<u8>, TransportError> {
        if let Some(plan) = &self.inner.faults {
            let (obs, src, step) = (&self.inner.obs, req.src_rank as u64, req.io_step);
            if plan.inject(obs, FaultKind::Drop, src, step) {
                return Err(TransportError::Timeout);
            }
            if plan.inject(obs, FaultKind::Stale, src, step) {
                return Err(TransportError::StaleHandle(req.handle));
            }
        }
        let started = self.inner.obs.enabled().then(std::time::Instant::now);
        let (gather, io_step) = {
            let mut reg = self.inner.registry.lock();
            let entry = reg
                .exposed
                .remove(&handle_raw(req.handle))
                .ok_or(TransportError::StaleHandle(req.handle))?;
            reg.pinned_bytes -= entry.0.len();
            entry
        };
        let mut buf = Vec::with_capacity(gather.len());
        gather.regions(&mut |r| buf.extend_from_slice(r));
        debug_assert_eq!(
            buf.len(),
            gather.len(),
            "a gather's regions sum to its length"
        );
        let stats = &self.inner.stats;
        stats.rdma_gets.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = started {
            self.inner.obs_get_ns.record(t.elapsed().as_nanos() as u64);
        }
        stats
            .bytes_pulled
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.obs_get_bytes.add(buf.len() as u64);
        // The pull's event is the caller's: it knows the rank and times
        // the retries.
        let done = Completed {
            event: CompletionEvent {
                handle: req.handle,
                bytes: buf.len(),
                io_step,
            },
            _gather: gather,
        };
        let queue = &self.inner.completions[req.src_rank];
        let mut batch = self.batch.lock();
        if batch.open {
            queue.submit_quiet(done);
            batch.exposers.push(req.src_rank);
        } else {
            drop(batch);
            queue.submit(done);
        }
        Ok(buf)
    }

    /// [`rdma_get`](Self::rdma_get) of each request in turn, results in
    /// request order: a stale handle fails only its own slot.
    ///
    /// Nothing in this workspace calls it: the staging puller issues one
    /// `rdma_get` per chunk (DESIGN.md §3.4). It is kept only because
    /// the frozen `benchmark/` harness times it in its batched-pull
    /// probe (`benchmark/src/probes.rs`); the `benchmark` issue that
    /// retires that probe deletes this function with it.
    pub fn rdma_get_batch(&self, reqs: &[FetchRequest]) -> Vec<Result<Vec<u8>, TransportError>> {
        reqs.iter().map(|r| self.rdma_get(r)).collect()
    }
}

fn handle_raw(h: MemHandle) -> u64 {
    h.0
}

fn poll_error(e: PollError) -> TransportError {
    match e {
        PollError::Timeout => TransportError::Timeout,
        PollError::Closed => TransportError::Disconnected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs::AttrList;

    fn req(src: usize, handle: MemHandle, bytes: usize) -> FetchRequest {
        FetchRequest {
            src_rank: src,
            io_step: 0,
            handle,
            chunk_bytes: bytes,
            format: 0,
            attrs: AttrList::new(),
        }
    }

    #[test]
    fn expose_pull_complete_cycle() {
        let (fabric, computes, stagings) = Fabric::new(1, 1, None);
        let buf: Arc<[u8]> = vec![7u8; 1024].into();
        let h = computes[0].expose(Arc::clone(&buf), 5).unwrap();
        assert_eq!(computes[0].pinned_bytes(), 1024);
        assert_eq!(fabric.pinned_bytes(), 1024);

        let r = req(0, h, 1024);
        computes[0].send_request(0, r.clone()).unwrap();
        let got = stagings[0].recv_request(Duration::from_secs(1)).unwrap();
        assert_eq!(got.handle, h);

        let data = stagings[0].rdma_get(&got).unwrap();
        assert_eq!(&data[..], &buf[..]);
        assert_eq!(fabric.pinned_bytes(), 0);

        let ev = computes[0].wait_completion(Duration::from_secs(1)).unwrap();
        assert_eq!(
            ev,
            CompletionEvent {
                handle: h,
                bytes: 1024,
                io_step: 5
            }
        );
        assert_eq!(computes[0].pinned_bytes(), 0);

        assert_eq!(fabric.stats().rdma_gets(), 1);
        assert_eq!(fabric.stats().bytes_pulled(), 1024);
        assert_eq!(fabric.stats().requests_sent(), 1);
        assert_eq!(fabric.stats().peak_pinned_bytes(), 1024);
    }

    #[test]
    fn double_get_is_stale() {
        let (_f, computes, stagings) = Fabric::new(1, 1, None);
        let h = computes[0].expose(vec![0u8; 8].into(), 0).unwrap();
        let r = req(0, h, 8);
        stagings[0].rdma_get(&r).unwrap();
        assert_eq!(
            stagings[0].rdma_get(&r),
            Err(TransportError::StaleHandle(h))
        );
    }

    #[test]
    fn pin_budget_enforced_per_endpoint() {
        let (_f, computes, stagings) = Fabric::new(1, 1, Some(100));
        let h1 = computes[0].expose(vec![0u8; 60].into(), 0).unwrap();
        let err = computes[0].expose(vec![0u8; 60].into(), 0).unwrap_err();
        assert_eq!(
            err,
            TransportError::PinBudgetExceeded {
                requested: 60,
                available: 40
            }
        );
        // After the pull completes, budget frees up.
        stagings[0].rdma_get(&req(0, h1, 60)).unwrap();
        computes[0].wait_completion(Duration::from_secs(1)).unwrap();
        computes[0].expose(vec![0u8; 60].into(), 0).unwrap();
    }

    #[test]
    fn requests_fan_to_correct_staging_rank() {
        let (_f, computes, stagings) = Fabric::new(2, 2, None);
        let h0 = computes[0].expose(vec![1u8; 4].into(), 0).unwrap();
        let h1 = computes[1].expose(vec![2u8; 4].into(), 0).unwrap();
        computes[0].send_request(1, req(0, h0, 4)).unwrap();
        computes[1].send_request(0, req(1, h1, 4)).unwrap();
        let a = stagings[0].recv_request(Duration::from_secs(1)).unwrap();
        let b = stagings[1].recv_request(Duration::from_secs(1)).unwrap();
        assert_eq!(a.src_rank, 1);
        assert_eq!(b.src_rank, 0);
        assert_eq!(
            stagings[0].recv_request(Duration::ZERO).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn recv_request_times_out() {
        let (_f, _computes, stagings) = Fabric::new(1, 1, None);
        assert_eq!(
            stagings[0]
                .recv_request(Duration::from_millis(10))
                .unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn send_to_a_dropped_staging_endpoint_is_disconnected() {
        let (_f, computes, mut stagings) = Fabric::new(1, 2, None);
        let h = computes[0].expose(vec![0u8; 8].into(), 0).unwrap();
        drop(stagings.remove(0));
        assert_eq!(
            computes[0].send_request(0, req(0, h, 8)),
            Err(TransportError::Disconnected)
        );
        // The surviving staging rank still takes requests.
        computes[0].send_request(1, req(0, h, 8)).unwrap();
        assert_eq!(stagings[0].recv_request(Duration::ZERO).unwrap().handle, h);
    }

    #[test]
    fn reclaim_frees_pin_budget_without_a_pull() {
        let (fabric, computes, stagings) = Fabric::new(1, 1, Some(100));
        let h = computes[0].expose(vec![0u8; 60].into(), 0).unwrap();
        assert_eq!(computes[0].reclaim(h), Some(60));
        assert_eq!(computes[0].pinned_bytes(), 0);
        assert_eq!(fabric.pinned_bytes(), 0);
        // The exposure is gone: a racing pull sees a stale handle, and a
        // second reclaim is a no-op (no double-decrement).
        assert_eq!(
            stagings[0].rdma_get(&req(0, h, 60)),
            Err(TransportError::StaleHandle(h))
        );
        assert_eq!(computes[0].reclaim(h), None);
        // The freed budget is usable again.
        computes[0].expose(vec![0u8; 100].into(), 0).unwrap();
    }

    #[test]
    fn attached_fault_plan_faults_pulls_and_pins() {
        let plan = Arc::new(FaultPlan::new(3).pin_exhaustion(1.0));
        let obs = obs::Registry::new();
        let (_f, computes, _stagings) = Fabric::with_faults(1, 1, None, Some(plan), obs.clone());
        let err = computes[0].expose(vec![0u8; 32].into(), 0).unwrap_err();
        assert_eq!(
            err,
            TransportError::PinBudgetExceeded {
                requested: 32,
                available: 0
            }
        );
        let pins = obs
            .snapshot()
            .counter("transport.faults_injected", &[("kind", "pin")]);
        assert_eq!(pins, Some(1), "counted in the fabric's registry");

        // A pull fault fails the attempt in `rdma_get` itself and leaves
        // the exposure pinned and uncompleted; the next attempt pulls it.
        type Want = fn(MemHandle) -> TransportError;
        let faults: [(FaultPlan, &str, Want); 2] = [
            (FaultPlan::new(3).drop_chunks(1.0), "drop", |_| {
                TransportError::Timeout
            }),
            (
                FaultPlan::new(3).stale_handles(1.0),
                "stale",
                TransportError::StaleHandle,
            ),
        ];
        for (plan, kind, want) in faults {
            let obs = obs::Registry::new();
            let plan = Some(Arc::new(plan.max_injections(1)));
            let (fabric, computes, stagings) = Fabric::with_faults(1, 1, None, plan, obs.clone());
            let h = computes[0].expose(vec![5u8; 16].into(), 0).unwrap();
            assert_eq!(stagings[0].rdma_get(&req(0, h, 16)), Err(want(h)));
            assert_eq!(fabric.pinned_bytes(), 16, "{kind}: exposure kept");
            assert_eq!(fabric.stats().rdma_gets(), 0, "{kind}: nothing pulled");
            assert_eq!(computes[0].poll_completions(), 0, "{kind}");
            assert_eq!(
                &stagings[0].rdma_get(&req(0, h, 16)).unwrap()[..],
                &[5u8; 16]
            );
            assert_eq!(computes[0].poll_completions(), 1, "{kind}");
            let injected = obs
                .snapshot()
                .counter("transport.faults_injected", &[("kind", kind)]);
            assert_eq!(injected, Some(1), "{kind}");
        }
    }

    #[test]
    fn batched_pull_is_one_get_per_slot_with_per_slot_errors() {
        let (fabric, computes, stagings) = Fabric::new(1, 1, None);
        let first: Arc<[u8]> = vec![1u8; 16].into();
        let h1 = computes[0].expose(Arc::clone(&first), 3).unwrap();
        let h2 = computes[0].expose(vec![2u8; 32].into(), 3).unwrap();
        let stale = MemHandle::test_only(999);

        let reqs = [req(0, h1, 16), req(0, stale, 0), req(0, h2, 32)];
        let out = stagings[0].rdma_get_batch(&reqs);
        assert_eq!(out.len(), 3);
        let landed = out[0].as_ref().unwrap();
        assert_eq!(&landed[..], &first[..]);
        assert_ne!(
            landed.as_ptr(),
            first.as_ptr(),
            "a whole buffer lands as a copy"
        );
        assert_eq!(out[1], Err(TransportError::StaleHandle(stale)));
        assert_eq!(&out[2].as_ref().unwrap()[..], &[2u8; 32]);

        // One get per delivered slot; the stale slot moved nothing.
        assert_eq!(fabric.stats().rdma_gets(), 2);
        assert_eq!(fabric.stats().bytes_pulled(), 48);
        assert_eq!(fabric.pinned_bytes(), 0);

        // Both successful slots posted completions; the stale one did not.
        let a = computes[0].wait_completion(Duration::from_secs(1)).unwrap();
        let b = computes[0].wait_completion(Duration::from_secs(1)).unwrap();
        assert_eq!([a.handle, b.handle], [h1, h2]);
        assert!(computes[0]
            .wait_completion(Duration::from_millis(10))
            .is_err());
        assert!(stagings[0].rdma_get_batch(&[]).is_empty());
    }

    /// The threads that dropped a gather, in order.
    type Drops = Arc<Mutex<Vec<std::thread::ThreadId>>>;

    /// A gather of owned parts that records the thread that drops it.
    struct Parts(Vec<Vec<u8>>, Drops);

    impl Gather for Parts {
        fn len(&self) -> usize {
            self.0.iter().map(Vec::len).sum()
        }
        fn regions(&self, f: &mut dyn FnMut(&[u8])) {
            self.0.iter().for_each(|p| f(p));
        }
    }

    impl Drop for Parts {
        fn drop(&mut self) {
            self.1.lock().push(std::thread::current().id());
        }
    }

    fn parts(parts: &[&[u8]]) -> (Box<dyn Gather>, Drops) {
        let drops = Drops::default();
        let owned = parts.iter().map(|p| p.to_vec()).collect();
        (Box::new(Parts(owned, Arc::clone(&drops))), drops)
    }

    /// `f` on a thread of its own, standing for the staging rank's.
    fn on_staging_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().unwrap())
    }

    #[test]
    fn a_gather_lands_in_order_and_pins_its_full_length() {
        let (fabric, computes, stagings) = Fabric::new(1, 1, Some(100));
        let (g, drops) = parts(&[b"head", b"", &[9u8; 40], b"tail"]);
        let h = computes[0].expose_gather(g, 7).unwrap();
        assert_eq!(
            (computes[0].pinned_bytes(), fabric.pinned_bytes()),
            (48, 48)
        );
        assert_eq!(fabric.stats().peak_pinned_bytes(), 48);

        let got = on_staging_thread(|| stagings[0].rdma_get(&req(0, h, 48)).unwrap());
        let mut want = b"head".to_vec();
        want.extend_from_slice(&[9u8; 40]);
        want.extend_from_slice(b"tail");
        assert_eq!(&got[..], &want[..]);
        assert!(drops.lock().is_empty(), "landed, and gone home");
        assert_eq!(fabric.pinned_bytes(), 0);
        let ev = computes[0].wait_completion(Duration::from_secs(1)).unwrap();
        assert_eq!((ev.bytes, ev.io_step), (48, 7));
        assert_eq!(
            *drops.lock(),
            [std::thread::current().id()],
            "dropped when consumed, on the exposer's thread"
        );
        assert_eq!(computes[0].pinned_bytes(), 0);
        assert_eq!(fabric.stats().bytes_pulled(), 48);
        assert_eq!(
            stagings[0].rdma_get(&req(0, h, 48)),
            Err(TransportError::StaleHandle(h))
        );
    }

    #[test]
    fn a_gather_is_reclaimed_and_refused_at_its_full_length() {
        let (fabric, computes, _stagings) = Fabric::new(1, 1, Some(100));
        let (g, drops) = parts(&[&[1u8; 30], &[2u8; 30]]);
        let h = computes[0].expose_gather(g, 0).unwrap();
        assert_eq!(computes[0].pinned_bytes(), 60);
        // 60 pinned: a 50-byte gather does not fit, and pins nothing.
        let (big, big_drops) = parts(&[&[0u8; 25], &[0u8; 25]]);
        assert_eq!(
            computes[0].expose_gather(big, 0),
            Err(TransportError::PinBudgetExceeded {
                requested: 50,
                available: 40
            })
        );
        assert_eq!(big_drops.lock().len(), 1);
        assert_eq!(
            (computes[0].pinned_bytes(), fabric.pinned_bytes()),
            (60, 60)
        );
        assert_eq!(computes[0].reclaim(h), Some(60));
        assert_eq!(drops.lock().len(), 1);
        assert_eq!((computes[0].pinned_bytes(), fabric.pinned_bytes()), (0, 0));
        assert_eq!(computes[0].reclaim(h), None);
        // An injected pin fault refuses a gather too, pinning nothing.
        let plan = Arc::new(crate::fault::FaultPlan::new(3).pin_exhaustion(1.0));
        let (fabric, computes, _stagings) =
            Fabric::with_faults(1, 1, None, Some(plan), obs::Registry::new());
        let (g, drops) = parts(&[&[0u8; 8]]);
        assert!(computes[0].expose_gather(g, 0).is_err());
        assert_eq!(drops.lock().len(), 1);
        assert_eq!((computes[0].pinned_bytes(), fabric.pinned_bytes()), (0, 0));
    }

    #[test]
    fn a_mixed_batch_fails_only_the_stale_slot() {
        let (fabric, computes, stagings) = Fabric::new(1, 1, None);
        let whole: Arc<[u8]> = vec![1u8; 16].into();
        let h1 = computes[0].expose(Arc::clone(&whole), 3).unwrap();
        let (g, drops) = parts(&[&[2u8; 8], &[3u8; 8]]);
        let h2 = computes[0].expose_gather(g, 3).unwrap();
        let stale = MemHandle::test_only(999);

        let reqs = [req(0, h2, 16), req(0, stale, 0), req(0, h1, 16)];
        let out = on_staging_thread(|| stagings[0].rdma_get_batch(&reqs));
        assert_eq!(out.len(), 3);
        let gathered = out[0].as_ref().unwrap();
        assert_eq!(
            (&gathered[..8], &gathered[8..]),
            (&[2u8; 8][..], &[3u8; 8][..])
        );
        assert!(drops.lock().is_empty(), "the gather went home");
        assert_eq!(out[1], Err(TransportError::StaleHandle(stale)));
        let landed = out[2].as_ref().unwrap();
        assert_eq!(&landed[..], &whole[..]);
        assert_ne!(
            landed.as_ptr(),
            whole.as_ptr(),
            "a whole buffer lands as a copy"
        );
        assert_eq!(fabric.stats().rdma_gets(), 2);
        assert_eq!(fabric.stats().bytes_pulled(), 32);
        assert_eq!(fabric.pinned_bytes(), 0);
        assert_eq!(
            Arc::strong_count(&whole),
            2,
            "its completion carries it home"
        );
        let a = computes[0].wait_completion(Duration::from_secs(1)).unwrap();
        assert_eq!(
            *drops.lock(),
            [std::thread::current().id()],
            "dropped when consumed, on the exposer's thread"
        );
        let b = computes[0].wait_completion(Duration::from_secs(1)).unwrap();
        assert_eq!([a.handle, b.handle], [h2, h1]);
        assert_eq!(
            Arc::strong_count(&whole),
            1,
            "and was dropped when consumed"
        );
    }

    /// Spawn an exposer thread that parks for one completion on
    /// `compute`, and return once it is parked.
    fn parked_exposer<'s>(
        s: &'s std::thread::Scope<'s, '_>,
        compute: &'s ComputeEndpoint,
    ) -> std::thread::ScopedJoinHandle<'s, CompletionEvent> {
        let t = s.spawn(|| compute.wait_completion(Duration::from_secs(30)).unwrap());
        while compute.completions.parked_consumers() == 0 {
            std::thread::yield_now();
        }
        t
    }

    #[test]
    fn a_completion_batch_wakes_each_exposer_once_when_it_ends() {
        let (_f, computes, stagings) = Fabric::new(2, 1, None);
        let handles: Vec<MemHandle> = (0..4)
            .map(|i| computes[i % 2].expose(vec![i as u8; 8].into(), 0).unwrap())
            .collect();
        std::thread::scope(|s| {
            let exposers = [
                parked_exposer(s, &computes[0]),
                parked_exposer(s, &computes[1]),
            ];
            let batch = stagings[0].completion_batch();
            for (i, &h) in handles.iter().enumerate() {
                stagings[0].rdma_get(&req(i % 2, h, 8)).unwrap();
            }
            std::thread::sleep(Duration::from_millis(20));
            for (c, t) in computes.iter().zip(&exposers) {
                assert!(!t.is_finished(), "woken inside the batch");
                assert_eq!(c.completions.parked_consumers(), 1);
            }
            drop(batch);
            for (rank, t) in exposers.into_iter().enumerate() {
                assert_eq!(t.join().unwrap().handle, handles[rank]);
            }
        });
        // The rest were queued: an exposer that polls finds them.
        for (rank, c) in computes.iter().enumerate() {
            let left = c.wait_completion(Duration::ZERO).unwrap();
            assert_eq!(left.handle, handles[rank + 2]);
            assert_eq!(c.poll_completions(), 0);
            assert_eq!(c.pinned_bytes(), 0);
        }
        // Outside a batch, a pull wakes its exposer at once.
        let h = computes[0].expose(vec![0u8; 8].into(), 1).unwrap();
        std::thread::scope(|s| {
            let t = parked_exposer(s, &computes[0]);
            stagings[0].rdma_get(&req(0, h, 8)).unwrap();
            assert_eq!(t.join().unwrap().handle, h);
        });
    }

    #[test]
    fn a_completion_batch_wakes_on_an_error_return_and_on_unwinding() {
        let (_f, computes, stagings) = Fabric::new(1, 1, None);
        let staging = &stagings[0];
        // A pull loop that leaves on `?` after its first pull.
        let pull_two = |first: MemHandle| -> Result<(), TransportError> {
            let _batch = staging.completion_batch();
            staging.rdma_get(&req(0, first, 8))?;
            staging.rdma_get(&req(0, MemHandle::test_only(999), 8))?;
            Ok(())
        };
        let h = computes[0].expose(vec![1u8; 8].into(), 0).unwrap();
        std::thread::scope(|s| {
            let t = parked_exposer(s, &computes[0]);
            assert!(pull_two(h).is_err());
            assert_eq!(t.join().unwrap().handle, h);
        });
        // A pull loop that panics after its pull.
        let h = computes[0].expose(vec![2u8; 8].into(), 0).unwrap();
        std::thread::scope(|s| {
            let t = parked_exposer(s, &computes[0]);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _batch = staging.completion_batch();
                staging.rdma_get(&req(0, h, 8)).unwrap();
                panic!("a mapper panicked");
            }));
            assert!(unwound.is_err());
            assert_eq!(t.join().unwrap().handle, h);
        });
        // The batch is closed again: the next pull wakes at once.
        let h = computes[0].expose(vec![3u8; 8].into(), 0).unwrap();
        std::thread::scope(|s| {
            let t = parked_exposer(s, &computes[0]);
            staging.rdma_get(&req(0, h, 8)).unwrap();
            assert_eq!(t.join().unwrap().handle, h);
        });
    }

    #[test]
    fn concurrent_pulls_from_many_computes() {
        let n = 16;
        let (fabric, computes, stagings) = Fabric::new(n, 1, None);
        let staging = &stagings[0];
        std::thread::scope(|s| {
            for (i, c) in computes.iter().enumerate() {
                s.spawn(move || {
                    let h = c.expose(vec![i as u8; 256].into(), 0).unwrap();
                    c.send_request(0, req(i, h, 256)).unwrap();
                    c.wait_completion(Duration::from_secs(5)).unwrap();
                });
            }
            s.spawn(move || {
                for _ in 0..n {
                    let r = staging.recv_request(Duration::from_secs(5)).unwrap();
                    let data = staging.rdma_get(&r).unwrap();
                    assert!(data.iter().all(|&b| b == r.src_rank as u8));
                }
            });
        });
        assert_eq!(fabric.stats().rdma_gets(), n as u64);
        assert_eq!(fabric.pinned_bytes(), 0);
    }
}
