//! The in-process fabric: memory registry, request queues, completions.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::evq::{EventQueue, PollError};
use crate::fault::FaultPlan;
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

/// Completion notice delivered to the exposing compute endpoint when a
/// staging node finishes pulling one of its chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionEvent {
    pub handle: MemHandle,
    pub bytes: usize,
    pub io_step: u64,
}

/// Fabric-wide counters.
#[derive(Debug, Default)]
pub struct FabricStats {
    rdma_gets: AtomicU64,
    bytes_pulled: AtomicU64,
    requests_sent: AtomicU64,
    request_bytes: AtomicU64,
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
    pub fn request_bytes(&self) -> u64 {
        self.request_bytes.load(Ordering::Relaxed)
    }
    pub fn peak_pinned_bytes(&self) -> usize {
        self.peak_pinned_bytes.load(Ordering::Relaxed)
    }

    fn note_pinned(&self, now: usize) {
        self.peak_pinned_bytes.fetch_max(now, Ordering::Relaxed);
    }
}

struct Registry {
    next: u64,
    exposed: HashMap<u64, (Bytes, u64)>, // handle -> (buf, io_step)
    pinned_bytes: usize,
}

struct FabricInner {
    registry: Mutex<Registry>,
    stats: FabricStats,
    /// Per-staging-rank request queues.
    requests: Vec<EventQueue<FetchRequest>>,
    /// Per-compute-rank completion queues.
    completions: Vec<EventQueue<CompletionEvent>>,
    /// Deterministic fault-injection schedule, if any (`PREDATA_FAULTS`).
    faults: Option<Arc<FaultPlan>>,
    /// obs handles, resolved once here so the `rdma_get` hot path is a
    /// relaxed atomic add with no registry lookup.
    obs_get_ns: obs::Histogram,
    obs_get_bytes: obs::Counter,
    obs_pinned_hwm: obs::Gauge,
}

/// Factory for matched endpoint sets.
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// Build a fabric connecting `n_compute` compute endpoints to
    /// `n_staging` staging endpoints. `pin_budget` bounds the bytes each
    /// compute endpoint may keep exposed at once (None = unlimited).
    /// Any ambient `PREDATA_FAULTS` schedule is attached.
    pub fn new(
        n_compute: usize,
        n_staging: usize,
        pin_budget: Option<usize>,
    ) -> (Fabric, Vec<ComputeEndpoint>, Vec<StagingEndpoint>) {
        Fabric::with_faults(n_compute, n_staging, pin_budget, FaultPlan::from_env())
    }

    /// [`Fabric::new`] with an explicit fault schedule (`None` = run
    /// clean even if `PREDATA_FAULTS` is set) — the hook tests use to
    /// pin a schedule regardless of the environment.
    pub fn with_faults(
        n_compute: usize,
        n_staging: usize,
        pin_budget: Option<usize>,
        faults: Option<Arc<FaultPlan>>,
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
            obs_get_ns: obs::global().histogram("transport.rdma_get_ns", &[]),
            obs_get_bytes: obs::global().counter("transport.rdma_get_bytes", &[]),
            obs_pinned_hwm: obs::global().gauge("transport.pinned_bytes", &[]),
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
/// queue.
pub struct ComputeEndpoint {
    rank: usize,
    inner: Arc<FabricInner>,
    completions: EventQueue<CompletionEvent>,
    pin_budget: Option<usize>,
    my_pinned: Arc<AtomicUsize>,
}

impl Drop for ComputeEndpoint {
    fn drop(&mut self) {
        self.completions.close();
    }
}

impl ComputeEndpoint {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Bytes this endpoint currently has exposed.
    pub fn pinned_bytes(&self) -> usize {
        self.my_pinned.load(Ordering::Relaxed)
    }

    /// [`expose_bytes`](Self::expose_bytes) of a buffer already shaped
    /// `Arc<[u8]>`.
    pub fn expose(&self, buf: Arc<[u8]>, io_step: u64) -> Result<MemHandle, TransportError> {
        self.expose_bytes(buf.into(), io_step)
    }

    /// Register a packed chunk for one-sided access and get its handle.
    /// The buffer stays pinned until a staging node pulls it.
    ///
    /// The registry holds `buf` by reference count and hands that handle
    /// to the puller, so an exposer that keeps a clone can tell when
    /// every reader is done with the bytes: its completion has arrived
    /// and the clone [`is_unique`](Bytes::is_unique).
    pub fn expose_bytes(&self, buf: Bytes, io_step: u64) -> Result<MemHandle, TransportError> {
        let len = buf.len();
        if let Some(plan) = &self.inner.faults {
            if let Some(err) = plan.inject_expose(self.rank as u64, io_step, len) {
                return Err(err);
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
        reg.exposed.insert(h, (buf, io_step));
        reg.pinned_bytes += len;
        let global_now = reg.pinned_bytes;
        drop(reg);
        self.my_pinned.fetch_add(len, Ordering::Relaxed);
        self.inner.stats.note_pinned(global_now);
        self.inner.obs_pinned_hwm.set(global_now as i64);
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
        self.inner
            .stats
            .request_bytes
            .fetch_add(req.wire_bytes() as u64, Ordering::Relaxed);
        self.inner.requests[staging_rank]
            .send(req)
            .map_err(|_| TransportError::Disconnected)
    }

    /// Block until the next pull-completion for one of this endpoint's
    /// exposures. Used by the compute-side runtime to recycle buffers.
    pub fn wait_completion(&self, timeout: Duration) -> Result<CompletionEvent, TransportError> {
        let ev = self.completions.recv(timeout).map_err(poll_error)?;
        self.my_pinned.fetch_sub(ev.bytes, Ordering::Relaxed);
        Ok(ev)
    }

    /// Drain any already-arrived completions without blocking.
    pub fn poll_completions(&self) -> Vec<CompletionEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.completions.try_poll() {
            self.my_pinned.fetch_sub(ev.bytes, Ordering::Relaxed);
            out.push(ev);
        }
        out
    }

    /// Withdraw an exposure that was never pulled, freeing its pinned
    /// bytes; returns the reclaimed size. `None` means the registry no
    /// longer holds the handle — the pull won the race, and the normal
    /// completion path will release the pin accounting instead. A client
    /// whose fetch request never left uses this to un-pin its dump.
    pub fn reclaim(&self, handle: MemHandle) -> Option<usize> {
        let mut reg = self.inner.registry.lock();
        let (buf, _step) = reg.exposed.remove(&handle.0)?;
        let len = buf.len();
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

    /// The fabric's fault schedule, if one is attached. The retrying
    /// pull loop consults it *before* each [`rdma_get`](Self::rdma_get)
    /// attempt; the raw fabric call itself never fakes failures, so
    /// protocol tests stay exact under an ambient `PREDATA_FAULTS`.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.inner.faults.as_ref()
    }

    /// Block for the next fetch request, with a deadline.
    pub fn recv_request(&self, timeout: Duration) -> Result<FetchRequest, TransportError> {
        let r = self.requests.recv(timeout).map_err(poll_error)?;
        // The chunk's `request_received` transition, on this staging
        // rank: counted per step, these marks are the rank's gathered
        // backlog.
        obs::mark("request_received", r.io_step)
            .rank(self.rank)
            .chunk(r.src_rank as u64);
        Ok(r)
    }

    /// One-sided pull of an exposed chunk. Consumes the exposure (the
    /// compute side sees a completion and may reuse its buffer) and
    /// returns the bytes — the exposer's own buffer, by reference count.
    pub fn rdma_get(&self, req: &FetchRequest) -> Result<Bytes, TransportError> {
        let started = obs::enabled().then(std::time::Instant::now);
        let (buf, io_step) = {
            let mut reg = self.inner.registry.lock();
            let entry = reg
                .exposed
                .remove(&handle_raw(req.handle))
                .ok_or(TransportError::StaleHandle(req.handle))?;
            reg.pinned_bytes -= entry.0.len();
            entry
        };
        self.inner.stats.rdma_gets.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = started {
            self.inner.obs_get_ns.record(t.elapsed().as_nanos() as u64);
        }
        self.pull_done(req, &buf, io_step);
        Ok(buf)
    }

    /// Pull a *run* of exposed chunks in one fabric transaction: the
    /// registry is locked once for every handle, then per-request
    /// bookkeeping and completions proceed as for
    /// [`rdma_get`](Self::rdma_get).
    ///
    /// Nothing in this workspace calls it: the staging puller issues one
    /// `rdma_get` per chunk (DESIGN.md §3.4). It is kept only because
    /// the frozen `benchmark/` harness times it in its batched-pull
    /// probe (`benchmark/src/probes.rs`); the `benchmark` issue that
    /// retires that probe deletes this function with it.
    ///
    /// Results are positional. A stale handle fails only its own slot
    /// ([`TransportError::StaleHandle`]); the other slots still deliver.
    /// One batch counts as one `rdma_gets` fabric transaction.
    pub fn rdma_get_batch(&self, reqs: &[FetchRequest]) -> Vec<Result<Bytes, TransportError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let started = obs::enabled().then(std::time::Instant::now);
        type Entry = Result<(Bytes, u64), TransportError>;
        let entries: Vec<Entry> = {
            let mut reg = self.inner.registry.lock();
            reqs.iter()
                .map(|req| {
                    let entry = reg
                        .exposed
                        .remove(&handle_raw(req.handle))
                        .ok_or(TransportError::StaleHandle(req.handle))?;
                    reg.pinned_bytes -= entry.0.len();
                    Ok(entry)
                })
                .collect()
        };
        self.inner.stats.rdma_gets.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = started {
            self.inner.obs_get_ns.record(t.elapsed().as_nanos() as u64);
        }
        entries
            .into_iter()
            .zip(reqs)
            .map(|(entry, req)| {
                let (buf, io_step) = entry?;
                self.pull_done(req, &buf, io_step);
                Ok(buf)
            })
            .collect()
    }

    /// Per-request bookkeeping once bytes have left the registry:
    /// traffic stats and the best-effort completion posted back to the
    /// exposing compute endpoint (if that endpoint is gone the data
    /// still flows — matches one-sided RDMA semantics). The pull's
    /// event is the caller's: it knows the rank and times the retries.
    fn pull_done(&self, req: &FetchRequest, buf: &Bytes, io_step: u64) {
        self.inner
            .stats
            .bytes_pulled
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.obs_get_bytes.add(buf.len() as u64);
        self.inner.completions[req.src_rank].submit(CompletionEvent {
            handle: req.handle,
            bytes: buf.len(),
            io_step,
        });
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
    fn exposers_clone_is_unique_once_every_reader_let_go() {
        let (_f, computes, stagings) = Fabric::new(1, 1, None);
        let mine = Bytes::from(vec![3u8; 32]);
        let h = computes[0].expose_bytes(mine.clone(), 0).unwrap();
        assert!(!mine.is_unique(), "the registry holds it");
        let pulled = stagings[0].rdma_get(&req(0, h, 32)).unwrap();
        assert_eq!(pulled.as_ptr(), mine.as_ptr(), "the pull copies nothing");
        assert!(!mine.is_unique(), "the puller holds it");
        drop(pulled);
        assert!(mine.is_unique());
        // A withdrawn exposure lets go too.
        let h = computes[0].expose_bytes(mine.clone(), 1).unwrap();
        assert_eq!(computes[0].reclaim(h), Some(32));
        assert!(mine.is_unique());
    }

    #[test]
    fn attached_fault_plan_faults_expose_only() {
        let plan = Arc::new(crate::fault::FaultPlan::new(3).pin_exhaustion(1.0));
        let (_f, computes, stagings) = Fabric::with_faults(1, 1, None, Some(plan));
        assert!(stagings[0].fault_plan().is_some());
        let err = computes[0].expose(vec![0u8; 32].into(), 0).unwrap_err();
        assert!(matches!(err, TransportError::PinBudgetExceeded { .. }));
        // Pull faults are the *caller's* job: raw rdma_get stays exact.
        let clean = Arc::new(crate::fault::FaultPlan::new(3).drop_chunks(1.0));
        let (_f, computes, stagings) = Fabric::with_faults(1, 1, None, Some(clean));
        let h = computes[0].expose(vec![5u8; 16].into(), 0).unwrap();
        assert!(stagings[0].rdma_get(&req(0, h, 16)).is_ok());
    }

    #[test]
    fn batched_pull_is_one_transaction_with_per_slot_errors() {
        let (fabric, computes, stagings) = Fabric::new(1, 1, None);
        let h1 = computes[0].expose(vec![1u8; 16].into(), 3).unwrap();
        let h2 = computes[0].expose(vec![2u8; 32].into(), 3).unwrap();
        let stale = MemHandle::test_only(999);

        let reqs = [req(0, h1, 16), req(0, stale, 0), req(0, h2, 32)];
        let out = stagings[0].rdma_get_batch(&reqs);
        assert_eq!(out.len(), 3);
        assert_eq!(&out[0].as_ref().unwrap()[..], &[1u8; 16]);
        assert_eq!(out[1], Err(TransportError::StaleHandle(stale)));
        assert_eq!(&out[2].as_ref().unwrap()[..], &[2u8; 32]);

        // One fabric transaction moved all the bytes (the stale slot
        // rode along in the same registry visit).
        assert_eq!(fabric.stats().rdma_gets(), 1);
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
