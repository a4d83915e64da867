//! The compute-node side of the middleware (paper Stage 1).
//!
//! Applications keep their ADIOS-style output code: build a
//! [`bpio::ProcessGroup`] and hand it to [`PredataClient::write_pg`].
//! The client runs the registered compute-side passes, packs the group
//! into a self-describing chunk, exposes it for one-sided access, picks a
//! staging rank with the configured `Route()`, and sends the data-fetch
//! request — then returns immediately. The simulation resumes while the
//! staging area pulls the bulk bytes.
//!
//! # Buffer recycling
//!
//! Packing is the one copy the compute side makes of a payload byte, and
//! in the steady state it allocates nothing: the client keeps every
//! buffer it has exposed and packs the next chunk into one of them. The
//! exposed buffer is shared with the fabric by reference count
//! ([`ComputeEndpoint::expose_bytes`]), and the client is its only
//! writer, under one rule — **a buffer is written again only after its
//! exposure has ended** (the pull's completion was consumed by
//! [`wait_drained`](PredataClient::wait_drained), or the exposure was
//! withdrawn by [`reclaim_outstanding`](PredataClient::reclaim_outstanding))
//! **and every other handle on it is gone** ([`Bytes::is_unique`]: the
//! registry's and the puller's). A staging rank that is still decoding a
//! pulled chunk therefore keeps it intact for as long as it holds it;
//! the client packs into another buffer meanwhile.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpio::ProcessGroup;
use bytes::Bytes;
use ffs::AttrList;
use transport::{ComputeEndpoint, FetchRequest, MemHandle, Router, TransportError};

use crate::chunk::{ChunkError, PackedChunk};
use crate::op::ComputeSideOp;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    Pack(ChunkError),
    Transport(TransportError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Pack(e) => write!(f, "packing failed: {e}"),
            ClientError::Transport(e) => write!(f, "transport failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    /// The wrapped pack/transport failure, for `?`-style error chains
    /// across crate boundaries.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Pack(e) => Some(e),
            ClientError::Transport(e) => Some(e),
        }
    }
}

impl From<ChunkError> for ClientError {
    fn from(e: ChunkError) -> Self {
        ClientError::Pack(e)
    }
}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

/// Receipt for one asynchronous write.
#[derive(Debug, Clone, Copy)]
pub struct WriteReceipt {
    /// Staging rank the fetch request went to.
    pub staging_rank: usize,
    /// Size of the exposed chunk.
    pub bytes: usize,
    /// Step the chunk belongs to.
    pub step: u64,
}

/// One compute process' PreDatA client.
pub struct PredataClient {
    endpoint: ComputeEndpoint,
    router: Arc<dyn Router>,
    ops: Vec<Arc<dyn ComputeSideOp>>,
    /// Exposures not yet confirmed pulled: handle → (the client's
    /// handle on the exposed buffer, step). Keyed by handle so
    /// completions can be matched exactly and un-pulled dumps can be
    /// withdrawn ([`Self::reclaim_outstanding`]).
    outstanding: RefCell<HashMap<MemHandle, (Bytes, u64)>>,
    /// Buffers whose exposure has ended, kept to be packed into again
    /// (module docs: only once [`Bytes::is_unique`]).
    retired: RefCell<Vec<Bytes>>,
}

impl PredataClient {
    pub fn new(
        endpoint: ComputeEndpoint,
        router: Arc<dyn Router>,
        ops: Vec<Arc<dyn ComputeSideOp>>,
    ) -> Self {
        PredataClient {
            endpoint,
            router,
            ops,
            outstanding: RefCell::new(HashMap::new()),
            retired: RefCell::new(Vec::new()),
        }
    }

    pub fn rank(&self) -> usize {
        self.endpoint.rank()
    }

    /// Asynchronous output of one process group: packs, runs the
    /// compute-side passes, exposes, routes, requests. Does not wait for
    /// the pull.
    ///
    /// The whole call is the simulation's blocked-in-output window — the
    /// `blocked` row of the perturbation view — and the pack / route /
    /// request hand-offs inside it are the first three stages of the
    /// chunk's lineage. (`wait_drained` is not attributed — it spans
    /// steps.)
    pub fn write_pg(&self, pg: ProcessGroup) -> Result<WriteReceipt, ClientError> {
        let step = pg.step;
        // The one clock read both always-on rows (`blocked`, `pack`)
        // start from: packing is the first thing the call does.
        let started = obs::enabled().then(Instant::now);
        let receipt = self.write_pg_from(pg, started);
        if let Some(t) = started {
            obs::global().record(obs::Event::timed("blocked", step, t, t.elapsed()));
        }
        receipt
    }

    /// [`write_pg`](Self::write_pg) proper; `started` is the call's one
    /// clock read (`None` while recording is off).
    fn write_pg_from(
        &self,
        pg: ProcessGroup,
        started: Option<Instant>,
    ) -> Result<WriteReceipt, ClientError> {
        let step = pg.step;
        let src = self.rank() as u64;
        // Stage 1b: pack into a self-describing contiguous buffer — the
        // one copy of the payload, into a buffer this client already owns.
        let chunk = PackedChunk::new(pg);
        let mut buf = self.take_buffer();
        chunk.pack_into(&mut buf)?;
        let bytes = buf.len();
        if let Some(t) = started {
            let pack = obs::Event::timed("pack", step, t, t.elapsed());
            obs::global().record(pack.chunk(src).bytes(bytes as u64));
        }
        // Stage 1a: optional local first pass; results ride the request.
        // (After the pack, which does not need them, so that the pack's
        // row is the pack alone.)
        let mut attrs = AttrList::new();
        for op in &self.ops {
            op.partial_calculate(&chunk.pg, &mut attrs);
        }
        // Stage 1c: expose + route + request.
        let buf = Bytes::from(buf);
        let handle = match self.endpoint.expose_bytes(buf.clone(), step) {
            Ok(handle) => handle,
            Err(e) => {
                self.retired.borrow_mut().push(buf);
                return Err(e.into());
            }
        };
        let staging_rank = self.router.route(self.rank(), step);
        // Only the lineage view reads the `routed` and `request_sent`
        // marks, so they cost the simulation's thread nothing unless the
        // registry is logging events.
        let lineage = obs::global().detail();
        if lineage {
            obs::mark("routed", step).chunk(src);
        }
        if let Err(e) = self.endpoint.send_request(
            staging_rank,
            FetchRequest {
                src_rank: self.rank(),
                io_step: step,
                handle,
                chunk_bytes: bytes,
                format: PackedChunk::format_fingerprint(),
                attrs,
            },
        ) {
            // The request never left: withdraw the exposure so a failed
            // write doesn't leak pinned compute-node memory.
            self.endpoint.reclaim(handle);
            self.retired.borrow_mut().push(buf);
            return Err(e.into());
        }
        if lineage {
            obs::mark("request_sent", step).chunk(src);
        }
        self.outstanding.borrow_mut().insert(handle, (buf, step));
        Ok(WriteReceipt {
            staging_rank,
            bytes,
            step,
        })
    }

    /// An empty buffer to pack into: a retired one nobody else holds any
    /// more, with its capacity, or a new one.
    fn take_buffer(&self) -> Vec<u8> {
        let mut retired = self.retired.borrow_mut();
        match retired.iter().position(Bytes::is_unique) {
            Some(i) => {
                let mut buf = Vec::from(retired.swap_remove(i));
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// A completion arrived: the exposure is over and its buffer retires.
    fn retire(&self, outstanding: &mut HashMap<MemHandle, (Bytes, u64)>, handle: MemHandle) {
        if let Some((buf, _step)) = outstanding.remove(&handle) {
            self.retired.borrow_mut().push(buf);
        }
    }

    /// Bytes currently buffered (exposed, not yet pulled) on this node —
    /// the compute-side memory cost of asynchronous staging.
    pub fn buffered_bytes(&self) -> usize {
        self.endpoint.pinned_bytes()
    }

    /// Wait until all outstanding exposures have been pulled (buffer
    /// reuse point; a simulation calls this before *reusing* its output
    /// buffers, not after every write).
    pub fn wait_drained(&self, timeout: Duration) -> Result<(), TransportError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut outstanding = self.outstanding.borrow_mut();
        for ev in self.endpoint.poll_completions() {
            self.retire(&mut outstanding, ev.handle);
        }
        while !outstanding.is_empty() {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout);
            }
            let ev = self.endpoint.wait_completion(remaining)?;
            self.retire(&mut outstanding, ev.handle);
        }
        Ok(())
    }

    /// Exposures not yet confirmed pulled.
    pub fn outstanding_writes(&self) -> usize {
        self.outstanding.borrow().len()
    }

    /// Withdraw every exposure the staging area hasn't pulled, freeing
    /// the pinned bytes (the buffers retire, to be packed into again)
    /// and terminally marking each dump's lineage
    /// [`Truncated`](obs::lineage::Stage::Truncated). Returns how many
    /// exposures were withdrawn. Dumps whose pull already won the race
    /// stay tracked — their completions drain normally.
    ///
    /// This is the client half of the degradation ladder: before
    /// falling back to a synchronous in-compute write of the same data,
    /// the abandoned staged copy must stop costing compute-node memory.
    pub fn reclaim_outstanding(&self) -> usize {
        let mut outstanding = self.outstanding.borrow_mut();
        for ev in self.endpoint.poll_completions() {
            self.retire(&mut outstanding, ev.handle);
        }
        let src = self.rank() as u64;
        let mut reclaimed = 0usize;
        let mut reclaimed_bytes = 0u64;
        let mut retired = self.retired.borrow_mut();
        outstanding.retain(|&handle, (buf, step)| {
            match self.endpoint.reclaim(handle) {
                Some(n) => {
                    debug_assert_eq!(n, buf.len());
                    obs::mark("truncated", *step).chunk(src);
                    reclaimed += 1;
                    reclaimed_bytes += n as u64;
                    retired.push(std::mem::take(buf));
                    false
                }
                // Pulled between the poll above and now: the completion
                // path owns the accounting.
                None => true,
            }
        });
        if reclaimed > 0 {
            obs::global()
                .counter("client.reclaimed_bytes", &[])
                .add(reclaimed_bytes);
        }
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::make_particle_pg;
    use transport::{BlockRouter, Fabric};

    struct NpOp;
    impl ComputeSideOp for NpOp {
        fn partial_calculate(&self, pg: &ProcessGroup, out: &mut AttrList) {
            if let Some(np) = crate::schema::particle_count(pg) {
                out.set("np", ffs::Value::U64(np));
            }
        }
    }

    #[test]
    fn write_exposes_routes_and_attaches() {
        let (_fabric, computes, stagings) = Fabric::new(2, 2, None);
        let router = Arc::new(BlockRouter::new(2, 2));
        let mut computes = computes.into_iter();
        let c0 = PredataClient::new(
            computes.next().unwrap(),
            router.clone(),
            vec![Arc::new(NpOp)],
        );
        let c1 = PredataClient::new(computes.next().unwrap(), router, vec![Arc::new(NpOp)]);

        let r0 = c0.write_pg(make_particle_pg(0, 3, vec![0.0; 16])).unwrap();
        let r1 = c1.write_pg(make_particle_pg(1, 3, vec![0.0; 8])).unwrap();
        assert_eq!(r0.staging_rank, 0);
        assert_eq!(r1.staging_rank, 1);
        assert!(c0.buffered_bytes() > 0);

        let req = stagings[0].recv_request(Duration::from_secs(1)).unwrap();
        assert_eq!(req.src_rank, 0);
        assert_eq!(req.io_step, 3);
        assert_eq!(req.attrs.get_u64("np"), Some(2));
        assert_eq!(req.format, PackedChunk::format_fingerprint());

        // Pull and verify the payload decodes to the original PG.
        let bytes = stagings[0].rdma_get(&req).unwrap();
        let chunk = PackedChunk::unpack(&bytes).unwrap();
        assert_eq!(chunk.writer_rank, 0);
        assert_eq!(crate::schema::particle_count(&chunk.pg), Some(2));

        // Drain: c0 completes, c1 still outstanding.
        c0.wait_drained(Duration::from_secs(1)).unwrap();
        assert_eq!(c0.buffered_bytes(), 0);
        assert!(matches!(
            c1.wait_drained(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        ));
    }

    /// One client, one staging endpoint, a fabric with a pin budget of
    /// `budget` bytes.
    fn one_client(budget: Option<usize>) -> (Fabric, PredataClient, transport::StagingEndpoint) {
        let (fabric, mut computes, mut stagings) = Fabric::new(1, 1, budget);
        let router = Arc::new(BlockRouter::new(1, 1));
        let client = PredataClient::new(computes.remove(0), router, vec![]);
        (fabric, client, stagings.remove(0))
    }

    fn pull(staging: &transport::StagingEndpoint) -> Bytes {
        let req = staging.recv_request(Duration::from_secs(1)).unwrap();
        let buf = staging.rdma_get(&req).unwrap();
        assert_eq!(buf.len(), req.chunk_bytes, "exposed exactly the chunk");
        buf
    }

    #[test]
    fn a_buffer_the_staging_side_holds_is_never_overwritten() {
        let (_fabric, client, staging) = one_client(None);
        let pg = |step: u64| make_particle_pg(0, step, vec![step as f64; 64]);

        client.write_pg(pg(1)).unwrap();
        let held = pull(&staging);
        let snapshot = held.to_vec();
        client.wait_drained(Duration::from_secs(1)).unwrap();

        // The pull completed, but the staging side still reads `held`:
        // the next dump must go somewhere else.
        client.write_pg(pg(2)).unwrap();
        let second = pull(&staging);
        assert_ne!(second.as_ptr(), held.as_ptr());
        assert_eq!(
            &held[..],
            &snapshot[..],
            "bytes under a live handle changed"
        );
        assert_eq!(PackedChunk::unpack(&held).unwrap().step, 1);
        client.wait_drained(Duration::from_secs(1)).unwrap();

        // Both handles dropped: the third dump lands in one of the two
        // buffers, the fourth in the other, and nothing new is allocated.
        let owned = [held.as_ptr(), second.as_ptr()];
        drop((held, second));
        for step in [3, 4] {
            client.write_pg(pg(step)).unwrap();
        }
        let (third, fourth) = (pull(&staging), pull(&staging));
        assert!(owned.contains(&third.as_ptr()) && owned.contains(&fourth.as_ptr()));
        assert_ne!(third.as_ptr(), fourth.as_ptr());
        assert_eq!(PackedChunk::unpack(&third).unwrap().step, 3);
        assert_eq!(PackedChunk::unpack(&fourth).unwrap().step, 4);
    }

    #[test]
    fn reclaimed_buffers_return_to_the_pool_and_unpin() {
        let (fabric, client, staging) = one_client(None);
        let pg = |step: u64| make_particle_pg(0, step, vec![0.5; 64]);
        for step in 0..3 {
            client.write_pg(pg(step)).unwrap();
        }
        let pinned = client.buffered_bytes();
        assert_eq!(fabric.pinned_bytes(), pinned);
        // One dump is pulled (and its reader lets go); two are withdrawn.
        drop(pull(&staging));
        assert_eq!(client.reclaim_outstanding(), 2);
        for _ in 0..2 {
            let late = staging.recv_request(Duration::from_secs(1)).unwrap();
            assert!(matches!(
                staging.rdma_get(&late),
                Err(TransportError::StaleHandle(_))
            ));
        }
        assert_eq!(client.outstanding_writes(), 0);
        assert_eq!((client.buffered_bytes(), fabric.pinned_bytes()), (0, 0));
        assert_eq!(client.retired.borrow().len(), 3);
        assert!(client.retired.borrow().iter().all(Bytes::is_unique));
        // All three are packed into again before anything is allocated.
        let pool: Vec<*const u8> = client.retired.borrow().iter().map(|b| b.as_ptr()).collect();
        for step in 3..6 {
            client.write_pg(pg(step)).unwrap();
        }
        assert!(client.retired.borrow().is_empty());
        for _ in 3..6 {
            assert!(pool.contains(&pull(&staging).as_ptr()));
        }
        client.wait_drained(Duration::from_secs(1)).unwrap();
        assert_eq!((client.buffered_bytes(), fabric.pinned_bytes()), (0, 0));
    }

    #[test]
    fn a_refused_exposure_keeps_its_buffer() {
        let (fabric, client, _staging) = one_client(Some(16));
        for step in 0..2 {
            let err = client.write_pg(make_particle_pg(0, step, vec![0.0; 64]));
            assert!(matches!(
                err,
                Err(ClientError::Transport(
                    TransportError::PinBudgetExceeded { .. }
                ))
            ));
            assert_eq!(client.retired.borrow().len(), 1, "packed into, then kept");
        }
        assert_eq!((client.buffered_bytes(), fabric.pinned_bytes()), (0, 0));
    }
}
