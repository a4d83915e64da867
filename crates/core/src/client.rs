//! The compute-node side of the middleware (paper Stage 1).
//!
//! Applications keep their ADIOS-style output code: build a
//! [`bpio::ProcessGroup`] and hand it to [`PredataClient::write_pg`].
//! The client runs the registered compute-side passes, packs the group
//! into a self-describing chunk, exposes it for one-sided access, picks a
//! staging rank with the configured `Route()`, and sends the data-fetch
//! request — then returns immediately. The simulation resumes while the
//! staging area pulls the bulk bytes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bpio::ProcessGroup;
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
    /// Exposures not yet confirmed pulled: handle → (bytes, step).
    /// Keyed by handle so completions can be matched exactly and
    /// un-pulled dumps can be withdrawn ([`Self::reclaim_outstanding`]).
    outstanding: RefCell<HashMap<MemHandle, (usize, u64)>>,
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
        }
    }

    pub fn rank(&self) -> usize {
        self.endpoint.rank()
    }

    /// Asynchronous output of one process group: runs the compute-side
    /// passes, packs, exposes, routes, requests. Does not wait for the
    /// pull.
    ///
    /// The whole call is the simulation's blocked-in-output window — the
    /// `blocked` row of the perturbation view — and the pack / route /
    /// request hand-offs inside it are the first three stages of the
    /// chunk's lineage. (`wait_drained` is not attributed — it spans
    /// steps.)
    pub fn write_pg(&self, pg: ProcessGroup) -> Result<WriteReceipt, ClientError> {
        let step = pg.step;
        let src = self.rank() as u64;
        let _blocked = obs::span!("blocked", step);
        // Stage 1a: optional local first pass; results ride the request.
        let mut attrs = AttrList::new();
        for op in &self.ops {
            op.partial_calculate(&pg, &mut attrs);
        }
        // Stage 1b: pack into a self-describing contiguous buffer.
        let pack_span = obs::span!("pack", step).chunk(src);
        let chunk = PackedChunk::new(pg);
        let buf: Arc<[u8]> = chunk.pack()?.into();
        let bytes = buf.len();
        drop(pack_span.bytes(bytes as u64));
        // Stage 1c: expose + route + request.
        let handle = self.endpoint.expose(buf, step)?;
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
            return Err(e.into());
        }
        if lineage {
            obs::mark("request_sent", step).chunk(src);
        }
        self.outstanding.borrow_mut().insert(handle, (bytes, step));
        Ok(WriteReceipt {
            staging_rank,
            bytes,
            step,
        })
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
            outstanding.remove(&ev.handle);
        }
        while !outstanding.is_empty() {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout);
            }
            let ev = self.endpoint.wait_completion(remaining)?;
            outstanding.remove(&ev.handle);
        }
        Ok(())
    }

    /// Exposures not yet confirmed pulled.
    pub fn outstanding_writes(&self) -> usize {
        self.outstanding.borrow().len()
    }

    /// Withdraw every exposure the staging area hasn't pulled, freeing
    /// the pinned bytes and terminally marking each dump's lineage
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
            outstanding.remove(&ev.handle);
        }
        let src = self.rank() as u64;
        let mut reclaimed = 0usize;
        let mut reclaimed_bytes = 0u64;
        outstanding.retain(|&handle, &mut (bytes, step)| {
            match self.endpoint.reclaim(handle) {
                Some(n) => {
                    debug_assert_eq!(n, bytes);
                    obs::mark("truncated", step).chunk(src);
                    reclaimed += 1;
                    reclaimed_bytes += n as u64;
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
}
