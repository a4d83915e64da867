//! The compute-node side of the middleware (paper Stage 1).
//!
//! Applications keep their ADIOS-style output code: build a
//! [`bpio::ProcessGroup`] and hand it to [`PredataClient::write_pg`].
//! The client frames the group as a self-describing chunk, runs the
//! registered compute-side passes, exposes the chunk for one-sided
//! access, picks a staging rank with the configured `Route()`, and sends
//! the data-fetch request — then returns immediately. The simulation
//! resumes while the staging area pulls the bulk bytes.
//!
//! # No payload copy on the compute side
//!
//! `write_pg` takes the process group by value, so its arrays can be
//! exposed where they lie: the chunk is a gather — the `ffs` frame and
//! the PG's headers in a small header buffer, then the payloads in the
//! group's own arrays — handed to the fabric whole
//! ([`ComputeEndpoint::expose_gather`]). The staging rank's pull lands
//! those regions in a buffer of its own, so the one copy of a payload
//! byte is made on the staging side, off the simulation's thread. The
//! gather comes back with the pull's completion, and the group is freed
//! on this side, where it was allocated, when the client consumes the
//! completion: at the start of the next `write_pg`, which first consumes
//! every completion that has arrived, or in
//! [`wait_drained`](PredataClient::wait_drained). A staging rank wakes
//! this thread once per pull loop, not once per chunk.
//!
//! # Header buffers: one owner at a time
//!
//! In the steady state the header buffers allocate nothing. Each has one
//! owner at a time: the client frames a chunk into one of its free
//! headers, the gather owns it while the fabric holds the exposure, and
//! dropping the gather — its completion consumed, its exposure refused
//! or withdrawn because its fetch request never left, or its endpoint
//! dropped — sends it back to the client's free headers (an
//! [`EventQueue`], whichever thread drops the gather). Nothing is shared
//! read-only, so nothing needs a uniqueness test before it is written
//! again.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpio::ProcessGroup;
use ffs::AttrList;
use transport::evq::EventQueue;
use transport::{ComputeEndpoint, FetchRequest, Gather, Router, TransportError};

use crate::chunk::{ChunkError, ChunkGather, PackedChunk};
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
}

/// One compute process' PreDatA client.
pub struct PredataClient {
    endpoint: ComputeEndpoint,
    router: Arc<dyn Router>,
    ops: Vec<Arc<dyn ComputeSideOp>>,
    /// Exposures whose completion has not been consumed yet.
    outstanding: Cell<usize>,
    /// Header buffers no gather holds, to be framed into again (module
    /// docs).
    free_headers: EventQueue<Vec<u8>>,
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
            outstanding: Cell::new(0),
            free_headers: EventQueue::unbounded(),
        }
    }

    pub(crate) fn rank(&self) -> usize {
        self.endpoint.rank()
    }

    /// Asynchronous output of one process group: consumes the
    /// completions that have arrived, frames the group, runs the
    /// compute-side passes, exposes it, routes, requests. Does not wait
    /// for the pull, and copies no payload byte (module docs).
    ///
    /// The whole call is the simulation's blocked-in-output window — the
    /// `blocked` row of the perturbation view — and the pack / route /
    /// request hand-offs inside it are the first three stages of the
    /// chunk's lineage, all in the endpoint's registry. (`wait_drained`
    /// is not attributed — it spans steps.)
    pub fn write_pg(&self, pg: ProcessGroup) -> Result<WriteReceipt, ClientError> {
        let step = pg.step;
        // The one clock read both always-on rows (`blocked`, `pack`)
        // start from: framing, with the header buffer it frames into, is
        // the first thing the call does.
        let started = self.endpoint.obs().enabled().then(Instant::now);
        let receipt = self.write_pg_from(pg, started);
        if let Some(t) = started {
            let blocked = obs::Event::timed("blocked", step, t, t.elapsed());
            self.endpoint.obs().record(blocked);
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
        let obs = self.endpoint.obs();
        // Stage 1b: the self-describing chunk, framed into a header
        // buffer this client already owns (the pulled chunks' come home
        // as their completions are consumed); the payloads stay put.
        self.consume_arrived();
        let chunk = self.frame(pg)?;
        let bytes = chunk.len();
        if let Some(t) = started {
            let pack = obs::Event::timed("pack", step, t, t.elapsed());
            obs.record(pack.chunk(src).bytes(bytes as u64));
        }
        // Stage 1a: optional local first pass; results ride the request.
        // (After the framing, which does not need them, so that the
        // pack's row is the framing alone, with the consuming that
        // brings its header buffer home.)
        let mut attrs = AttrList::new();
        for op in &self.ops {
            op.partial_calculate(chunk.pg(), &mut attrs);
        }
        // Stage 1c: expose + route + request. The fabric owns the chunk,
        // header buffer and all, from here.
        let handle = self.endpoint.expose_gather(Box::new(chunk), step)?;
        let staging_rank = self.router.route(self.rank(), step);
        // Only the lineage view reads the `routed` and `request_sent`
        // marks, so they cost the simulation's thread nothing unless the
        // registry is logging events.
        let lineage = obs.detail();
        if lineage {
            obs::mark_in(obs, "routed", step).chunk(src);
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
            obs::mark_in(obs, "request_sent", step).chunk(src);
        }
        self.outstanding.set(self.outstanding.get() + 1);
        Ok(WriteReceipt {
            staging_rank,
            bytes,
        })
    }

    /// `pg` as a chunk, its headers framed into a free header buffer, or
    /// a new one; the buffer comes home when the chunk is dropped.
    fn frame(&self, pg: ProcessGroup) -> Result<ChunkGather, ChunkError> {
        let head = self.free_headers.try_poll().unwrap_or_default();
        ChunkGather::new(pg, head, self.free_headers.clone())
    }

    /// Consume every completion that has arrived, without blocking: each
    /// pulled chunk's group is freed and its header buffer comes home.
    /// (Saturating: the completion of a write whose request never left,
    /// its pull having won `reclaim`'s race, was never counted.)
    fn consume_arrived(&self) {
        let done = self.endpoint.poll_completions();
        self.outstanding
            .set(self.outstanding.get().saturating_sub(done));
    }

    /// Bytes buffered on this node, exposed and not yet pulled — the
    /// compute-side memory cost of asynchronous staging — as of the last
    /// [`write_pg`](Self::write_pg) or
    /// [`wait_drained`](Self::wait_drained), each of which first
    /// consumes the completions that have arrived.
    pub fn buffered_bytes(&self) -> usize {
        self.endpoint.pinned_bytes()
    }

    /// Wait until all outstanding exposures have been pulled (buffer
    /// reuse point; a simulation calls this before *reusing* its output
    /// buffers, not after every write).
    pub fn wait_drained(&self, timeout: Duration) -> Result<(), TransportError> {
        let deadline = Instant::now() + timeout;
        self.consume_arrived();
        while self.outstanding.get() > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout);
            }
            self.endpoint.wait_completion(remaining)?;
            self.outstanding.set(self.outstanding.get() - 1);
        }
        Ok(())
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

    fn pull(staging: &transport::StagingEndpoint) -> Vec<u8> {
        let req = staging.recv_request(Duration::from_secs(1)).unwrap();
        let buf = staging.rdma_get(&req).unwrap();
        assert_eq!(buf.len(), req.chunk_bytes, "exposed exactly the chunk");
        buf
    }

    /// Where `client`'s free header buffers are, in address order; they
    /// stay free.
    fn free_heads(client: &PredataClient) -> Vec<*const u8> {
        let heads: Vec<Vec<u8>> = std::iter::from_fn(|| client.free_headers.try_poll()).collect();
        let mut at: Vec<_> = heads.iter().map(|h| h.as_ptr()).collect();
        heads
            .into_iter()
            .for_each(|h| client.free_headers.submit(h));
        at.sort();
        at
    }

    #[test]
    fn a_pulled_chunk_unpacks_to_the_group_written() {
        let (_fabric, client, staging) = one_client(None);
        let pg = make_particle_pg(0, 4, (0..96).map(|i| i as f64 * 0.5).collect());
        let receipt = client.write_pg(pg.clone()).unwrap();
        let landed = pull(&staging);
        assert_eq!(landed.len(), receipt.bytes);
        assert_eq!(
            &landed[..],
            &PackedChunk::new(pg.clone()).pack().unwrap()[..]
        );
        assert_eq!(PackedChunk::unpack(&landed).unwrap(), PackedChunk::new(pg));
    }

    #[test]
    fn the_exposed_payload_is_the_groups_own_array() {
        let (_fabric, client, _staging) = one_client(None);
        let pg = make_particle_pg(0, 1, vec![1.5; 64]);
        let arrays: Vec<*const u8> = pg
            .vars
            .iter()
            .filter(|v| v.data.byte_len() > 0)
            .map(|v| v.data.as_le_bytes().as_ptr())
            .collect();
        let chunk = client.frame(pg).unwrap();
        let mut regions = Vec::new();
        chunk.regions(&mut |r| regions.push(r.as_ptr()));
        for at in arrays {
            assert!(regions.contains(&at), "a payload was copied");
        }
    }

    #[test]
    fn header_buffers_are_recycled_once_the_pull_lets_go() {
        let (_fabric, client, staging) = one_client(None);
        let pg = |step: u64| make_particle_pg(0, step, vec![step as f64; 64]);

        client.write_pg(pg(1)).unwrap();
        assert!(free_heads(&client).is_empty(), "the gather holds it");
        let first = pull(&staging);
        assert!(
            free_heads(&client).is_empty(),
            "it comes home with the completion"
        );
        client.wait_drained(Duration::from_secs(1)).unwrap();
        let head = free_heads(&client);
        assert_eq!(head.len(), 1, "home once the completion is consumed");
        assert_ne!(first.as_ptr(), head[0], "the pull lands in its own buffer");
        let snapshot = first.clone();

        // The next dump frames into it, and the landed chunk is intact.
        client.write_pg(pg(2)).unwrap();
        assert!(free_heads(&client).is_empty(), "framed into again");
        assert_eq!(first, snapshot);
        assert_eq!(PackedChunk::unpack(&first).unwrap().step, 1);
        assert_eq!(PackedChunk::unpack(&pull(&staging)).unwrap().step, 2);
        client.wait_drained(Duration::from_secs(1)).unwrap();
        assert_eq!(free_heads(&client), head, "the same buffer came home");

        // Two dumps in flight take two buffers; once both are pulled
        // and drained, neither is allocated again.
        client.write_pg(pg(3)).unwrap();
        client.write_pg(pg(4)).unwrap();
        pull(&staging);
        pull(&staging);
        client.wait_drained(Duration::from_secs(1)).unwrap();
        let heads = free_heads(&client);
        assert_eq!(heads.len(), 2);
        assert!(heads.contains(&head[0]));
        client.write_pg(pg(5)).unwrap();
        client.write_pg(pg(6)).unwrap();
        pull(&staging);
        pull(&staging);
        client.wait_drained(Duration::from_secs(1)).unwrap();
        assert_eq!(free_heads(&client), heads);
    }

    /// A client that never calls `wait_drained` still lets go of every
    /// pulled dump: the next `write_pg` consumes its completion, so what
    /// stays buffered is the dump not yet pulled, and one header buffer
    /// serves every dump.
    #[test]
    fn a_client_that_never_drains_keeps_only_what_is_not_pulled() {
        let (_fabric, client, staging) = one_client(None);
        let mut chunk = 0;
        for step in 0..8 {
            let pg = make_particle_pg(0, step, vec![step as f64; 64]);
            chunk = client.write_pg(pg).unwrap().bytes;
            assert!(
                client.buffered_bytes() <= chunk,
                "after dump {step}, {} B buffered for {chunk} B chunks",
                client.buffered_bytes()
            );
            std::thread::scope(|s| s.spawn(|| pull(&staging)).join().unwrap());
        }
        assert_eq!(
            client.buffered_bytes(),
            chunk,
            "the last dump waits for a next write or a drain to be consumed"
        );
        client.wait_drained(Duration::from_secs(1)).unwrap();
        assert_eq!(client.buffered_bytes(), 0);
        assert_eq!(free_heads(&client).len(), 1);
    }

    /// A number from this thread's `/proc/thread-self/status`.
    #[cfg(target_os = "linux")]
    fn thread_status(field: &str) -> u64 {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let line = status.lines().find_map(|l| l.strip_prefix(field));
        line.and_then(|v| v.trim_start_matches(':').trim().parse().ok())
            .unwrap_or_else(|| panic!("no {field} in {status}"))
    }

    /// Whether thread `tid` of this process is asleep.
    #[cfg(target_os = "linux")]
    fn asleep(tid: &str) -> bool {
        let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap();
        let state = stat.rsplit_once(") ").map(|(_, rest)| &rest[..1]);
        state == Some("S")
    }

    /// The simulation's thread parks in `wait_drained` for 64 chunks;
    /// the staging thread pulls them in one completion batch, each pull
    /// once the simulation's thread is asleep. It is woken once, when the
    /// batch ends, not once per chunk: a woken thread counts a voluntary
    /// context switch each time it parks again. Waking per pull measured
    /// 64 here.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_pull_loop_wakes_the_exposer_once() {
        const CHUNKS: u64 = 64;
        let (_fabric, client, staging) = one_client(None);
        for step in 0..CHUNKS {
            client
                .write_pg(make_particle_pg(0, step, vec![step as f64; 64]))
                .unwrap();
        }
        let me = std::fs::read_link("/proc/thread-self").unwrap();
        let tid = me.file_name().unwrap().to_string_lossy().into_owned();
        let switches = std::thread::scope(|s| {
            s.spawn(|| {
                let _batch = staging.completion_batch();
                for _ in 0..CHUNKS {
                    while !asleep(&tid) {
                        std::thread::yield_now();
                    }
                    pull(&staging);
                }
            });
            let before = thread_status("voluntary_ctxt_switches");
            client.wait_drained(Duration::from_secs(30)).unwrap();
            thread_status("voluntary_ctxt_switches") - before
        });
        assert_eq!(client.buffered_bytes(), 0);
        assert!(
            switches <= 4,
            "the exposer parked {switches} times draining {CHUNKS} chunks"
        );
    }

    #[test]
    fn a_refused_exposure_keeps_its_header_buffer() {
        let (fabric, client, _staging) = one_client(Some(16));
        let mut kept = None;
        for step in 0..2 {
            let err = client.write_pg(make_particle_pg(0, step, vec![0.0; 64]));
            assert!(matches!(
                err,
                Err(ClientError::Transport(
                    TransportError::PinBudgetExceeded { .. }
                ))
            ));
            let heads = free_heads(&client);
            assert_eq!(heads.len(), 1, "framed into, then home");
            assert_eq!(
                *kept.get_or_insert(heads[0]),
                heads[0],
                "and framed into again"
            );
        }
        assert_eq!((client.buffered_bytes(), fabric.pinned_bytes()), (0, 0));
    }
}
