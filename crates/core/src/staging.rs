//! The staging-area runtime (paper Stages 2–4, Fig. 5).
//!
//! The staging area runs as its own SPMD program: each rank owns one
//! [`transport::StagingEndpoint`], a share of the compute ranks (from the
//! `Route()` inverse map), and a full set of operator instances. Per I/O
//! step, [`StagingRank::run_step`] is four stages, each a private method
//! with typed inputs and outputs:
//!
//! 1. **gather** — collect the fetch requests of the compute ranks this
//!    rank serves (requests for later steps are stashed, a request for
//!    an earlier one is [`StagingError::StepSkew`]);
//! 2. **aggregate + initialize** — build the global [`Aggregates`] with
//!    one small staging-wide exchange and `initialize` every operator;
//! 3. **pull + map** — pull every chunk in the order and pacing of the
//!    [`transport::PullPolicy`], decode and map each one, and append the
//!    outputs to the operators' streams in that order;
//! 4. **exchange + step end** — the one `exchange` of the step: every
//!    operator's combine, one shuffle for all of them, every reduce, every
//!    finalize in operator order; then the [`StepReport`].
//!
//! Stages 1 and 3 can fail; `run_step` has one error exit, which closes
//! the lineage record of every chunk gathered so far.
//!
//! # The pull → decode → map loop (stage 3)
//!
//! Stage 3 is one loop on the rank thread (DESIGN.md §3.1 has the long
//! form). For each request, in policy order: wait until the policy is
//! willing, pull the chunk, decode it into the rank's kept chunk, release
//! the pull buffer, and append every operator's
//! [`crate::op::ChunkMapper`] output to its stream:
//!
//! ```text
//!  rank thread:  wait_ready → rdma_get → unpack_into kept chunk → drop buffer → map_chunk × ops ──▶ streams
//!    policy order + pacing, one get per chunk, retried, skippable                    (policy order)
//! ```
//!
//! *Decoding* goes into one [`PackedChunk`] the rank keeps for its whole
//! life ([`PackedChunk::unpack_into`]): its group name, variable names,
//! dimension lists and arrays are overwritten in place, so a chunk of the
//! shape the last one had costs its payload copies and allocates nothing
//! in the decode.
//!
//! *Pulling* is the paper's server-directed, scheduled pull: one RDMA
//! get per chunk, serially, each through the same path — one
//! `rdma_get` (which consults the fabric's fault plan, if any),
//! retried under [`transport::retry`]'s one rule (at most four
//! attempts), skipped when the retries exhaust on a transient error
//! ([`StepReport::truncated`]). The loop runs inside one
//! [`StagingEndpoint::completion_batch`]: every pull's completion (and
//! the gather it carries home) is queued at once, and each exposer is
//! woken once, when the loop ends — so a simulation thread parked for
//! its completions waits at most one `pull_map`, and one that polls
//! does not wait at all.
//!
//! *Mapping* happens where and as soon as the chunk is pulled, so each
//! operator's stream is in policy order by construction and a step
//! spawns no thread and builds no queue. The `pull`, `decode` and `map`
//! rows of the rank's registry are spans of this one thread: together
//! they never exceed the `pull_map` row.
//!
//! # One deadline per step
//!
//! `run_step` fixes one deadline when it starts,
//! [`StagingConfig::step_timeout`] away, and every wait of the step is
//! bounded by it: each gather receive waits until the deadline (a
//! request that is late is waited for, never retried), and the pull
//! policy's pacing waits get the time that remains. A step that reaches
//! its deadline waiting ends with [`TransportError::Timeout`]. Pull
//! retries are bounded by their attempt cap alone.
//!
//! All waiting is condvar-based; there are no sleep-poll loops.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minimpi::{Comm, PoisonOnUnwind, World};
use transport::{retry, FetchRequest, PullPolicy, Router, StagingEndpoint, TransportError};

use crate::agg::Aggregates;
use crate::chunk::{ChunkError, PackedChunk};
use crate::op::{exchange, ChunkMapper, OpCtx, OpResult, StreamOp, Tagged};

/// Mark chunk `(src_rank, step)` truncated on staging rank `rank`: its
/// pull was given up, or its step abandoned, and it will never reach
/// `written`. A terminal lineage stage.
fn mark_truncated(obs: &obs::Registry, rank: usize, src_rank: usize, step: u64) {
    obs::mark_in(obs, "truncated", step)
        .rank(rank)
        .chunk(src_rank as u64);
}

/// Staging-side failures.
#[derive(Debug)]
pub enum StagingError {
    Transport(TransportError),
    Chunk(ChunkError),
    /// A request arrived for a step other than the one being gathered —
    /// compute ranks must move through steps in lockstep.
    StepSkew {
        expected: u64,
        got: u64,
    },
    /// Filesystem setup failed (e.g. the output directory could not be
    /// created).
    Io(std::io::Error),
    /// The staging thread for this rank panicked. The panic payload is
    /// swallowed by the thread boundary; the rank identifies the culprit.
    WorkerPanicked(usize),
}

impl std::fmt::Display for StagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StagingError::Transport(e) => write!(f, "staging transport: {e}"),
            StagingError::Chunk(e) => write!(f, "staging decode: {e}"),
            StagingError::StepSkew { expected, got } => {
                write!(f, "request step skew: gathering step {expected}, got {got}")
            }
            StagingError::Io(e) => write!(f, "staging io: {e}"),
            StagingError::WorkerPanicked(rank) => {
                write!(f, "staging rank {rank} panicked")
            }
        }
    }
}

impl std::error::Error for StagingError {
    /// The wrapped transport/decode/io failure, so error chains render
    /// across crate boundaries (`anyhow`-style `{:#}` displays and the
    /// report's failure column both walk `source()`).
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StagingError::Transport(e) => Some(e),
            StagingError::Chunk(e) => Some(e),
            StagingError::Io(e) => Some(e),
            StagingError::StepSkew { .. } | StagingError::WorkerPanicked(_) => None,
        }
    }
}

impl From<TransportError> for StagingError {
    fn from(e: TransportError) -> Self {
        StagingError::Transport(e)
    }
}

impl From<ChunkError> for StagingError {
    fn from(e: ChunkError) -> Self {
        StagingError::Chunk(e)
    }
}

impl From<std::io::Error> for StagingError {
    fn from(e: std::io::Error) -> Self {
        StagingError::Io(e)
    }
}

/// Output of the pull + map stage: what the step's report says about
/// the chunks, and the per-operator intermediate streams.
#[derive(Default)]
struct Mapped {
    /// Compute ranks whose chunks were mapped, in policy order.
    pull_order: Vec<usize>,
    /// Compute ranks whose chunks were skipped, in policy order.
    truncated: Vec<usize>,
    bytes_pulled: u64,
    /// Every operator's `map_chunk` outputs, concatenated in policy order.
    per_op: Vec<Vec<Tagged>>,
}

/// Static configuration of the staging area.
#[derive(Clone)]
pub struct StagingConfig {
    /// Number of compute ranks feeding the area.
    pub(crate) n_compute: usize,
    /// Directory for operator outputs.
    pub(crate) out_dir: PathBuf,
    /// How long one step may wait, from the start of
    /// [`StagingRank::run_step`]: for its requests and for the pull
    /// policy's pacing, all together (30 s by default).
    ///
    /// Under [`StagingArea::spawn`] a rank starts step s + 1 as soon as
    /// step s ends, so this deadline also covers the wait for the step's
    /// *first* request — the simulation's compute time between two
    /// dumps. It must exceed the dump interval: a run whose dumps are
    /// further apart fails with [`TransportError::Timeout`] though
    /// nothing is wrong.
    pub step_timeout: Duration,
}

impl StagingConfig {
    pub fn new(n_compute: usize, out_dir: impl Into<PathBuf>) -> Self {
        StagingConfig {
            n_compute,
            out_dir: out_dir.into(),
            step_timeout: Duration::from_secs(30),
        }
    }
}

/// What one staging rank did for one step.
#[derive(Debug)]
pub struct StepReport {
    pub step: u64,
    /// Chunks this rank pulled.
    pub chunks: usize,
    /// Bulk bytes this rank pulled.
    pub bytes_pulled: u64,
    /// Compute ranks in pull order (for scheduling-policy inspection).
    pub pull_order: Vec<usize>,
    /// Compute ranks whose chunks were abandoned after retry
    /// exhaustion: the step's outputs exclude them (and say so in
    /// lineage). Empty on a healthy step.
    pub truncated: Vec<usize>,
    /// Per-operator results.
    pub results: Vec<OpResult>,
}

impl StepReport {
    /// Whether this step ran degraded: chunks were truncated.
    pub fn is_degraded(&self) -> bool {
        !self.truncated.is_empty()
    }
}

/// One staging rank: endpoint + communicator + operators + policy.
pub struct StagingRank {
    comm: Comm,
    endpoint: StagingEndpoint,
    router: Arc<dyn Router>,
    policy: Box<dyn PullPolicy>,
    ops: Vec<Box<dyn StreamOp>>,
    cfg: StagingConfig,
    /// Requests that arrived early for future steps.
    stashed: Vec<FetchRequest>,
    /// The chunk every pull is decoded into: its group, names, dimension
    /// lists and arrays are reused from chunk to chunk and step to step.
    chunk: PackedChunk,
}

/// The operator context of `step` on the rank that owns `comm` and `cfg`
/// (a free function so a stage can hold it beside `&mut self.ops`).
fn op_ctx<'a>(comm: &'a Comm, cfg: &'a StagingConfig, step: u64, agg: &'a Aggregates) -> OpCtx<'a> {
    OpCtx {
        comm,
        out_dir: &cfg.out_dir,
        step,
        n_compute: cfg.n_compute,
        agg: Some(agg),
    }
}

impl StagingRank {
    /// Create one staging rank, creating `cfg.out_dir` if needed.
    ///
    /// Fails with [`StagingError::Io`] when the output directory cannot
    /// be created — a misconfigured path must surface at startup, not as
    /// mysterious per-step write failures later.
    ///
    /// The rank records into its endpoint's registry, and binds it to
    /// `comm` so the operators' context ([`OpCtx::comm`]) reaches it too.
    /// A fault plan reaches the rank only through its endpoint: the
    /// fabric faults `rdma_get` itself, and the staging collectives are
    /// never faulted.
    pub fn new(
        mut comm: Comm,
        endpoint: StagingEndpoint,
        router: Arc<dyn Router>,
        policy: Box<dyn PullPolicy>,
        ops: Vec<Box<dyn StreamOp>>,
        cfg: StagingConfig,
    ) -> Result<Self, StagingError> {
        std::fs::create_dir_all(&cfg.out_dir)?;
        comm.set_obs(endpoint.obs().clone());
        Ok(StagingRank {
            comm,
            endpoint,
            router,
            policy,
            ops,
            cfg,
            stashed: Vec::new(),
            chunk: PackedChunk::default(),
        })
    }

    /// Process one I/O step end to end: the four stages of the module
    /// docs under the step's one deadline, and the one exit of a step
    /// that fails in one of them.
    pub fn run_step(&mut self, step: u64) -> Result<StepReport, StagingError> {
        let deadline = Instant::now() + self.cfg.step_timeout;
        // Filled by `gather` and kept here, so that whichever stage
        // abandons the step, the exit below sees what had arrived.
        let mut requests = Vec::new();
        let report = (|| {
            self.gather(step, deadline, &mut requests)?;
            let agg = self.aggregate(step, &requests);
            let mapped = self.pull_map(step, deadline, &mut requests, &agg)?;
            Ok(self.exchange(step, &agg, mapped))
        })();
        if report.is_err() {
            // A failed or timed-out step leaves terminal lineage
            // records, not dangling ones.
            for r in &requests {
                mark_truncated(self.comm.obs(), self.comm.rank(), r.src_rank, step);
            }
        }
        report
    }

    /// Stage 1 (paper stage 2a): fill `requests` with this step's fetch
    /// request from every compute rank this rank serves, waiting until
    /// `deadline` at most. Requests that arrive early for a later step
    /// are stashed for its gather; one for an earlier step is
    /// [`StagingError::StepSkew`].
    fn gather(
        &mut self,
        step: u64,
        deadline: Instant,
        requests: &mut Vec<FetchRequest>,
    ) -> Result<(), StagingError> {
        let obs = self.comm.obs();
        let _span = obs::span_in(obs, "gather", step).rank(self.comm.rank());
        let n_served = self
            .router
            .served_by(self.comm.rank(), self.cfg.n_compute, step)
            .len();
        let (now, later) = std::mem::take(&mut self.stashed)
            .into_iter()
            .partition(|r| r.io_step == step);
        *requests = now;
        self.stashed = later;
        while requests.len() < n_served {
            let left = deadline.saturating_duration_since(Instant::now());
            let r = self.endpoint.recv_request(left)?;
            if r.io_step == step {
                requests.push(r);
            } else if r.io_step > step {
                self.stashed.push(r);
            } else {
                return Err(StagingError::StepSkew {
                    expected: step,
                    got: r.io_step,
                });
            }
        }
        Ok(())
    }

    /// Stage 2 (paper stage 2b): exchange the partial results attached
    /// to the requests staging-wide, and `initialize` every operator
    /// with the global [`Aggregates`]. Collective.
    fn aggregate(&mut self, step: u64, requests: &[FetchRequest]) -> Aggregates {
        let _span = obs::span_in(self.comm.obs(), "aggregate", step).rank(self.comm.rank());
        let local = requests.iter().map(|r| (r.src_rank, &r.attrs));
        let agg = Aggregates::build(local, &self.comm);
        let ctx = op_ctx(&self.comm, &self.cfg, step, &agg);
        for op in &mut self.ops {
            op.initialize(&agg, &ctx);
        }
        agg
    }

    /// Stage 3 (paper stages 3 + 4a): put `requests` in policy order,
    /// pull every chunk, decode and map it, and append the outputs to the
    /// operators' streams in that order — the loop of the module docs.
    fn pull_map(
        &mut self,
        step: u64,
        deadline: Instant,
        requests: &mut Vec<FetchRequest>,
        agg: &Aggregates,
    ) -> Result<Mapped, StagingError> {
        self.policy.order(requests);
        let mut out = Mapped {
            per_op: vec![Vec::new(); self.ops.len()],
            ..Mapped::default()
        };
        if requests.is_empty() {
            return Ok(out);
        }
        let (my_rank, obs) = (self.comm.rank(), self.comm.obs());
        // Wall time of the whole rank-local stage. Stage 4 is collective —
        // every rank waits for the slowest inside it — so only this stage
        // carries a per-rank imbalance signal.
        let _span = obs::span_in(obs, "pull_map", step).rank(my_rank);
        // Map state frozen by `initialize`, and each operator's map row.
        let mappers: Vec<(Arc<dyn ChunkMapper>, &'static str)> = self
            .ops
            .iter()
            .map(|op| (op.mapper(), op.stage_rows().map))
            .collect();
        let map_ctx = op_ctx(&self.comm, &self.cfg, step, agg).map_ctx();
        // `stage` of the chunk from `src_rank` ran from `t0` to `t1` —
        // clock reads the caller made anyway.
        let event = |stage, src_rank: usize, t0: Instant, t1: Instant, bytes: usize| {
            let event = obs::Event::timed(stage, step, t0, t1 - t0)
                .rank(my_rank)
                .chunk(src_rank as u64)
                .bytes(bytes as u64);
            obs.record(event);
        };
        let left = || deadline.saturating_duration_since(Instant::now());
        // Each exposer is woken once, when the loop ends (however it
        // ends), not once per chunk.
        let _batch = self.endpoint.completion_batch();
        for req in requests.iter() {
            // The policy's deferral is the chunk's scheduling wait — the
            // rate/phase control the paper bounds interference with. It
            // is asked again when it comes back unready before the step's
            // deadline; one that never turns ready ends the step like
            // requests that never arrive.
            let t_wait = Instant::now();
            while !self.policy.wait_ready(req, left(), obs) {
                if left().is_zero() {
                    return Err(TransportError::Timeout.into());
                }
            }
            let t_pull = Instant::now();
            event("pull_wait", req.src_rank, t_wait, t_pull, 0);
            // The pull runs under the retry rule: transient errors
            // (timeouts, stale handles, the fabric's injected faults)
            // back off and re-attempt; exhausting them skips this chunk —
            // degradation, not abort. Any other error abandons the step.
            let src_rank = req.src_rank as u64;
            let salt = (src_rank << 32) ^ step;
            let pulled = retry::retry(obs, "pull", salt, || self.endpoint.rdma_get(req));
            let buf = match pulled {
                Ok(buf) => buf,
                // A skipped chunk leaves the streams entirely — excluded,
                // counted, and terminally marked in lineage, never
                // silently half-applied.
                Err(e) if e.is_retryable() => {
                    mark_truncated(obs, my_rank, req.src_rank, step);
                    obs.counter("staging.truncated_chunks", &[]).inc();
                    out.truncated.push(req.src_rank);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            let t_decode = Instant::now();
            event("pull", req.src_rank, t_pull, t_decode, buf.len());
            self.chunk.unpack_into(&buf)?;
            let t_map = Instant::now();
            out.bytes_pulled += buf.len() as u64;
            // The kept chunk owns the data now; the buffer the pull landed
            // in, this rank's own, is let go.
            drop(buf);
            for (stream, (mapper, row)) in out.per_op.iter_mut().zip(&mappers) {
                let _s = obs::span_in(obs, row, step).rank(my_rank).chunk(src_rank);
                stream.extend(mapper.map_chunk(&self.chunk, &map_ctx));
            }
            let t_done = Instant::now();
            out.pull_order.push(req.src_rank);
            // The `decode` and `map` rows are the rank thread's busy time
            // (`Snapshot::worker_busy_ns`).
            event("decode", req.src_rank, t_decode, t_map, 0);
            event("map", req.src_rank, t_map, t_done, 0);
        }
        Ok(out)
    }

    /// Stage 4 (paper stage 4b and the step's end): the one
    /// [`exchange`] of every operator's mapped stream — combine, one
    /// shuffle, reduce, finalize, each chunk's lineage close-out — and
    /// the report. Collective.
    fn exchange(&mut self, step: u64, agg: &Aggregates, mapped: Mapped) -> StepReport {
        let Mapped {
            pull_order,
            truncated,
            bytes_pulled,
            per_op,
        } = mapped;
        let ctx = op_ctx(&self.comm, &self.cfg, step, agg);
        let mut ops: Vec<_> = self
            .ops
            .iter_mut()
            .map(|op| op.as_mut() as &mut dyn StreamOp)
            .collect();
        let results = exchange(&mut ops, per_op, &ctx, &pull_order);
        let chunks = pull_order.len() + truncated.len();
        StepReport {
            step,
            chunks,
            bytes_pulled,
            pull_order,
            truncated,
            results,
        }
    }
}

/// Factory signature for per-rank operator sets.
pub(crate) type OpsFactory = dyn Fn(usize) -> Vec<Box<dyn StreamOp>> + Send + Sync;
/// Factory signature for per-rank pull policies.
pub(crate) type PolicyFactory = dyn Fn(usize) -> Box<dyn PullPolicy> + Send + Sync;

/// What one staging rank's thread produces: its per-step reports, or
/// the error that stopped it.
type RankOutcome = Result<Vec<StepReport>, StagingError>;

/// Orchestrates a whole staging area on threads: its own "MPI program",
/// launched independently from the simulation (paper §IV-C).
pub struct StagingArea {
    /// `(rank, handle)` so a panicked thread can be blamed by rank.
    handles: Vec<(usize, std::thread::JoinHandle<RankOutcome>)>,
    /// The endpoints' registry, exported at [`join`](StagingArea::join).
    obs: obs::Registry,
}

impl StagingArea {
    /// Launch one thread per staging endpoint, each processing steps
    /// `0..n_steps`. `ops` and `policy` build each rank's instances.
    ///
    /// A rank that stops early — its thread unwinds, or it returns an
    /// error and so runs no further collective — marks itself dead in
    /// the area's `minimpi` world, which wakes every peer parked in a
    /// collective (the peer panics with "rank N died") instead of
    /// leaving it to wait for ever.
    pub fn spawn(
        endpoints: Vec<StagingEndpoint>,
        router: Arc<dyn Router>,
        ops: Arc<OpsFactory>,
        policy: Arc<PolicyFactory>,
        cfg: StagingConfig,
        n_steps: u64,
    ) -> StagingArea {
        let n = endpoints.len();
        let (world, comms) = World::with_size(n);
        let obs = endpoints[0].obs().clone();
        let handles = endpoints
            .into_iter()
            .zip(comms)
            .map(|(endpoint, comm)| {
                let router = Arc::clone(&router);
                let ops = Arc::clone(&ops);
                let policy = Arc::clone(&policy);
                let cfg = cfg.clone();
                let rank = comm.rank();
                let guard = PoisonOnUnwind(Arc::clone(&world), rank);
                let handle = std::thread::Builder::new()
                    .name(format!("staging{}", endpoint.rank()))
                    .spawn(move || {
                        let out: RankOutcome =
                            StagingRank::new(comm, endpoint, router, policy(rank), ops(rank), cfg)
                                .and_then(|mut sr| (0..n_steps).map(|s| sr.run_step(s)).collect());
                        if out.is_err() {
                            guard.0.poison(rank);
                        }
                        out
                    })
                    .expect("spawn staging thread");
                (rank, handle)
            })
            .collect();
        StagingArea { handles, obs }
    }

    /// Wait for every staging rank; returns per-rank step reports. A
    /// panicking rank surfaces as [`StagingError::WorkerPanicked`] in its
    /// report slot instead of crashing the harness, and so does every
    /// peer that its death (or another rank's error) woke out of a
    /// collective; the other ranks' results are still returned.
    ///
    /// On the way out, honours the obs export contract for the
    /// endpoints' registry: writes a JSON metrics snapshot where its
    /// export path is set (`PREDATA_METRICS` for the global one), and
    /// flushes the Chrome trace where its trace path is
    /// (`PREDATA_TRACE`).
    pub fn join(self) -> Vec<Result<Vec<StepReport>, StagingError>> {
        let reports = self
            .handles
            .into_iter()
            .map(|(rank, h)| h.join().unwrap_or(Err(StagingError::WorkerPanicked(rank))))
            .collect();
        if let Err(e) = self.obs.export() {
            eprintln!("warning: PREDATA_METRICS / PREDATA_TRACE export failed: {e}");
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PredataClient;
    use crate::op::MapCtx;
    use crate::ops::HistogramOp;
    use crate::schema::make_particle_pg;
    use transport::{
        BlockRouter, Fabric, FaultKind, FaultPlan, FifoPolicy, LargestFirstPolicy,
        RateLimitedPolicy,
    };

    fn out_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("staging-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The only staging rank of its area, for driving stages directly.
    fn lone_rank(
        stagings: Vec<StagingEndpoint>,
        router: Arc<dyn Router>,
        policy: Box<dyn PullPolicy>,
        ops: Vec<Box<dyn StreamOp>>,
        cfg: StagingConfig,
    ) -> StagingRank {
        let (_world, mut comms) = World::with_size(1);
        let endpoint = stagings.into_iter().next().unwrap();
        StagingRank::new(comms.remove(0), endpoint, router, policy, ops, cfg).unwrap()
    }

    /// `area.join()`, which must come back within 5 s: a rank stranded
    /// by a peer that stopped would park it for ever.
    fn join_within_5s(area: StagingArea) -> Vec<RankOutcome> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(area.join()));
        rx.recv_timeout(Duration::from_secs(5))
            .expect("a staging rank is still parked 5 s after its peer stopped")
    }

    /// 4 compute ranks → 2 staging ranks, histogram over column 0,
    /// 2 steps. Verifies counts, routing, and streaming.
    #[test]
    fn end_to_end_histogram_two_steps() {
        let n_compute = 4;
        let n_staging = 2;
        let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
        let dir = out_dir("e2e");

        let area = StagingArea::spawn(
            stagings,
            Arc::clone(&router),
            Arc::new(|_| vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>]),
            Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
            StagingConfig::new(n_compute, &dir),
            2,
        );

        // Compute side: each rank writes 8 particles per step, x spread
        // uniformly over [0, 16).
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| {
                PredataClient::new(
                    e,
                    Arc::clone(&router),
                    vec![Arc::new(HistogramOp::new(vec![0], 4))],
                )
            })
            .collect();
        for step in 0..2u64 {
            for (r, c) in clients.iter().enumerate() {
                let rows: Vec<f64> = (0..4)
                    .flat_map(|i| vec![(r * 4 + i) as f64, 0., 0., 0., 0., 0., r as f64, i as f64])
                    .collect();
                c.write_pg(make_particle_pg(r as u64, step, rows)).unwrap();
            }
        }

        let reports = area.join();
        let mut total_hist = vec![0u64; 4];
        for rank_reports in reports {
            let steps = rank_reports.expect("staging rank succeeded");
            assert_eq!(steps.len(), 2);
            for rep in steps {
                assert_eq!(rep.chunks, 2, "block router: 2 compute ranks each");
                for res in &rep.results {
                    if let Some(ffs::Value::ArrU64(bins)) = res.values.get("hist_x") {
                        for (i, b) in bins.iter().enumerate() {
                            total_hist[i] += b;
                        }
                    }
                }
            }
        }
        // 16 values 0..16 per step × 2 steps over 4 bins of width 4.
        assert_eq!(total_hist, vec![8, 8, 8, 8]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pull_policy_controls_order() {
        let n_compute = 3;
        let (_fabric, computes, stagings) = Fabric::new(n_compute, 1, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 1));
        let dir = out_dir("order");

        let area = StagingArea::spawn(
            stagings,
            Arc::clone(&router),
            Arc::new(|_| Vec::new()),
            Arc::new(|_| Box::new(LargestFirstPolicy) as Box<dyn PullPolicy>),
            StagingConfig::new(n_compute, &dir),
            1,
        );

        // Rank r writes r+1 particles → sizes 1 < 2 < 3.
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
            .collect();
        for (r, c) in clients.iter().enumerate() {
            c.write_pg(make_particle_pg(r as u64, 0, vec![0.0; (r + 1) * 8]))
                .unwrap();
        }

        let reports = area.join();
        let rep = &reports[0].as_ref().unwrap()[0];
        assert_eq!(rep.pull_order, vec![2, 1, 0], "largest chunk first");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_request_times_out() {
        let (_fabric, _computes, stagings) = Fabric::new(2, 1, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(2, 1));
        let dir = out_dir("timeout");
        let mut cfg = StagingConfig::new(2, &dir);
        cfg.step_timeout = Duration::from_millis(30);
        let area = StagingArea::spawn(
            stagings,
            router,
            Arc::new(|_| Vec::new()),
            Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
            cfg,
            1,
        );
        // Nobody writes: staging must fail with a timeout, not hang.
        let reports = area.join();
        assert!(matches!(
            reports[0],
            Err(StagingError::Transport(TransportError::Timeout))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The step's deadline is fixed when `run_step` starts, not restarted
    /// per request: with T = 300 ms, rank 0 writing at once, rank 1
    /// after 2T/3 and rank 2 never, the step times out at T — not a
    /// full T after rank 1's request.
    #[test]
    fn one_deadline_bounds_the_whole_gather() {
        const T: Duration = Duration::from_millis(300);
        let (_fabric, computes, stagings) = Fabric::new(3, 1, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(3, 1));
        let dir = out_dir("one-deadline");
        // Rank 2's client is held, never written with, until the end.
        let mut clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
            .collect();
        let _silent = clients.pop();
        let mut cfg = StagingConfig::new(3, &dir);
        cfg.step_timeout = T;
        let mut sr = lone_rank(stagings, router, Box::new(FifoPolicy), Vec::new(), cfg);
        let started = Instant::now();
        let err = std::thread::scope(|s| {
            s.spawn(move || {
                for (r, client) in clients.iter().enumerate() {
                    std::thread::sleep(T * 2 / 3 * r as u32);
                    client
                        .write_pg(make_particle_pg(r as u64, 0, vec![0.0; 8]))
                        .unwrap();
                }
            });
            sr.run_step(0).unwrap_err()
        });
        let took = started.elapsed();
        assert!(
            matches!(err, StagingError::Transport(TransportError::Timeout)),
            "{err:?}"
        );
        assert!(took >= T && took < T * 2 / 3 + T, "{took:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A request that arrives late but inside the deadline is waited
    /// for, not retried: the step completes and no retry is counted.
    #[test]
    fn a_late_request_is_waited_for_not_retried() {
        const T: Duration = Duration::from_millis(300);
        let obs = obs::Registry::new();
        let (_fabric, mut computes, stagings) = Fabric::with_faults(1, 1, None, None, obs.clone());
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(1, 1));
        let dir = out_dir("late-request");
        let client = PredataClient::new(computes.remove(0), Arc::clone(&router), vec![]);
        let mut cfg = StagingConfig::new(1, &dir);
        cfg.step_timeout = T;
        let mut sr = lone_rank(stagings, router, Box::new(FifoPolicy), Vec::new(), cfg);
        let report = std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(T / 2);
                client
                    .write_pg(make_particle_pg(0, 0, vec![0.0; 8]))
                    .unwrap();
            });
            sr.run_step(0).unwrap()
        });
        assert_eq!(report.pull_order, [0]);
        let snapshot = obs.snapshot().to_json();
        assert!(
            !snapshot.contains("transport.retries"),
            "a wait counted as a retry: {snapshot}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A staged GTC step — the four GTC operators on two staging ranks —
    /// enters exactly three collectives per rank: the requests' `gather`,
    /// the aggregates' `allgather` and the exchange's one `alltoall`. On
    /// two ranks they move four messages a step: the `allgather`'s gather
    /// and its fan-out, then one `alltoall` send each way. A barrier more
    /// adds a collective call, an `alltoall` more adds one and two
    /// messages.
    #[test]
    fn a_gtc_step_enters_gather_allgather_and_alltoall_only() {
        use crate::ops::{BitmapIndexOp, Histogram2dOp, SortOp};
        let (n_compute, n_staging, steps) = (4, 2, 3u64);
        let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
        let dir = out_dir("gtc-collectives");
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| {
                let stats = Arc::new(HistogramOp::new(vec![0], 8));
                PredataClient::new(e, Arc::clone(&router), vec![stats])
            })
            .collect();
        for step in 0..steps {
            for (r, client) in clients.iter().enumerate() {
                let rows: Vec<f64> = (0..64)
                    .flat_map(|i| [i as f64, 1., 2., 3., 4., 5., (i % 4) as f64, r as f64])
                    .collect();
                client
                    .write_pg(make_particle_pg(r as u64, step, rows))
                    .unwrap();
            }
        }
        let stagings = parking_lot::Mutex::new(stagings.into_iter().map(Some).collect::<Vec<_>>());
        let (reports, world) = World::run_with_stats(n_staging, move |comm| {
            let endpoint = stagings.lock()[comm.rank()].take().unwrap();
            let ops: Vec<Box<dyn StreamOp>> = vec![
                Box::new(SortOp::new()),
                Box::new(HistogramOp::new(vec![0], 8)),
                Box::new(Histogram2dOp::new(vec![(0, 1)], 4)),
                Box::new(BitmapIndexOp::new(0, 8)),
            ];
            let cfg = StagingConfig::new(n_compute, &dir);
            let policy = Box::new(FifoPolicy);
            let mut sr = StagingRank::new(comm, endpoint, Arc::clone(&router), policy, ops, cfg);
            let sr = sr.as_mut().unwrap();
            (0..steps)
                .map(|s| sr.run_step(s).unwrap())
                .collect::<Vec<_>>()
        });
        for reports in &reports {
            assert!(reports
                .iter()
                .all(|r| r.chunks == 2 && r.results.len() == 4));
        }
        assert_eq!(
            world.stats().collective_calls(),
            3 * n_staging as u64 * steps
        );
        assert_eq!(world.stats().messages(), 4 * steps);
        std::fs::remove_dir_all(out_dir("gtc-collectives")).ok();
    }

    /// An operator whose `initialize` panics.
    struct PanicOp;
    impl crate::op::StreamOp for PanicOp {
        fn name(&self) -> &str {
            "panic"
        }
        fn initialize(&mut self, _agg: &Aggregates, _ctx: &OpCtx) {
            panic!("operator bug");
        }
        fn mapper(&self) -> Arc<dyn ChunkMapper> {
            unreachable!()
        }
        fn reduce(&mut self, _tag: u64, _items: Vec<bytes::Bytes>, _ctx: &OpCtx) {}
        fn finalize(&mut self, _ctx: &OpCtx) -> crate::op::OpResult {
            crate::op::OpResult::default()
        }
    }

    /// An operator that panics inside the pipeline must surface as
    /// `WorkerPanicked(rank)` — not crash the harness, and not strand the
    /// peer: rank 0 waits for rank 1 in the step's shuffle, and is
    /// woken out of it when rank 1 dies.
    #[test]
    fn panicking_rank_reports_worker_panicked() {
        let n_compute = 2;
        let (_fabric, computes, stagings) = Fabric::new(n_compute, 2, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 2));
        let dir = out_dir("panic");
        let area = StagingArea::spawn(
            stagings,
            Arc::clone(&router),
            // Every rank runs a histogram; rank 1's second operator panics.
            Arc::new(|rank| {
                let mut ops = vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>];
                if rank == 1 {
                    ops.push(Box::new(PanicOp));
                }
                ops
            }),
            Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
            StagingConfig::new(n_compute, &dir),
            1,
        );
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
            .collect();
        for (r, c) in clients.iter().enumerate() {
            c.write_pg(make_particle_pg(r as u64, 0, vec![0.0; 8]))
                .unwrap();
        }
        let reports = join_within_5s(area);
        assert!(matches!(reports[1], Err(StagingError::WorkerPanicked(1))));
        assert!(
            matches!(reports[0], Err(StagingError::WorkerPanicked(0))),
            "the woken peer: {:?}",
            reports[0]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A rank that leaves with an error (here: a chunk that does not
    /// decode) runs no further collective, so it must wake its peers
    /// like one that panics. Rank 1 keeps its own error.
    #[test]
    fn failing_rank_wakes_its_peers() {
        let n_compute = 2;
        let (_fabric, mut computes, stagings) = Fabric::new(n_compute, 2, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 2));
        let dir = out_dir("decode-error");
        let area = StagingArea::spawn(
            stagings,
            Arc::clone(&router),
            Arc::new(|_| vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>]),
            Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
            StagingConfig::new(n_compute, &dir),
            1,
        );
        // Compute rank 1 (served by staging rank 1) exposes bytes that
        // are not a packed chunk; compute rank 0 writes a real dump.
        let garbage = computes.pop().unwrap();
        let handle = garbage.expose(vec![0xAB_u8; 64].into(), 0).unwrap();
        let request = FetchRequest {
            src_rank: 1,
            io_step: 0,
            handle,
            chunk_bytes: 64,
            format: 0,
            attrs: ffs::AttrList::new(),
        };
        garbage.send_request(1, request).unwrap();
        PredataClient::new(computes.pop().unwrap(), Arc::clone(&router), vec![])
            .write_pg(make_particle_pg(0, 0, vec![0.0; 8]))
            .unwrap();

        let reports = join_within_5s(area);
        assert!(
            matches!(reports[1], Err(StagingError::Chunk(_))),
            "the culprit's own error: {:?}",
            reports[1]
        );
        assert!(matches!(reports[0], Err(StagingError::WorkerPanicked(0))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `gather` alone: a request for a later step is stashed for that
    /// step's gather, one for an earlier step is `StepSkew`.
    #[test]
    fn gather_stashes_early_requests_and_refuses_late_ones() {
        let (_fabric, computes, stagings) = Fabric::new(2, 1, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(2, 1));
        let dir = out_dir("gather");
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
            .collect();
        let write = |rank: usize, step: u64| {
            clients[rank]
                .write_pg(make_particle_pg(rank as u64, step, vec![0.0; 8]))
                .unwrap();
        };
        // Rank 0 runs a step ahead of rank 1.
        write(0, 0);
        write(0, 1);
        write(1, 0);
        let mut sr = lone_rank(
            stagings,
            Arc::clone(&router),
            Box::new(FifoPolicy),
            Vec::new(),
            StagingConfig::new(2, &dir),
        );
        let deadline = || Instant::now() + Duration::from_secs(5);
        let mut requests = Vec::new();
        sr.gather(0, deadline(), &mut requests).unwrap();
        let key = |r: &FetchRequest| (r.src_rank, r.io_step);
        assert_eq!(
            requests.iter().map(key).collect::<Vec<_>>(),
            [(0, 0), (1, 0)]
        );
        assert_eq!(sr.stashed.iter().map(key).collect::<Vec<_>>(), [(0, 1)]);

        // Rank 1 writes step 0 again: late for the gather of step 1,
        // which by then holds the stashed request.
        write(1, 0);
        let err = sr.gather(1, deadline(), &mut requests).unwrap_err();
        assert!(
            matches!(
                err,
                StagingError::StepSkew {
                    expected: 1,
                    got: 0
                }
            ),
            "{err:?}"
        );
        assert_eq!(requests.iter().map(key).collect::<Vec<_>>(), [(0, 1)]);
        assert!(sr.stashed.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `pull_map` alone, under a plan that never lets rank 1's chunk
    /// through: its retries exhaust, it is returned in `truncated`, and
    /// the others are pulled and merged in policy (largest-first) order.
    #[test]
    fn pull_map_skips_an_exhausted_chunk_and_keeps_policy_order() {
        const STEP: u64 = 90;
        let selects = |seed: u64, rank: u64| {
            FaultPlan::new(seed)
                .drop_chunks(0.5)
                .selects(FaultKind::Drop, rank, STEP)
        };
        let seed = (0..)
            .find(|&s| selects(s, 1) && !selects(s, 0) && !selects(s, 2))
            .unwrap();
        let plan = Arc::new(FaultPlan::new(seed).drop_chunks(0.5));
        let (_fabric, computes, stagings) =
            Fabric::with_faults(3, 1, None, Some(plan), obs::Registry::new());
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(3, 1));
        let dir = out_dir("pull-map");
        // Rank r writes r+1 particles → chunk sizes 1 < 2 < 3.
        for (r, e) in computes.into_iter().enumerate() {
            PredataClient::new(e, Arc::clone(&router), vec![])
                .write_pg(make_particle_pg(r as u64, STEP, vec![0.5; (r + 1) * 8]))
                .unwrap();
        }
        let mut sr = lone_rank(
            stagings,
            router,
            Box::new(LargestFirstPolicy),
            vec![Box::new(HistogramOp::new(vec![0], 4))],
            StagingConfig::new(3, &dir),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut requests = Vec::new();
        sr.gather(STEP, deadline, &mut requests).unwrap();
        let agg = sr.aggregate(STEP, &requests);
        let mapped = sr.pull_map(STEP, deadline, &mut requests, &agg).unwrap();

        let policy_order: Vec<usize> = requests.iter().map(|r| r.src_rank).collect();
        assert_eq!(policy_order, [2, 1, 0], "largest chunk first");
        assert_eq!(mapped.truncated, [1]);
        assert_eq!(mapped.pull_order, [2, 0]);
        let pulled: usize = [&requests[0], &requests[2]]
            .iter()
            .map(|r| r.chunk_bytes)
            .sum();
        assert_eq!(mapped.bytes_pulled, pulled as u64);
        assert_eq!(mapped.per_op.len(), 1, "one stream per operator");
        assert!(!mapped.per_op[0].is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A policy that is never willing to pull.
    struct NeverReady;
    impl PullPolicy for NeverReady {
        fn order(&mut self, _pending: &mut Vec<FetchRequest>) {}
        fn wait_ready(&self, _next: &FetchRequest, timeout: Duration, _: &obs::Registry) -> bool {
            std::thread::sleep(timeout);
            false
        }
    }

    /// The rank thread bounds its own wait for the policy: a policy that
    /// never turns ready ends the step with `Timeout` at the step's
    /// deadline, and the step's exit marks every gathered chunk
    /// truncated.
    #[test]
    fn a_policy_that_never_turns_ready_times_the_step_out() {
        const STEP: u64 = 0;
        let obs = obs::Registry::new();
        let (_fabric, computes, stagings) = Fabric::with_faults(3, 1, None, None, obs.clone());
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(3, 1));
        let dir = out_dir("never-ready");
        for (r, e) in computes.into_iter().enumerate() {
            PredataClient::new(e, Arc::clone(&router), vec![])
                .write_pg(make_particle_pg(r as u64, STEP, vec![0.0; 8]))
                .unwrap();
        }
        let mut cfg = StagingConfig::new(3, &dir);
        cfg.step_timeout = Duration::from_millis(200);
        let mut sr = lone_rank(stagings, router, Box::new(NeverReady), Vec::new(), cfg);
        let started = Instant::now();
        let err = sr.run_step(STEP).unwrap_err();
        let took = started.elapsed();
        assert!(
            matches!(err, StagingError::Transport(TransportError::Timeout)),
            "{err:?}"
        );
        assert!(
            took >= Duration::from_millis(200) && took < Duration::from_secs(5),
            "{took:?}"
        );
        let marked = obs.snapshot().span("truncated", STEP);
        assert_eq!(marked.map(|s| s.count), Some(3), "one mark per chunk");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The rate limiter paces by the bytes of the chunk it is asked
    /// about: eight 64 KiB chunks against 1 MB/s with a one-chunk burst
    /// are one free pull and seven refills of 64 ms each.
    #[test]
    fn rate_limited_pulls_are_charged_their_bytes() {
        let obs = obs::Registry::new();
        let (_fabric, computes, stagings) = Fabric::with_faults(8, 1, None, None, obs.clone());
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(8, 1));
        let dir = out_dir("rate-limited");
        for (r, e) in computes.into_iter().enumerate() {
            PredataClient::new(e, Arc::clone(&router), vec![])
                .write_pg(make_particle_pg(
                    r as u64,
                    0,
                    vec![r as f64; (64 << 10) / 8],
                ))
                .unwrap();
        }
        let mut sr = lone_rank(
            stagings,
            router,
            Box::new(RateLimitedPolicy::new(1e6, 64e3)),
            Vec::new(),
            StagingConfig::new(8, &dir),
        );
        let report = sr.run_step(0).unwrap();
        assert_eq!(report.pull_order, [0, 1, 2, 3, 4, 5, 6, 7]);
        let pull_map = obs.snapshot().span("pull_map", 0).unwrap();
        assert!(
            pull_map.total_ns >= 350_000_000,
            "8 × 64 KiB at 1 MB/s took {} ns",
            pull_map.total_ns
        );
        let deferrals = obs.counter("transport.pull_deferrals", &[("policy", "rate_limited")]);
        assert_eq!(deferrals.get(), 7, "one deferral per pull after the first");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The registry's stage rows are the step: on a 64-chunk step the
    /// four stages' rows (stage 4 as its combine, shuffle, reduce and
    /// finalize) sum to within 10 % of the `run_step` call, and stage
    /// 3's busy rows fit inside its `pull_map` row.
    #[test]
    fn stage_times_sum_to_the_step() {
        let n_compute = 64;
        let obs = obs::Registry::new();
        let (_fabric, computes, stagings) =
            Fabric::with_faults(n_compute, 1, None, None, obs.clone());
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 1));
        let dir = out_dir("stage-times");
        for (r, e) in computes.into_iter().enumerate() {
            PredataClient::new(e, Arc::clone(&router), vec![])
                .write_pg(make_particle_pg(r as u64, 0, vec![r as f64; 512 * 8]))
                .unwrap();
        }
        let mut sr = lone_rank(
            stagings,
            router,
            Box::new(FifoPolicy),
            vec![Box::new(HistogramOp::new(vec![0], 16))],
            StagingConfig::new(n_compute, &dir),
        );
        let started = Instant::now();
        let report = sr.run_step(0).unwrap();
        let wall = started.elapsed();
        assert_eq!(report.chunks, 64);
        let snap = obs.snapshot();
        let ns = |stage| snap.span(stage, 0).map_or(0, |s| s.total_ns);
        let stages = [
            "gather",
            "aggregate",
            "pull_map",
            "combine",
            "shuffle",
            "reduce",
            "finalize",
        ];
        let sum = Duration::from_nanos(stages.iter().map(|s| ns(s)).sum());
        assert!(
            sum <= wall && sum >= wall.mul_f64(0.9),
            "{sum:?} of {wall:?}"
        );
        let busy = ["pull", "decode", "map"].map(ns);
        assert!(busy.iter().sum::<u64>() <= ns("pull_map"), "{busy:?}");
        assert!(busy.iter().all(|&b| b > 0), "{busy:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An operator whose mapper notes the thread it runs on and the
    /// chunk it maps, and panics on the chunk of compute rank `panic_at`.
    struct ProbeOp {
        seen: Arc<parking_lot::Mutex<Vec<(std::thread::ThreadId, u64)>>>,
        panic_at: Option<u64>,
    }
    impl ChunkMapper for ProbeOp {
        fn map_chunk(&self, chunk: &PackedChunk, _ctx: &MapCtx) -> Vec<Tagged> {
            assert_ne!(Some(chunk.writer_rank), self.panic_at, "mapper bug");
            let me = std::thread::current().id();
            self.seen.lock().push((me, chunk.writer_rank));
            Vec::new()
        }
    }
    impl crate::op::StreamOp for ProbeOp {
        fn name(&self) -> &str {
            "probe"
        }
        fn initialize(&mut self, _agg: &Aggregates, _ctx: &OpCtx) {}
        fn mapper(&self) -> Arc<dyn ChunkMapper> {
            Arc::new(ProbeOp {
                seen: Arc::clone(&self.seen),
                panic_at: self.panic_at,
            })
        }
        fn reduce(&mut self, _tag: u64, _items: Vec<bytes::Bytes>, _ctx: &OpCtx) {}
        fn finalize(&mut self, _ctx: &OpCtx) -> crate::op::OpResult {
            crate::op::OpResult::default()
        }
    }

    /// With the default configuration — no override — every chunk is
    /// mapped on the rank thread, in pull order, even where the chunks
    /// are large and the host has a core to spare.
    #[test]
    fn stage_3_maps_on_the_rank_thread_by_default() {
        let (_fabric, computes, stagings) = Fabric::new(4, 1, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(4, 1));
        let dir = out_dir("rank-thread");
        for (r, e) in computes.into_iter().enumerate() {
            let rows = vec![r as f64; (256 << 10) / 8];
            PredataClient::new(e, Arc::clone(&router), vec![])
                .write_pg(make_particle_pg(r as u64, 0, rows))
                .unwrap();
        }
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let probe = ProbeOp {
            seen: Arc::clone(&seen),
            panic_at: None,
        };
        let mut sr = lone_rank(
            stagings,
            router,
            Box::new(FifoPolicy),
            vec![Box::new(probe)],
            StagingConfig::new(4, &dir),
        );
        assert_eq!(sr.run_step(0).unwrap().pull_order, [0, 1, 2, 3]);
        let me = std::thread::current().id();
        assert_eq!(*seen.lock(), [(me, 0), (me, 1), (me, 2), (me, 3)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A mapper that panics is the rank's death: it reports
    /// `WorkerPanicked`, and the peer parked in the step's shuffle is
    /// woken, never left hanging.
    #[test]
    fn panicking_mapper_is_the_ranks_failure() {
        let (_fabric, computes, stagings) = Fabric::new(4, 2, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(4, 2));
        let dir = out_dir("map-panic");
        let area = StagingArea::spawn(
            stagings,
            Arc::clone(&router),
            // Compute rank 3 is the second of the two that staging rank 1
            // serves.
            Arc::new(|_| {
                vec![
                    Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>,
                    Box::new(ProbeOp {
                        seen: Arc::default(),
                        panic_at: Some(3),
                    }),
                ]
            }),
            Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
            StagingConfig::new(4, &dir),
            1,
        );
        for (r, e) in computes.into_iter().enumerate() {
            PredataClient::new(e, Arc::clone(&router), vec![])
                .write_pg(make_particle_pg(r as u64, 0, vec![r as f64; 8]))
                .unwrap();
        }
        let reports = join_within_5s(area);
        assert!(
            matches!(reports[1], Err(StagingError::WorkerPanicked(1))),
            "{:?}",
            reports[1]
        );
        assert!(
            matches!(reports[0], Err(StagingError::WorkerPanicked(0))),
            "the woken peer: {:?}",
            reports[0]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn early_requests_for_future_steps_are_stashed() {
        let n_compute = 2;
        let (_fabric, computes, stagings) = Fabric::new(n_compute, 1, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 1));
        let dir = out_dir("stash");
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
            .collect();

        // Rank 0 races ahead: writes step 0 AND step 1 before rank 1
        // writes step 0.
        clients[0]
            .write_pg(make_particle_pg(0, 0, vec![0.0; 8]))
            .unwrap();
        clients[0]
            .write_pg(make_particle_pg(0, 1, vec![0.0; 8]))
            .unwrap();
        clients[1]
            .write_pg(make_particle_pg(1, 0, vec![0.0; 8]))
            .unwrap();
        clients[1]
            .write_pg(make_particle_pg(1, 1, vec![0.0; 8]))
            .unwrap();

        let area = StagingArea::spawn(
            stagings,
            router,
            Arc::new(|_| Vec::new()),
            Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
            StagingConfig::new(n_compute, &dir),
            2,
        );
        let reports = area.join();
        let steps = reports
            .into_iter()
            .next()
            .unwrap()
            .expect("both steps complete");
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|s| s.chunks == 2));
        std::fs::remove_dir_all(&dir).ok();
    }
}
