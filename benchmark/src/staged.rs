//! The staged-placement engine behind `gtc_staged` and `pixie_reorg`.
//!
//! One generator thread plays the compute ranks: per dump it calls every
//! rank's [`PredataClient::write_pg`] in rank order, then
//! [`PredataClient::wait_drained`] before the next dump (the documented
//! buffer-reuse point, which also bounds pinned memory to one dump). The
//! harness owns the staging ranks on its own threads — a two-rank
//! `minimpi` world, one [`StagingRank`] each — and times every
//! `run_step`. Everything the program receives is a generated input; the
//! program runs on its defaults (`StagingConfig::new`, default map
//! workers, spans on).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apps::{GtcWorld, PixieWorld};
use bpio::{BpFileSet, BpReader, BpWriter, DataArray, ProcessGroup, ReadStats};
use ffs::Value;
use predata_core::op::{ComputeSideOp, StreamOp};
use predata_core::ops::{BitmapIndexOp, Histogram2dOp, HistogramOp, ReorgOp, SortOp};
use predata_core::schema::{particle_key, particles_of, PARTICLE_WIDTH, PIXIE_FIELDS};
use predata_core::staging::StagingRank;
use predata_core::{PredataClient, StagingConfig};
use transport::{BlockRouter, Fabric, FifoPolicy, Router};

use crate::common::{attempt, finish, ms};
use crate::report::{Metric, Quantiles, Summary};
use crate::stats::{block_median_rate, median, percentile, summarize, Fnv};
use crate::trace::{span, Tracer};

pub const N_STAGING: usize = 2;
/// Distinct dumps generated at set-up and cycled through the run.
const POOL: usize = 4;
/// Sorted/merged outputs of every `SAMPLE_EVERY`-th step are kept for
/// the reference check, besides the trailing window.
const SAMPLE_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 8 compute ranks × 16 384 particles (1 MiB chunks, 8 MiB/dump).
    Gtc,
    /// 128 compute ranks × 32 KiB chunks (4 MiB/dump).
    Pixie,
}

pub const GTC_RANKS: usize = 8;
pub const GTC_PARTICLES: usize = 16_384;
pub const PIXIE_GRID: [u64; 3] = [4, 4, 8];
pub const PIXIE_LOCAL: [u64; 3] = [8, 8, 8];

impl Kind {
    pub fn n_compute(self) -> usize {
        match self {
            Kind::Gtc => GTC_RANKS,
            Kind::Pixie => (PIXIE_GRID[0] * PIXIE_GRID[1] * PIXIE_GRID[2]) as usize,
        }
    }

    fn warmup_dumps(self) -> usize {
        match self {
            Kind::Gtc => 40,
            Kind::Pixie => 50,
        }
    }

    /// Trailing steps whose output files stay on disk.
    fn keep_tail(self) -> usize {
        match self {
            Kind::Gtc => 2,
            Kind::Pixie => 64,
        }
    }

    fn staging_ops(self) -> Vec<Box<dyn StreamOp>> {
        match self {
            Kind::Gtc => gtc_stream_ops(),
            Kind::Pixie => vec![Box::new(ReorgOp::pixie3d())],
        }
    }

    fn compute_ops(self) -> Vec<Arc<dyn ComputeSideOp>> {
        match self {
            Kind::Gtc => vec![
                Arc::new(SortOp::new()),
                Arc::new(HistogramOp::new(vec![0, 3], 64)),
            ],
            Kind::Pixie => vec![Arc::new(ReorgOp::pixie3d())],
        }
    }
}

/// The GTC operator set of both placements.
pub fn gtc_stream_ops() -> Vec<Box<dyn StreamOp>> {
    vec![
        Box::new(SortOp::new()),
        Box::new(HistogramOp::new(vec![0, 3], 64)),
        Box::new(Histogram2dOp::new(vec![(0, 1)], 32)),
        Box::new(BitmapIndexOp::new(2, 32)),
    ]
}

/// Generate the GTC dump pool: `POOL` consecutive dumps of a seeded
/// particle-in-cell skeleton (particles migrate between dumps, so every
/// dump is out of label order in its own way).
pub fn gtc_pool(seed: u64) -> Vec<Vec<ProcessGroup>> {
    let mut world = GtcWorld::new(GTC_RANKS, GTC_PARTICLES, seed);
    (0..POOL)
        .map(|_| {
            world.step();
            (0..GTC_RANKS).map(|r| world.output_pg(r)).collect()
        })
        .collect()
}

/// The Pixie3D skeleton has no random state; the seed sets its wave
/// phase speed and starting phase, so different seeds give different
/// field values on the same decomposition.
pub fn pixie_world(seed: u64) -> PixieWorld {
    let mut world = PixieWorld::new(PIXIE_GRID, PIXIE_LOCAL);
    world.dt = 0.05 + (seed % 1000) as f64 * 1e-4;
    for _ in 0..(seed % 7) {
        world.step();
    }
    world
}

pub fn pixie_pool(seed: u64) -> Vec<Vec<ProcessGroup>> {
    let mut world = pixie_world(seed);
    (0..POOL)
        .map(|_| {
            world.step();
            (0..world.n_ranks()).map(|r| world.output_pg(r)).collect()
        })
        .collect()
}

/// Checksum of a dump pool: every payload byte of every process group.
pub fn pool_checksum(pool: &[Vec<ProcessGroup>]) -> u64 {
    let mut h = Fnv::default();
    for pg in pool.iter().flatten() {
        h.u64(pg.writer_rank);
        for v in &pg.vars {
            h.bytes(&v.data.as_le_bytes());
        }
    }
    h.0
}

/// What one staging rank recorded for one step.
#[derive(Debug, Clone)]
struct StepRec {
    step: u64,
    t0: Instant,
    t1: Instant,
    ok: bool,
    degraded: bool,
    gtc: GtcTally,
    files: usize,
}

/// The small-result checks one pipeline rank can make alone on a GTC
/// step: every histogram counts every particle and the sort saw every
/// particle. The rows its bitmap index covered are kept for the
/// cross-rank total.
#[derive(Debug, Clone, Copy, Default)]
pub struct GtcTally {
    pub checks: u64,
    pub mismatches: u64,
    pub indexed_rows: u64,
}

impl GtcTally {
    pub fn absorb(&mut self, res: &predata_core::OpResult, total_particles: u64) {
        let mut verdict = |ok: bool| {
            self.checks += 1;
            self.mismatches += !ok as u64;
        };
        match res.op.as_str() {
            "histogram" | "histogram2d" => {
                for (_, v) in res.values.iter() {
                    if let Value::ArrU64(bins) = v {
                        verdict(bins.iter().sum::<u64>() == total_particles);
                    }
                }
            }
            "sort" => verdict(res.values.get_u64("np_total") == Some(total_particles)),
            "bitmap_index" => self.indexed_rows = res.values.get_u64("indexed_rows").unwrap_or(0),
            _ => {}
        }
    }
}

#[derive(Default)]
struct CtlState {
    /// Steps `0..announced` have been (or are being) written.
    announced: u64,
    /// Steps each rank has finished.
    finished: [u64; N_STAGING],
    shutdown: bool,
    /// A rank's `run_step` erred: the pipeline cannot continue.
    broken: bool,
    tracer: Option<Arc<Tracer>>,
}

struct Ctl {
    state: Mutex<CtlState>,
    cv: Condvar,
    recs: [Mutex<Vec<StepRec>>; N_STAGING],
    /// Output files kept for the reference check: `(step, path)`.
    kept: Mutex<Vec<(u64, PathBuf)>>,
}

impl Ctl {
    fn lock(&self) -> std::sync::MutexGuard<'_, CtlState> {
        self.state
            .lock()
            .expect("no harness thread panics holding ctl")
    }
}

/// One dump as the generator saw it.
#[derive(Debug, Clone)]
struct DumpRec {
    step: u64,
    t_first: Instant,
    /// Slowest rank's `write_pg` in this dump.
    write_max: Duration,
    /// Every rank's `write_pg`.
    write_all: Vec<Duration>,
    drain_wait: Duration,
    failed_calls: u64,
}

/// A timed (or warm-up) stretch of dumps.
pub struct Section {
    dumps: Vec<DumpRec>,
    ranks: Vec<Vec<StepRec>>,
    rdma_gets: u64,
    bytes_pulled: u64,
    requests: u64,
    mpi_messages: u64,
    mpi_bytes: u64,
    mpi_collectives: u64,
}

pub struct Staged {
    pub kind: Kind,
    pub seed: u64,
    fabric: Fabric,
    clients: Vec<PredataClient>,
    pool: Vec<Vec<ProcessGroup>>,
    world: Arc<minimpi::World>,
    ctl: Arc<Ctl>,
    threads: Vec<JoinHandle<()>>,
    out_dir: PathBuf,
    next_step: u64,
    pub payload_bytes: u64,
    pub input_checksum: u64,
}

impl Staged {
    /// Everything before the first operation: generate inputs, build the
    /// fabric, the clients, the staging world and its rank threads.
    pub fn setup(kind: Kind, seed: u64, out_dir: &Path) -> Result<Staged, String> {
        let pool = match kind {
            Kind::Gtc => gtc_pool(seed),
            Kind::Pixie => pixie_pool(seed),
        };
        let payload_bytes = pool[0].iter().map(|pg| pg.payload_bytes() as u64).sum();
        let input_checksum = pool_checksum(&pool);
        let n_compute = kind.n_compute();
        let (fabric, computes, stagings) = Fabric::new(n_compute, N_STAGING, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, N_STAGING));
        let clients = computes
            .into_iter()
            .map(|e| PredataClient::new(e, Arc::clone(&router), kind.compute_ops()))
            .collect();
        let (world, comms) = minimpi::World::with_size(N_STAGING);
        let ctl = Arc::new(Ctl {
            state: Mutex::new(CtlState::default()),
            cv: Condvar::new(),
            recs: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
            kept: Mutex::new(Vec::new()),
        });
        std::fs::create_dir_all(out_dir).map_err(|e| format!("scratch {out_dir:?}: {e}"))?;
        let total_particles = (GTC_RANKS * GTC_PARTICLES) as u64;
        let mut threads = Vec::new();
        for (endpoint, comm) in stagings.into_iter().zip(comms) {
            let rank = comm.rank();
            let sr = StagingRank::new(
                comm,
                endpoint,
                Arc::clone(&router),
                Box::new(FifoPolicy::default()),
                kind.staging_ops(),
                StagingConfig::new(n_compute, out_dir),
            )
            .map_err(|e| format!("staging rank {rank}: {e}"))?;
            let ctl = Arc::clone(&ctl);
            let handle = std::thread::Builder::new()
                .name(format!("staging{rank}"))
                .spawn(move || staging_loop(sr, rank, kind, total_particles, &ctl))
                .map_err(|e| format!("spawn staging thread: {e}"))?;
            threads.push(handle);
        }
        Ok(Staged {
            kind,
            seed,
            fabric,
            clients,
            pool,
            world,
            ctl,
            threads,
            out_dir: out_dir.to_path_buf(),
            next_step: 0,
            payload_bytes,
            input_checksum,
        })
    }

    pub fn warmup(&mut self) -> Section {
        self.run_section(Stop::Count(self.kind.warmup_dumps()), None)
    }

    pub fn timed(&mut self, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Section {
        self.run_section(Stop::After(Duration::from_secs_f64(seconds)), tracer)
    }

    /// A fixed number of dumps (probes use this).
    pub fn counted(&mut self, dumps: usize) -> Section {
        self.run_section(Stop::Count(dumps), None)
    }

    fn run_section(&mut self, stop: Stop, tracer: Option<&Arc<Tracer>>) -> Section {
        self.ctl.lock().tracer = tracer.cloned();
        for r in &self.ctl.recs {
            r.lock().expect("rank log").clear();
        }
        let fstats = self.fabric.stats();
        let (g0, b0, q0) = (
            fstats.rdma_gets(),
            fstats.bytes_pulled(),
            fstats.requests_sent(),
        );
        self.world.stats().reset();
        let tracer = tracer.map(|t| t.as_ref());
        let n = self.clients.len();
        let started = Instant::now();
        let mut dumps: Vec<DumpRec> = Vec::new();
        loop {
            let done = match stop {
                Stop::Count(c) => dumps.len() >= c,
                // At least 20 dumps, so ten blocks exist on any host.
                Stop::After(d) => started.elapsed() >= d && dumps.len() >= 20,
            };
            if done || self.ctl.lock().broken {
                break;
            }
            let step = self.next_step;
            // The simulation's own buffers: copied outside every timer.
            let pgs: Vec<ProcessGroup> = {
                let _s = span(tracer, "apps.output_pg", step);
                self.pool[step as usize % POOL]
                    .iter()
                    .map(|pg| {
                        let mut pg = pg.clone();
                        pg.step = step;
                        pg
                    })
                    .collect()
            };
            {
                let mut st = self.ctl.lock();
                st.announced = step + 1;
                self.ctl.cv.notify_all();
            }
            self.next_step += 1;
            attempt(n as u64 + N_STAGING as u64);
            let _dump = span(tracer, "bench.dump", step);
            let t_first = Instant::now();
            let mut write_all = Vec::with_capacity(n);
            let mut failed_calls = 0u64;
            for (client, pg) in self.clients.iter().zip(pgs) {
                let _s = span(tracer, "core.client.write_pg", step);
                let t = Instant::now();
                if client.write_pg(pg).is_err() {
                    failed_calls += 1;
                }
                write_all.push(t.elapsed());
            }
            let t = Instant::now();
            {
                let _s = span(tracer, "core.client.wait_drained", step);
                for client in &self.clients {
                    if client.wait_drained(Duration::from_secs(60)).is_err() {
                        failed_calls += 1;
                    }
                }
            }
            finish(n as u64);
            dumps.push(DumpRec {
                step,
                t_first,
                write_max: write_all.iter().copied().max().unwrap_or_default(),
                write_all,
                drain_wait: t.elapsed(),
                failed_calls,
            });
            if failed_calls > 0 {
                break;
            }
        }
        // Wait for the staging ranks to finish every announced step.
        {
            let mut st = self.ctl.lock();
            while !st.broken && st.finished.iter().any(|&f| f < st.announced) {
                st = self.ctl.cv.wait(st).expect("ctl wait");
            }
            st.tracer = None;
        }
        let first = dumps.first().map(|d| d.step).unwrap_or(self.next_step);
        let ranks = self
            .ctl
            .recs
            .iter()
            .map(|r| {
                let recs = r.lock().expect("rank log");
                recs.iter().filter(|s| s.step >= first).cloned().collect()
            })
            .collect();
        Section {
            dumps,
            ranks,
            rdma_gets: fstats.rdma_gets() - g0,
            bytes_pulled: fstats.bytes_pulled() - b0,
            requests: fstats.requests_sent() - q0,
            mpi_messages: self.world.stats().messages(),
            mpi_bytes: self.world.stats().bytes(),
            mpi_collectives: self.world.stats().collective_calls(),
        }
    }

    /// Peak bytes pinned on the compute side over the whole run.
    pub fn pinned_peak_mb(&self) -> f64 {
        self.fabric.stats().peak_pinned_bytes() as f64 / 1e6
    }

    /// Stop the staging threads.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.ctl.lock();
            st.shutdown = true;
            self.ctl.cv.notify_all();
        }
        // After a failed step the other rank may sit in a collective
        // its dead peer never enters: leave such threads to process exit.
        let broken = self.ctl.lock().broken;
        for t in self.threads.drain(..) {
            if !broken {
                // A panicked rank already reported itself through `ok`.
                let _ = t.join();
            }
        }
    }

    fn kept_files(&self) -> Vec<(u64, PathBuf)> {
        self.ctl.kept.lock().expect("kept list").clone()
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[derive(Clone, Copy)]
enum Stop {
    Count(usize),
    After(Duration),
}

/// Output files of finished steps still on disk. Steps older than the
/// trailing window are unlinked as the run proceeds — outside every
/// timer — except every [`SAMPLE_EVERY`]-th, which is handed to `kept`
/// for the reference check, as is whatever is left at the end.
pub struct Retention {
    keep_tail: usize,
    on_disk: VecDeque<(u64, Vec<PathBuf>)>,
}

impl Retention {
    pub fn new(keep_tail: usize) -> Retention {
        Retention {
            keep_tail,
            on_disk: VecDeque::new(),
        }
    }

    pub fn retire(&mut self, step: u64, files: Vec<PathBuf>, kept: &Mutex<Vec<(u64, PathBuf)>>) {
        self.on_disk.push_back((step, files));
        while self.on_disk.len() > self.keep_tail {
            let (old, paths) = self.on_disk.pop_front().expect("non-empty");
            if old % SAMPLE_EVERY == 0 {
                let mut kept = kept.lock().expect("kept list");
                kept.extend(paths.into_iter().map(|p| (old, p)));
            } else {
                for p in paths {
                    let _ = std::fs::remove_file(p);
                }
            }
        }
    }

    pub fn hand_over(self, kept: &Mutex<Vec<(u64, PathBuf)>>) {
        let mut kept = kept.lock().expect("kept list");
        for (step, paths) in self.on_disk {
            kept.extend(paths.into_iter().map(|p| (step, p)));
        }
    }
}

/// The kept files of `step` whose name starts with `prefix`.
pub fn kept_named(kept: &[(u64, PathBuf)], step: u64, prefix: &str) -> Vec<PathBuf> {
    kept.iter()
        .filter(|(s, p)| {
            *s == step
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(prefix))
        })
        .map(|(_, p)| p.clone())
        .collect()
}

/// The steps that have kept files, ascending.
pub fn kept_steps(kept: &[(u64, PathBuf)]) -> Vec<u64> {
    let mut steps: Vec<u64> = kept.iter().map(|(s, _)| *s).collect();
    steps.sort_unstable();
    steps.dedup();
    steps
}

/// One staging rank's life: wait for a step to be announced, run it
/// under a timer, check its small results, retire old output files.
fn staging_loop(mut sr: StagingRank, rank: usize, kind: Kind, total_particles: u64, ctl: &Ctl) {
    let mut step = 0u64;
    let mut retention = Retention::new(kind.keep_tail());
    loop {
        let tracer = {
            let mut st = ctl.lock();
            while st.announced <= step && !st.shutdown {
                st = ctl.cv.wait(st).expect("ctl wait");
            }
            if st.announced <= step {
                break;
            }
            st.tracer.clone()
        };
        let t0 = Instant::now();
        let report = {
            let _s = span(tracer.as_deref(), "core.staging.run_step", step);
            sr.run_step(step)
        };
        let t1 = Instant::now();
        let mut rec = StepRec {
            step,
            t0,
            t1,
            ok: report.is_ok(),
            degraded: false,
            gtc: GtcTally::default(),
            files: 0,
        };
        let mut files = Vec::new();
        match &report {
            Ok(rep) => {
                rec.degraded = rep.is_degraded();
                for res in &rep.results {
                    files.extend(res.files.iter().cloned());
                    if kind == Kind::Gtc {
                        rec.gtc.absorb(res, total_particles);
                    }
                }
                rec.files = files.len();
            }
            Err(e) => eprintln!("staging rank {rank} step {step}: {e}"),
        }
        finish(1);
        ctl.recs[rank].lock().expect("rank log").push(rec);
        retention.retire(step, files, &ctl.kept);
        step += 1;
        let mut st = ctl.lock();
        st.finished[rank] = step;
        st.broken |= report.is_err();
        ctl.cv.notify_all();
        drop(st);
        if report.is_err() {
            break;
        }
    }
    retention.hand_over(&ctl.kept);
}

/// Fold a section into the metrics the workload reports.
pub fn summarize_section(st: &Staged, sec: &Section) -> Summary {
    let n = st.clients.len() as u64;
    let dumps = sec.dumps.len();
    let mut failed: u64 = sec.dumps.iter().map(|d| d.failed_calls).sum();
    let mut checks = 0;
    let mut mismatches = 0;
    let mut degraded = 0u64;
    for recs in &sec.ranks {
        for r in recs {
            if !r.ok || r.degraded {
                failed += 1;
            }
            degraded += r.degraded as u64;
            checks += r.gtc.checks;
            mismatches += r.gtc.mismatches;
        }
        // A rank that never reported an announced step failed it.
        failed += (dumps as u64).saturating_sub(recs.len() as u64);
    }
    // Per-step, across ranks: slowest rank, skew, pipeline finish time.
    let complete = sec.ranks.iter().map(Vec::len).min().unwrap_or(0).min(dumps);
    let mut step_max = Vec::with_capacity(complete);
    let mut step_all = Vec::new();
    let mut skew = Vec::with_capacity(complete);
    let mut finish_s = Vec::with_capacity(complete);
    let epoch = sec.dumps.first().map(|d| d.t_first);
    for i in 0..complete {
        let walls: Vec<f64> = sec.ranks.iter().map(|r| ms(r[i].t1 - r[i].t0)).collect();
        let (lo, hi) = walls
            .iter()
            .fold((f64::MAX, 0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
        step_max.push(hi);
        skew.push(hi - lo);
        step_all.extend(walls);
        let last = sec.ranks.iter().map(|r| r[i].t1).max().expect("two ranks");
        finish_s.push((last - epoch.expect("a dump exists")).as_secs_f64());
        if st.kind == Kind::Gtc {
            checks += 1;
            let rows: u64 = sec.ranks.iter().map(|r| r[i].gtc.indexed_rows).sum();
            if rows != (GTC_RANKS * GTC_PARTICLES) as u64 {
                mismatches += 1;
            }
        }
    }
    let write_max: Vec<f64> = sec.dumps.iter().map(|d| ms(d.write_max)).collect();
    let write_all: Vec<f64> = sec
        .dumps
        .iter()
        .flat_map(|d| d.write_all.iter().map(|&w| ms(w)))
        .collect();
    let drain: Vec<f64> = sec.dumps.iter().map(|d| ms(d.drain_wait)).collect();
    let ops_per_s = if finish_s.is_empty() {
        0.0
    } else {
        block_median_rate(0.0, &finish_s)
    };
    let mb = st.payload_bytes as f64 / 1e6;
    let per_op = |v: u64| v as f64 / dumps.max(1) as f64;
    let mut detail = vec![
        Metric::new("write_block_ms", median(&write_max), "ms"),
        Metric::new("staging_mbps", ops_per_s * mb, "MB/s"),
        Metric::new("dump_mb", mb, "MB"),
        Metric::new("timed_dumps", dumps as f64, "count"),
        Metric::new("core.client.drain_wait_ms", median(&drain), "ms"),
        Metric::new("transport.fabric.pinned_peak_mb", st.pinned_peak_mb(), "MB"),
    ];
    let w = summarize(&write_all);
    detail.push(Metric::new("core.client.write_pg_p50_ms", w.median, "ms"));
    if let Some((label, v)) = w.tail {
        detail.push(Metric::new(
            format!("core.client.write_pg_{label}_ms"),
            v,
            "ms",
        ));
    }
    if !step_max.is_empty() {
        detail.push(Metric::new("step_p50_ms", median(&step_max), "ms"));
        detail.push(Metric::new(
            "core.staging.step_p95_ms",
            percentile(&step_max, 0.95),
            "ms",
        ));
        detail.push(Metric::new(
            "core.staging.rank_step_p50_ms",
            median(&step_all),
            "ms",
        ));
        detail.push(Metric::new(
            "core.staging.rank_skew_ms",
            median(&skew),
            "ms",
        ));
    }
    let files: usize = sec.ranks.iter().flatten().map(|r| r.files).sum();
    let counts = vec![
        Metric::new(
            "transport.fabric.rdma_gets",
            per_op(sec.rdma_gets),
            "count/op",
        ),
        Metric::new(
            "transport.fabric.bytes_pulled",
            per_op(sec.bytes_pulled),
            "B/op",
        ),
        Metric::new(
            "transport.fabric.requests",
            per_op(sec.requests),
            "count/op",
        ),
        Metric::new("minimpi.messages", per_op(sec.mpi_messages), "count/op"),
        Metric::new("minimpi.bytes", per_op(sec.mpi_bytes), "B/op"),
        Metric::new(
            "minimpi.collective_calls",
            per_op(sec.mpi_collectives),
            "count/op",
        ),
        Metric::new(
            "core.staging.rank_steps",
            per_op(sec.ranks.iter().map(|r| r.len() as u64).sum()),
            "count/op",
        ),
        Metric::new("core.staging.steps_degraded", degraded as f64, "count"),
        Metric::new("bpio.files_written", per_op(files as u64), "count/op"),
    ];
    Summary {
        attempted: dumps as u64 * (n + N_STAGING as u64),
        failed,
        checks,
        mismatches,
        ops: dumps as u64,
        // One rank's `write_pg`, over every rank and dump.
        op_ms: Quantiles::of(&write_all),
        ops_per_s,
        op_time_ms: 1e3 / ops_per_s.max(1e-9),
        cpu_s: 0.0,
        detail,
        counts,
    }
}

/// Outcome of the reference checks and the read-back phase.
#[derive(Default)]
pub struct Verified {
    pub checks: u64,
    pub mismatches: u64,
    pub detail: Vec<Metric>,
    pub counts: Vec<Metric>,
}

impl Verified {
    /// Add these checks and metrics to a stretch's summary.
    pub fn book_on(&self, summary: &mut Summary) {
        summary.checks += self.checks;
        summary.mismatches += self.mismatches;
        summary.detail.extend(self.detail.iter().cloned());
        summary.counts.extend(self.counts.iter().cloned());
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches += 1;
            eprintln!("reference check failed: {}", what());
        }
    }
}

/// Sorted label keys of one pool dump — what the sorted output of any
/// step that replayed it must hold, in exactly this order.
pub fn gtc_expected_keys(pool_dump: &[ProcessGroup]) -> Vec<u64> {
    let mut keys: Vec<u64> = pool_dump
        .iter()
        .filter_map(particles_of)
        .flat_map(|rows| rows.chunks_exact(PARTICLE_WIDTH).map(particle_key))
        .collect();
    keys.sort_unstable();
    keys
}

/// Read one step's sorted slices (one file per pipeline rank), stitch
/// them by global offset, and return the keys in file order.
pub fn read_sorted_keys(files: &[PathBuf], step: u64) -> Result<Vec<u64>, String> {
    let mut slices = Vec::new();
    for path in files {
        let mut r = BpReader::open(path).map_err(|e| format!("{path:?}: {e}"))?;
        let Some(idx) = r
            .index()
            .chunks_of("particles", step)
            .first()
            .cloned()
            .cloned()
        else {
            return Err(format!("{path:?}: no particles chunk for step {step}"));
        };
        let data = r
            .read_box("particles", step, &idx.offset_in_global, &idx.local)
            .map_err(|e| format!("{path:?}: {e}"))?;
        let rows = data.as_f64().ok_or("particles are not f64")?;
        let keys: Vec<u64> = rows
            .chunks_exact(PARTICLE_WIDTH)
            .map(particle_key)
            .collect();
        slices.push((idx.offset_in_global[0], keys));
    }
    slices.sort_by_key(|(off, _)| *off);
    let mut expect_off = 0u64;
    let mut all = Vec::new();
    for (off, keys) in slices {
        if off != expect_off {
            return Err(format!(
                "step {step}: slice at row {off}, expected {expect_off}"
            ));
        }
        expect_off += keys.len() as u64;
        all.extend(keys);
    }
    Ok(all)
}

impl Staged {
    /// GTC reference check on every kept step (the sampled ones and the
    /// trailing window): the sorted slices, stitched by offset, are
    /// globally ordered and hold exactly the labels that were written.
    /// Call after [`Staged::shutdown`].
    pub fn verify_gtc(&self) -> Verified {
        let mut v = Verified::default();
        let expected: Vec<Vec<u64>> = self.pool.iter().map(|d| gtc_expected_keys(d)).collect();
        let kept = self.kept_files();
        for step in kept_steps(&kept) {
            let sorted = kept_named(&kept, step, "sorted_");
            v.check(sorted.len() == N_STAGING, || {
                format!("step {step}: {} sorted files", sorted.len())
            });
            match read_sorted_keys(&sorted, step) {
                Ok(keys) => v.check(keys == expected[step as usize % POOL], || {
                    format!("step {step}: sorted output is not the ordered label set")
                }),
                Err(e) => v.check(false, || e),
            }
        }
        v.detail.push(Metric::new(
            "verified_steps",
            (v.checks / 2) as f64,
            "count",
        ));
        v
    }

    /// Pixie read-back (paper Fig. 11) and reference check. Reads all
    /// eight global fields of the kept dumps from the merged per-rank
    /// files (`BpFileSet::open` + `read_global`), compares them with
    /// `PixieWorld::field_at`, and — for the read-operation count —
    /// reads the same fields from an unmerged reference file the harness
    /// writes itself with `BpWriter`. Call after [`Staged::shutdown`].
    pub fn readback_pixie(&self, tracer: Option<&Tracer>) -> Verified {
        let mut v = Verified::default();
        let expected = pixie_expected(self.seed);
        let kept = self.kept_files();
        let steps = kept_steps(&kept);
        // Only the trailing window is timed: the sampled older steps are
        // checked too, but their pages may have left the cache.
        let tail_from = steps.len().saturating_sub(Kind::Pixie.keep_tail());
        let mut merged = ReadTally::default();
        for (i, &step) in steps.iter().enumerate() {
            let files = kept_named(&kept, step, "merged_");
            v.check(files.len() == N_STAGING, || {
                format!("step {step}: {} merged files", files.len())
            });
            let t = Instant::now();
            let read = {
                let _s = span(tracer, "bpio.read_step_merged", step);
                read_merged_step(&files, step, tracer)
            };
            let wall = t.elapsed();
            match read {
                Ok((arrays, stats)) => {
                    if i >= tail_from {
                        merged.add(&stats, wall);
                    }
                    for (fi, a) in arrays.iter().enumerate() {
                        let want = expected[step as usize % POOL][fi].as_slice();
                        v.check(a.as_f64() == Some(want), || {
                            format!(
                                "step {step}: merged `{}` differs from field_at",
                                PIXIE_FIELDS[fi]
                            )
                        });
                    }
                }
                Err(e) => v.check(false, || format!("step {step}: merged read-back: {e}")),
            }
        }
        // Unmerged reference: the layout an In-Compute-Node run leaves.
        let mut unmerged = ReadTally::default();
        for &step in steps.iter().rev().take(8) {
            let path = self.out_dir.join(format!("unmerged_ref_step{step}.bp"));
            let pool_dump = &self.pool[step as usize % POOL];
            let read = write_unmerged(&path, pool_dump, step).and_then(|()| {
                let t = Instant::now();
                let _s = span(tracer, "bpio.read_step_unmerged", step);
                let mut r = BpReader::open(&path)?;
                let arrays = PIXIE_FIELDS
                    .iter()
                    .map(|f| r.read_global(f, step))
                    .collect::<bpio::Result<Vec<_>>>()?;
                Ok((arrays, r.take_stats(), t.elapsed()))
            });
            let _ = std::fs::remove_file(&path);
            match read {
                Ok((arrays, stats, wall)) => {
                    unmerged.add(&stats, wall);
                    let same = arrays.iter().enumerate().all(|(fi, a)| {
                        a.as_f64() == Some(expected[step as usize % POOL][fi].as_slice())
                    });
                    v.check(same, || format!("step {step}: unmerged reference differs"));
                }
                Err(e) => v.check(false, || format!("step {step}: unmerged reference: {e}")),
            }
        }
        v.detail.extend([
            Metric::new("read_mbps", merged.mbps(), "MB/s"),
            Metric::new("bpio.read_mbps_unmerged", unmerged.mbps(), "MB/s"),
            Metric::new("readback_steps", steps.len() as f64, "count"),
        ]);
        v.counts.extend([
            Metric::new("bpio.read_ops_merged", merged.ops_per_field(), "count"),
            Metric::new("bpio.read_ops_unmerged", unmerged.ops_per_field(), "count"),
        ]);
        v
    }
}

/// Expected global arrays per pool entry and field, from the closed form
/// `PixieWorld::field_at`.
fn pixie_expected(seed: u64) -> Vec<Vec<Vec<f64>>> {
    let mut world = pixie_world(seed);
    let dims = world.global_dims();
    (0..POOL)
        .map(|_| {
            world.step();
            PIXIE_FIELDS
                .iter()
                .map(|f| {
                    let mut a = Vec::with_capacity((dims[0] * dims[1] * dims[2]) as usize);
                    for i in 0..dims[0] {
                        for j in 0..dims[1] {
                            for k in 0..dims[2] {
                                a.push(world.field_at(f, [i, j, k]));
                            }
                        }
                    }
                    a
                })
                .collect()
        })
        .collect()
}

/// All eight global fields of one step from its merged per-rank files.
fn read_merged_step(
    files: &[PathBuf],
    step: u64,
    tracer: Option<&Tracer>,
) -> bpio::Result<(Vec<DataArray>, ReadStats)> {
    let mut set = {
        let _s = span(tracer, "bpio.BpFileSet.open", step);
        BpFileSet::open(files)?
    };
    let arrays = PIXIE_FIELDS
        .iter()
        .map(|f| {
            let _s = span(tracer, "bpio.BpFileSet.read_global", step);
            set.read_global(f, step)
        })
        .collect::<bpio::Result<Vec<_>>>()?;
    Ok((arrays, set.take_stats()))
}

/// One dump in the unmerged layout: every rank's process group appended
/// to one file.
fn write_unmerged(path: &Path, pool_dump: &[ProcessGroup], step: u64) -> bpio::Result<()> {
    let mut w = BpWriter::create(path)?;
    for pg in pool_dump {
        let mut pg = pg.clone();
        pg.step = step;
        w.append_pg(&pg)?;
    }
    w.finish().map(|_| ())
}

/// Bytes, wall time and read operations of a read-back.
#[derive(Default)]
struct ReadTally {
    bytes: u64,
    wall: Duration,
    ops_per_field: Vec<f64>,
}

impl ReadTally {
    fn add(&mut self, stats: &ReadStats, wall: Duration) {
        self.bytes += stats.bytes;
        self.wall += wall;
        self.ops_per_field
            .push(stats.reads as f64 / PIXIE_FIELDS.len() as f64);
    }

    fn mbps(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.wall.as_secs_f64().max(1e-9)
    }

    fn ops_per_field(&self) -> f64 {
        if self.ops_per_field.is_empty() {
            0.0
        } else {
            median(&self.ops_per_field)
        }
    }
}
