//! The In-Compute-Node engine behind `gtc_incompute`: the same dump and
//! operators as `gtc_staged`, run synchronously on the compute ranks
//! themselves — `minimpi::World::run(8, …)`, per dump
//! `write_dump_collective` then `InComputeRunner::run_step`. This is the
//! baseline of the paper's headline ratio, and it uses the same `ops`,
//! `minimpi` and `bpio` code differently (serial `map` +
//! `complete_pipeline`, 8-rank collectives, PG encode → gather → decode →
//! append).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use bpio::{BpReader, ProcessGroup};
use predata_core::incompute::write_dump_collective;
use predata_core::op::ComputeSideOp;
use predata_core::ops::{HistogramOp, SortOp};
use predata_core::InComputeRunner;

use crate::common::{attempt, finish, ms};
use crate::report::{Metric, Quantiles, Summary};
use crate::staged::{
    gtc_expected_keys, gtc_pool, gtc_stream_ops, kept_named, kept_steps, pool_checksum,
    read_sorted_keys, GtcTally, Retention, Verified, GTC_PARTICLES, GTC_RANKS,
};
use crate::stats::{block_median_rate, median};
use crate::trace::{span, Tracer};

const TOTAL: usize = GTC_RANKS * GTC_PARTICLES;
const WARMUP_DUMPS: usize = 20;
const KEEP_TAIL: usize = 2;

/// One stretch of dumps: how long, traced or not.
#[derive(Clone)]
pub struct Phase {
    pub seconds: Option<f64>,
    pub dumps: usize,
    pub tracer: Option<Arc<Tracer>>,
}

impl Phase {
    pub fn warmup() -> Phase {
        Phase {
            seconds: None,
            dumps: WARMUP_DUMPS,
            tracer: None,
        }
    }

    pub fn timed(seconds: f64, tracer: Option<Arc<Tracer>>) -> Phase {
        Phase {
            seconds: Some(seconds),
            dumps: 20,
            tracer,
        }
    }

    pub fn counted(dumps: usize) -> Phase {
        Phase {
            seconds: None,
            dumps,
            tracer: None,
        }
    }
}

/// One rank's record of one dump.
#[derive(Debug, Clone)]
struct DumpRec {
    t0: Instant,
    t_written: Instant,
    t1: Instant,
    ok: bool,
    gtc: GtcTally,
    files: usize,
}

/// Per phase, per rank, the dumps recorded; plus the phase's traffic.
pub struct PhaseResult {
    ranks: Vec<Vec<DumpRec>>,
    mpi_messages: u64,
    mpi_bytes: u64,
    mpi_collectives: u64,
    cpu_s: f64,
}

pub struct InCompute {
    pool: Arc<Vec<Vec<ProcessGroup>>>,
    out_dir: PathBuf,
    pub payload_bytes: u64,
    pub input_checksum: u64,
    kept: Arc<Mutex<Vec<(u64, PathBuf)>>>,
}

impl InCompute {
    /// Set-up is input generation and the output directory; the world
    /// itself is launched by [`InCompute::run`] (`World::run` owns its
    /// rank threads for the length of the closure).
    pub fn setup(seed: u64, out_dir: &Path) -> Result<InCompute, String> {
        let pool = gtc_pool(seed);
        std::fs::create_dir_all(out_dir).map_err(|e| format!("scratch {out_dir:?}: {e}"))?;
        Ok(InCompute {
            payload_bytes: pool[0].iter().map(|pg| pg.payload_bytes() as u64).sum(),
            input_checksum: pool_checksum(&pool),
            pool: Arc::new(pool),
            out_dir: out_dir.to_path_buf(),
            kept: Arc::default(),
        })
    }

    /// Run the phases back to back on one eight-rank world.
    pub fn run(&self, phases: Vec<Phase>) -> Vec<PhaseResult> {
        let pool = Arc::clone(&self.pool);
        let out_dir = self.out_dir.clone();
        let kept = Arc::clone(&self.kept);
        // Harness-side coordination stays off `minimpi`, so the
        // program's own message counts are exactly its own.
        let gate = Arc::new(Barrier::new(GTC_RANKS));
        let go = Arc::new(AtomicBool::new(true));
        let traffic = Arc::new(Mutex::new(Vec::<(u64, u64, u64, f64)>::new()));
        let traffic_out = Arc::clone(&traffic);
        let n_phases = phases.len();
        let per_rank = minimpi::World::run(GTC_RANKS, move |comm| {
            let rank = comm.rank();
            let total = TOTAL as u64;
            let mut ops = gtc_stream_ops();
            let sort = SortOp::new();
            let hist = HistogramOp::new(vec![0, 3], 64);
            let compute_side: [&dyn ComputeSideOp; 2] = [&sort, &hist];
            let mut step = 0u64;
            let mut retention = Retention::new(KEEP_TAIL);
            let mut results: Vec<Vec<DumpRec>> = Vec::with_capacity(phases.len());
            for phase in &phases {
                let tracer = phase.tracer.as_deref();
                gate.wait();
                if rank == 0 {
                    comm.world().stats().reset();
                }
                let cpu0 = crate::common::cpu_seconds();
                let started = Instant::now();
                let mut recs: Vec<DumpRec> = Vec::new();
                loop {
                    if rank == 0 {
                        let enough = recs.len() >= phase.dumps
                            && phase
                                .seconds
                                .is_none_or(|s| started.elapsed().as_secs_f64() >= s);
                        go.store(!enough, Ordering::SeqCst);
                    }
                    // The simulation's own buffer, copied outside timers.
                    let pg = {
                        let _s = span(tracer, "apps.output_pg", step);
                        let mut pg = pool[step as usize % pool.len()][rank].clone();
                        pg.step = step;
                        pg
                    };
                    // Rank 0 stored `go` before entering; every rank
                    // reads it after leaving, so all see the same value.
                    gate.wait();
                    if !go.load(Ordering::SeqCst) {
                        break;
                    }
                    attempt(1);
                    let dump_path = out_dir.join(format!("dump_step{step}.bp"));
                    let _dump = span(tracer, "bench.dump", step);
                    let t0 = Instant::now();
                    let written = {
                        let _s = span(tracer, "core.incompute.write_dump_collective", step);
                        write_dump_collective(&comm, &pg, &dump_path)
                    };
                    let t_written = Instant::now();
                    let results = {
                        let _s = span(tracer, "core.incompute.run_step", step);
                        InComputeRunner::run_step(&comm, pg, &mut ops, &compute_side, &out_dir)
                    };
                    let t1 = Instant::now();
                    drop(_dump);
                    finish(1);
                    let mut rec = DumpRec {
                        t0,
                        t_written,
                        t1,
                        ok: written.is_ok(),
                        gtc: GtcTally::default(),
                        files: 0,
                    };
                    let mut files = Vec::new();
                    if rank == 0 {
                        files.push(dump_path);
                    }
                    for res in &results {
                        files.extend(res.files.iter().cloned());
                        rec.gtc.absorb(res, total);
                    }
                    rec.files = files.len();
                    recs.push(rec);
                    retention.retire(step, files, &kept);
                    step += 1;
                }
                if rank == 0 {
                    let s = comm.world().stats();
                    traffic.lock().expect("traffic").push((
                        s.messages(),
                        s.bytes(),
                        s.collective_calls(),
                        crate::common::cpu_seconds() - cpu0,
                    ));
                }
                results.push(recs);
            }
            retention.hand_over(&kept);
            results
        });
        // Transpose rank-major → phase-major.
        let traffic = traffic_out.lock().expect("traffic").clone();
        let mut per_rank: Vec<std::vec::IntoIter<Vec<DumpRec>>> =
            per_rank.into_iter().map(Vec::into_iter).collect();
        (0..n_phases)
            .map(|p| PhaseResult {
                ranks: per_rank
                    .iter_mut()
                    .map(|r| r.next().expect("every rank ran every phase"))
                    .collect(),
                mpi_messages: traffic[p].0,
                mpi_bytes: traffic[p].1,
                mpi_collectives: traffic[p].2,
                cpu_s: traffic[p].3,
            })
            .collect()
    }

    /// Reference check on every kept step: the collective dump is
    /// readable with one process group per rank, and the eight sorted
    /// slices stitch to the ordered label set.
    pub fn verify(&self) -> Verified {
        let mut v = Verified::default();
        let kept = self.kept.lock().expect("kept list").clone();
        let steps = kept_steps(&kept);
        for &step in &steps {
            let pgs = kept_named(&kept, step, "dump_")
                .first()
                .and_then(|p| BpReader::open(p).ok())
                .map(|r| r.index().pgs.len());
            v.check(pgs == Some(GTC_RANKS), || {
                format!("step {step}: dump holds {pgs:?} process groups")
            });
            let expected = gtc_expected_keys(&self.pool[step as usize % self.pool.len()]);
            match read_sorted_keys(&kept_named(&kept, step, "sorted_"), step) {
                Ok(keys) => v.check(keys == expected, || {
                    format!("step {step}: sorted output is not the ordered label set")
                }),
                Err(e) => v.check(false, || e),
            }
        }
        v.detail
            .push(Metric::new("verified_steps", steps.len() as f64, "count"));
        v
    }
}

/// Fold a phase into the metrics the workload reports.
pub fn summarize_phase(ic: &InCompute, ph: &PhaseResult) -> Summary {
    let dumps = ph.ranks.iter().map(Vec::len).min().unwrap_or(0);
    let mut failed = 0u64;
    let mut checks = 0u64;
    let mut mismatches = 0u64;
    for r in ph.ranks.iter().flatten() {
        failed += !r.ok as u64;
        checks += r.gtc.checks;
        mismatches += r.gtc.mismatches;
    }
    let mut blocked = Vec::with_capacity(dumps);
    let mut write_ms = Vec::with_capacity(dumps);
    let mut step_ms = Vec::with_capacity(dumps);
    let mut per_dump_s = Vec::with_capacity(dumps);
    for i in 0..dumps {
        let at = |f: fn(&DumpRec) -> Duration| -> f64 {
            ph.ranks.iter().map(|r| ms(f(&r[i]))).fold(0.0, f64::max)
        };
        blocked.push(at(|d| d.t1 - d.t0));
        write_ms.push(at(|d| d.t_written - d.t0));
        step_ms.push(at(|d| d.t1 - d.t_written));
        let first = ph.ranks.iter().map(|r| r[i].t0).min().expect("ranks");
        let last = ph.ranks.iter().map(|r| r[i].t1).max().expect("ranks");
        per_dump_s.push((last - first).as_secs_f64());
        checks += 1;
        let rows: u64 = ph.ranks.iter().map(|r| r[i].gtc.indexed_rows).sum();
        if rows != TOTAL as u64 {
            mismatches += 1;
        }
    }
    // Dumps are separated by untimed input copies, so the rate is taken
    // over the dumps' own wall time (first rank in → last rank out),
    // laid end to end.
    let mut busy_finish = Vec::with_capacity(dumps);
    let mut acc = 0.0;
    for d in &per_dump_s {
        acc += d;
        busy_finish.push(acc);
    }
    let ops_per_s = if dumps == 0 {
        0.0
    } else {
        block_median_rate(0.0, &busy_finish)
    };
    let mb = ic.payload_bytes as f64 / 1e6;
    let per_op = |v: u64| v as f64 / dumps.max(1) as f64;
    let files: usize = ph.ranks.iter().flatten().map(|r| r.files).sum();
    let detail = vec![
        Metric::new("write_block_ms", median(&blocked), "ms"),
        Metric::new("staging_mbps", ops_per_s * mb, "MB/s"),
        Metric::new("dump_mb", mb, "MB"),
        Metric::new("timed_dumps", dumps as f64, "count"),
        Metric::new("core.incompute.write_dump_p50_ms", median(&write_ms), "ms"),
        Metric::new("core.incompute.run_step_p50_ms", median(&step_ms), "ms"),
    ];
    let counts = vec![
        Metric::new("minimpi.messages", per_op(ph.mpi_messages), "count/op"),
        Metric::new("minimpi.bytes", per_op(ph.mpi_bytes), "B/op"),
        Metric::new(
            "minimpi.collective_calls",
            per_op(ph.mpi_collectives),
            "count/op",
        ),
        Metric::new("bpio.files_written", per_op(files as u64), "count/op"),
    ];
    Summary {
        attempted: (dumps * GTC_RANKS) as u64,
        failed,
        checks,
        mismatches,
        ops: dumps as u64,
        // The slowest rank's blocked time per dump.
        op_ms: Quantiles::of(&blocked),
        ops_per_s,
        op_time_ms: 1e3 / ops_per_s.max(1e-9),
        cpu_s: ph.cpu_s,
        detail,
        counts,
    }
}
