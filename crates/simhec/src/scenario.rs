//! The staged-application timeline model.
//!
//! A bulk-synchronous application alternates compute bursts and collective
//! windows, dumping output every `io_interval` seconds, for `n_io_steps`
//! dumps. Data-preparation operators run either synchronously on the
//! compute nodes ("In-Compute-Node") or in a staging area fed by
//! asynchronous pulls ("Staging"). The run produces the per-phase
//! [`RunBreakdown`] from which Figures 7, 8 and 10 of the paper are
//! regenerated:
//!
//! * visible I/O blocking (sync write vs. pack-and-go),
//! * in-node operator time (visible) vs. staging operator time (hidden,
//!   but with completion *latency*),
//! * main-loop inflation from pull/collective NIC interference, governed
//!   by the pull-scheduling policy,
//! * total CPU cost including the staging partition.

use crate::machine::{MachineConfig, OpCosts};
use crate::net::{FlowId, FlowSpec, NetModel, NodeClass};
use crate::pfs::PfsModel;

/// Where data-preparation operators execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    InComputeNode,
    Staging,
}

/// Pull-scheduling policy (mirrors `transport::PullPolicy` at the
/// model level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullPolicyKind {
    /// Pulls run whenever data is pending, competing with collectives.
    Unthrottled,
    /// Pulls pause during the application's collective windows.
    PhaseAware,
}

/// Operators applied to every dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Sort,
    Histogram,
    Histogram2D,
    Reorg,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Sort => "sort",
            OpKind::Histogram => "histogram",
            OpKind::Histogram2D => "histogram2d",
            OpKind::Reorg => "reorg",
        }
    }
}

/// Full description of one run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub machine: MachineConfig,
    pub costs: OpCosts,
    /// MPI processes of the application.
    pub n_compute_procs: usize,
    /// Application processes per node (GTC: 1 with 8 threads; Pixie3D: 4).
    pub procs_per_node: usize,
    /// Worker threads per application process.
    pub threads_per_proc: usize,
    /// Output bytes per process per dump.
    pub bytes_per_proc: f64,
    /// Seconds of application time between dumps.
    pub io_interval: f64,
    /// Number of dumps simulated.
    pub n_io_steps: usize,
    /// Pure-compute seconds per application iteration.
    pub compute_burst: f64,
    /// Bytes each node exchanges per collective window.
    pub collective_bytes_per_node: f64,
    /// Compute cores per staging core (64 for GTC, 128 for Pixie3D).
    pub staging_ratio: usize,
    /// Staging processes per staging node.
    pub staging_procs_per_node: usize,
    /// Worker threads per staging process.
    pub staging_threads_per_proc: usize,
    pub ops: Vec<OpKind>,
    pub placement: Placement,
    pub pull_policy: PullPolicyKind,
    /// Seed for file-system weather.
    pub seed: u64,
}

impl ScenarioConfig {
    pub(crate) fn compute_cores(&self) -> usize {
        self.n_compute_procs * self.threads_per_proc
    }

    pub fn compute_nodes(&self) -> usize {
        self.n_compute_procs.div_ceil(self.procs_per_node)
    }

    pub fn staging_cores(&self) -> usize {
        (self.compute_cores() / self.staging_ratio).max(self.staging_threads_per_proc)
    }

    pub fn staging_procs(&self) -> usize {
        (self.staging_cores() / self.staging_threads_per_proc).max(1)
    }

    pub(crate) fn staging_nodes(&self) -> usize {
        self.staging_procs().div_ceil(self.staging_procs_per_node)
    }

    pub fn total_bytes_per_dump(&self) -> f64 {
        self.bytes_per_proc * self.n_compute_procs as f64
    }
}

/// Per-operator timing for one run (averaged over dumps).
#[derive(Debug, Clone)]
pub struct OpReport {
    pub op: OpKind,
    /// Wall time the operator occupies its host (visible time when
    /// in-compute; staging-side busy time when staged).
    pub busy_time: f64,
    /// Time to write the operator's results.
    pub result_write_time: f64,
    /// Latency from the I/O trigger to results available.
    pub latency: f64,
}

/// Aggregate outcome of one run.
#[derive(Debug, Clone)]
pub struct RunBreakdown {
    /// End-to-end wall time of the run.
    pub total_time: f64,
    /// Main-loop (compute + collectives) portion, including interference
    /// inflation.
    pub main_loop_time: f64,
    /// Application-visible I/O blocking (sync writes, packing, buffer
    /// stalls).
    pub io_blocking_time: f64,
    /// Operator time visible to the application (In-Compute-Node only).
    pub op_visible_time: f64,
    /// Per-operator detail (per dump averages).
    pub ops: Vec<OpReport>,
    /// Mean time from I/O trigger until the staging area finished pulling
    /// a dump (0 for In-Compute-Node).
    pub drain_latency: f64,
    /// Total core·seconds consumed (compute + staging partitions).
    pub cpu_core_seconds: f64,
    /// Main-loop slowdown caused by interference, as a fraction.
    pub interference: f64,
}

/// Executes scenario runs.
pub struct StagedRun;

impl StagedRun {
    /// Run the scenario once, deterministically for a given config+seed.
    pub fn run(cfg: &ScenarioConfig) -> RunBreakdown {
        match cfg.placement {
            Placement::InComputeNode => run_in_compute(cfg),
            Placement::Staging => run_staging(cfg),
        }
    }

    /// The paper's methodology: run `n` seeds, keep the best total time.
    pub fn best_of(cfg: &ScenarioConfig, n: usize) -> RunBreakdown {
        (0..n)
            .map(|i| {
                let mut c = cfg.clone();
                c.seed = cfg.seed.wrapping_add(i as u64 * 0x9e37);
                StagedRun::run(&c)
            })
            .min_by(|a, b| a.total_time.partial_cmp(&b.total_time).unwrap())
            .expect("n > 0")
    }
}

/// Ideal duration of one collective window (no interference).
fn ideal_collective(cfg: &ScenarioConfig) -> f64 {
    if cfg.collective_bytes_per_node <= 0.0 {
        return 0.0;
    }
    cfg.machine.small_collective_time(cfg.n_compute_procs)
        + cfg.collective_bytes_per_node / cfg.machine.nic_bw
}

fn iterations_per_step(cfg: &ScenarioConfig) -> usize {
    let iter = cfg.compute_burst + ideal_collective(cfg);
    ((cfg.io_interval / iter).round() as usize).max(1)
}

/// Operator cost pieces, shared by both placements.
struct OpPieces {
    comm: f64,
    cpu: f64,
    write: f64,
}

fn op_pieces(
    cfg: &ScenarioConfig,
    op: OpKind,
    procs: usize,
    procs_per_node: usize,
    cores: usize,
    pfs: &mut PfsModel,
) -> OpPieces {
    let total = cfg.total_bytes_per_dump();
    let per_proc = total / procs as f64;
    let c = &cfg.costs;
    match op {
        OpKind::Sort => OpPieces {
            // Key-exchange all-to-all of the full volume, then local sort.
            // The sorted data *is* the dump; its persistence is charged
            // once, as the dump write, not here.
            comm: cfg.machine.alltoall_time(procs, procs_per_node, per_proc),
            cpu: OpCosts::cpu_time(total, c.sort_cpu_bps, cores),
            write: 0.0,
        },
        OpKind::Histogram => OpPieces {
            comm: cfg.machine.small_collective_time(procs),
            cpu: OpCosts::cpu_time(total, c.hist_cpu_bps, cores),
            // One result file per particle species (electrons + ions);
            // the paper measured 0.25–7 s for these 8 MB files.
            write: pfs.write_time(c.hist_output_bytes, 1) + pfs.write_time(c.hist_output_bytes, 1),
        },
        OpKind::Histogram2D => OpPieces {
            comm: cfg.machine.small_collective_time(procs) * 2.0,
            cpu: OpCosts::cpu_time(total, c.hist2d_cpu_bps, cores),
            write: pfs.write_time(c.hist_output_bytes * 4.0, 1),
        },
        OpKind::Reorg => OpPieces {
            // Merging is a staging-local memcpy into large buffers; when
            // forced in-compute it degenerates to a no-op (data is already
            // process-local) — the configurations differ in write layout.
            comm: 0.0,
            cpu: OpCosts::cpu_time(total, c.reorg_cpu_bps, cores),
            write: 0.0,
        },
    }
}

/// In-Compute-Node configuration: ops and writes block the application.
fn run_in_compute(cfg: &ScenarioConfig) -> RunBreakdown {
    let mut pfs = PfsModel::new(cfg.machine.pfs.clone(), cfg.seed);
    let iters = iterations_per_step(cfg);
    let coll = ideal_collective(cfg);
    let main_loop_per_step = iters as f64 * (cfg.compute_burst + coll);

    let mut io_blocking = 0.0;
    let mut op_visible = 0.0;
    let mut op_acc: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); cfg.ops.len()];

    for _ in 0..cfg.n_io_steps {
        for (i, &op) in cfg.ops.iter().enumerate() {
            let p = op_pieces(
                cfg,
                op,
                cfg.n_compute_procs,
                cfg.procs_per_node,
                cfg.compute_cores(),
                &mut pfs,
            );
            op_visible += p.comm + p.cpu + p.write;
            op_acc[i].0 += p.comm;
            op_acc[i].1 += p.cpu;
            op_acc[i].2 += p.write;
        }
        // Synchronous dump of the full volume.
        io_blocking += pfs.write_time(cfg.total_bytes_per_dump(), cfg.n_compute_procs);
    }

    let main_loop = main_loop_per_step * cfg.n_io_steps as f64;
    let total = main_loop + io_blocking + op_visible;
    let steps = cfg.n_io_steps as f64;
    let ops = cfg
        .ops
        .iter()
        .zip(op_acc)
        .map(|(&op, (comm, cpu, write))| OpReport {
            op,
            busy_time: (comm + cpu + write) / steps,
            result_write_time: write / steps,
            latency: (comm + cpu + write) / steps,
        })
        .collect();

    RunBreakdown {
        total_time: total,
        main_loop_time: main_loop,
        io_blocking_time: io_blocking,
        op_visible_time: op_visible,
        ops,
        drain_latency: 0.0,
        cpu_core_seconds: total * cfg.compute_cores() as f64,
        interference: 0.0,
    }
}

/// Staging configuration: pack-and-go on compute nodes; pulls, operators
/// and writes proceed asynchronously in the staging area.
fn run_staging(cfg: &ScenarioConfig) -> RunBreakdown {
    let mut pfs = PfsModel::new(cfg.machine.pfs.clone(), cfg.seed);
    let mut net = NetModel::new();
    let compute = net.add_class(NodeClass::new(
        cfg.compute_nodes(),
        cfg.machine.nic_bw,
        cfg.machine.nic_bw,
    ));
    let staging = net.add_class(NodeClass::new(
        cfg.staging_nodes(),
        cfg.machine.nic_bw,
        cfg.machine.nic_bw,
    ));

    let iters = iterations_per_step(cfg);
    let coll_ideal = ideal_collective(cfg);
    let staging_procs = cfg.staging_procs();
    let staging_cores = cfg.staging_cores();
    let total_bytes = cfg.total_bytes_per_dump();

    let mut now = 0.0;
    let mut io_blocking = 0.0;
    let mut main_loop = 0.0;
    let mut drain_latency_sum = 0.0;
    let mut drain: Option<(FlowId, f64)> = None; // (flow, t_io)
    let mut drain_done_at: Option<f64> = None;
    let mut staging_free_at = 0.0_f64;
    let mut op_acc: Vec<(f64, f64, f64, f64)> = vec![(0.0, 0.0, 0.0, 0.0); cfg.ops.len()];

    // Advance the fluid network to `now + dt`, tracking drain completion.
    let advance = |net: &mut NetModel,
                   drain: &mut Option<(FlowId, f64)>,
                   drain_done_at: &mut Option<f64>,
                   now: f64,
                   dt: f64| {
        let mut t = 0.0;
        while t < dt {
            let step = match net.next_completion() {
                Some((d, _)) if t + d <= dt => d,
                _ => dt - t,
            };
            let done = net.advance(step);
            t += step;
            if let Some((fid, _)) = drain {
                if done.contains(fid) {
                    *drain_done_at = Some(now + t);
                }
            }
        }
    };

    for _ in 0..cfg.n_io_steps {
        // --- I/O trigger ---
        let t_io = now;
        // Pack into the exposure buffer (FFS encode ≈ memcpy) plus a
        // small collective to agree on the dump.
        let mut block = cfg.bytes_per_proc / cfg.machine.memcpy_bw
            + cfg.machine.staging_request_overhead
            + cfg.machine.small_collective_time(cfg.n_compute_procs);
        // Double-buffering constraint: the previous dump must have left
        // the compute nodes.
        if let Some((fid, prev_t_io)) = drain {
            if net.is_active(fid) {
                // Must wait for the previous drain to finish.
                let wait = net.run_until_complete(fid);
                drain_done_at = Some(now + wait);
                drain_latency_sum += (now + wait) - prev_t_io;
                block += wait;
                drain = None;
            }
        }
        now += block;
        io_blocking += block;

        if let (Some((_, prev_t_io)), Some(done_at)) = (drain, drain_done_at) {
            drain_latency_sum += done_at - prev_t_io;
        }

        // The staging area may still be busy finishing the previous
        // dump's operators; pulls for this dump start afterwards (this
        // shows up as drain latency, not app blocking).
        let _pull_start = now.max(staging_free_at);

        // Start the asynchronous drain.
        let fid = net.add_flow(FlowSpec {
            src: compute,
            dst: staging,
            members: staging_procs,
            bytes_per_member: total_bytes / staging_procs as f64,
            cap_per_member: cfg.machine.rdma_pull_per_proc,
        });
        drain = fid.map(|f| (f, t_io));
        drain_done_at = None;

        // --- application iterations until the next dump ---
        let drag = cfg.machine.drag(
            cfg.n_compute_procs,
            cfg.pull_policy == PullPolicyKind::PhaseAware,
        );
        for _ in 0..iters {
            // Compute burst: pulls progress, but their DMA traffic drags
            // on the application's memory/NIC use while active.
            let drain_active = matches!(drain, Some((f, _)) if net.is_active(f));
            let burst = cfg.compute_burst * if drain_active { 1.0 + drag } else { 1.0 };
            advance(&mut net, &mut drain, &mut drain_done_at, now, burst);
            now += burst;
            main_loop += burst;

            // Collective window.
            if coll_ideal > 0.0 {
                let paused = if cfg.pull_policy == PullPolicyKind::PhaseAware {
                    if let Some((f, _)) = drain {
                        if net.is_active(f) {
                            net.pause(f);
                            Some(f)
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                } else {
                    None
                };
                let cf = net.add_flow(FlowSpec {
                    src: compute,
                    dst: compute,
                    members: cfg.compute_nodes(),
                    bytes_per_member: cfg.collective_bytes_per_node,
                    cap_per_member: f64::INFINITY,
                });
                let alpha = cfg.machine.small_collective_time(cfg.n_compute_procs);
                let dur = match cf {
                    Some(cf) => {
                        let mut elapsed = 0.0;
                        while net.is_active(cf) {
                            let (d, _) = net
                                .next_completion()
                                .expect("collective flow always progresses");
                            let done = net.advance(d);
                            elapsed += d;
                            if let Some((fid, _)) = drain {
                                if done.contains(&fid) {
                                    drain_done_at = Some(now + elapsed);
                                }
                            }
                        }
                        alpha + elapsed
                    }
                    None => alpha,
                };
                if let Some(f) = paused {
                    net.resume(f);
                }
                now += dur;
                main_loop += dur;
            }
        }

        // --- staging-side pipeline for this dump ---
        // Map/streaming overlaps the drain; shuffle+reduce+finalize follow.
        // We charge the pipeline on the staging clock; it must be ready
        // before it can accept the *next* dump.
        let drain_end_est = drain_done_at.unwrap_or(now.max(t_io));
        let mut stage_clock = drain_end_est.max(staging_free_at);
        // The dump itself is persisted once from the staging area
        // (asynchronously, from far fewer clients than the job size).
        stage_clock += pfs.write_time(total_bytes, staging_procs);
        for (i, &op) in cfg.ops.iter().enumerate() {
            let p = op_pieces(
                cfg,
                op,
                staging_procs,
                cfg.staging_procs_per_node,
                staging_cores,
                &mut pfs,
            );
            // Map-phase compute overlaps the drain: only the excess over
            // the drain window is serial.
            let drain_window = drain_end_est - t_io;
            let serial_cpu = (p.cpu - drain_window).max(p.cpu * 0.1);
            let busy = p.comm + serial_cpu + p.write;
            stage_clock += busy;
            op_acc[i].0 += p.comm;
            op_acc[i].1 += p.cpu;
            op_acc[i].2 += p.write;
            op_acc[i].3 += stage_clock - t_io; // latency to results
        }
        staging_free_at = stage_clock;
    }

    // Account a still-running final drain.
    if let Some((fid, t_io)) = drain {
        if net.is_active(fid) {
            let wait = net.run_until_complete(fid);
            drain_latency_sum += (now + wait) - t_io;
        } else if let Some(done_at) = drain_done_at {
            drain_latency_sum += done_at - t_io;
        }
    }

    let total = now.max(staging_free_at);
    let steps = cfg.n_io_steps as f64;
    let main_loop_ideal =
        (iterations_per_step(cfg) as f64 * (cfg.compute_burst + coll_ideal)) * steps;
    let ops = cfg
        .ops
        .iter()
        .zip(op_acc)
        .map(|(&op, (comm, cpu, write, lat))| OpReport {
            op,
            busy_time: (comm + cpu + write) / steps,
            result_write_time: write / steps,
            latency: lat / steps,
        })
        .collect();

    RunBreakdown {
        total_time: total,
        main_loop_time: main_loop,
        io_blocking_time: io_blocking,
        op_visible_time: 0.0,
        ops,
        drain_latency: drain_latency_sum / steps,
        cpu_core_seconds: total * (cfg.compute_cores() + cfg.staging_cores()) as f64,
        interference: (main_loop - main_loop_ideal).max(0.0) / main_loop_ideal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GTC-like configuration at a given core count.
    pub(crate) fn gtc_config(cores: usize, placement: Placement) -> ScenarioConfig {
        let procs = cores / 8; // 1 proc × 8 threads per node
        ScenarioConfig {
            machine: MachineConfig::xt5_like(),
            costs: OpCosts::calibrated(),
            n_compute_procs: procs,
            procs_per_node: 1,
            threads_per_proc: 8,
            bytes_per_proc: 132e6,
            io_interval: 120.0,
            n_io_steps: 3,
            compute_burst: 2.0,
            collective_bytes_per_node: 32e6,
            staging_ratio: 64,
            staging_procs_per_node: 2,
            staging_threads_per_proc: 4,
            ops: vec![OpKind::Sort, OpKind::Histogram, OpKind::Histogram2D],
            placement,
            pull_policy: PullPolicyKind::PhaseAware,
            seed: 7,
        }
    }

    #[test]
    fn derived_sizes_match_paper() {
        let cfg = gtc_config(16_384, Placement::Staging);
        assert_eq!(cfg.compute_cores(), 16_384);
        assert_eq!(cfg.compute_nodes(), 2_048);
        assert_eq!(cfg.staging_cores(), 256);
        assert_eq!(cfg.staging_procs(), 64);
        assert_eq!(cfg.staging_nodes(), 32);
        assert!((cfg.total_bytes_per_dump() - 270e9).abs() < 1e9);
    }

    #[test]
    fn staging_hides_io_blocking() {
        let stag = StagedRun::run(&gtc_config(4096, Placement::Staging));
        let innode = StagedRun::run(&gtc_config(4096, Placement::InComputeNode));
        assert!(
            stag.io_blocking_time < 0.2 * innode.io_blocking_time,
            "staging {:.2}s vs in-node {:.2}s",
            stag.io_blocking_time,
            innode.io_blocking_time
        );
        assert_eq!(stag.op_visible_time, 0.0);
        assert!(innode.op_visible_time > 0.0);
    }

    #[test]
    fn staging_improves_total_time_at_scale() {
        for cores in [4096usize, 16_384] {
            let stag = StagedRun::best_of(&gtc_config(cores, Placement::Staging), 3);
            let innode = StagedRun::best_of(&gtc_config(cores, Placement::InComputeNode), 3);
            assert!(
                stag.total_time < innode.total_time,
                "at {cores} cores: staging {:.1}s vs in-node {:.1}s",
                stag.total_time,
                innode.total_time
            );
        }
    }

    #[test]
    fn drain_latency_is_tens_of_seconds_and_fits_interval() {
        let stag = StagedRun::run(&gtc_config(16_384, Placement::Staging));
        assert!(
            stag.drain_latency > 5.0 && stag.drain_latency < 120.0,
            "drain latency {:.1}s",
            stag.drain_latency
        );
    }

    #[test]
    fn phase_aware_bounds_interference() {
        let mut cfg = gtc_config(16_384, Placement::Staging);
        cfg.pull_policy = PullPolicyKind::PhaseAware;
        let aware = StagedRun::run(&cfg);
        cfg.pull_policy = PullPolicyKind::Unthrottled;
        let greedy = StagedRun::run(&cfg);
        assert!(
            aware.interference <= greedy.interference + 1e-9,
            "aware {:.3} vs greedy {:.3}",
            aware.interference,
            greedy.interference
        );
        assert!(
            aware.interference < 0.06,
            "paper bound: <6 %, got {:.3}",
            aware.interference
        );
    }

    #[test]
    fn in_node_sort_grows_faster_than_staged_sort() {
        let t = |cores, placement| {
            let r = StagedRun::run(&gtc_config(cores, placement));
            r.ops
                .iter()
                .find(|o| o.op == OpKind::Sort)
                .unwrap()
                .busy_time
        };
        let in_small = t(512, Placement::InComputeNode);
        let in_big = t(16_384, Placement::InComputeNode);
        let st_small = t(512, Placement::Staging);
        let st_big = t(16_384, Placement::Staging);
        let in_growth = in_big / in_small;
        let st_growth = st_big / st_small;
        assert!(
            in_growth > st_growth,
            "in-node growth {in_growth:.2}x vs staging {st_growth:.2}x"
        );
    }

    #[test]
    fn cpu_cost_accounts_staging_partition() {
        let cfg = gtc_config(4096, Placement::Staging);
        let r = StagedRun::run(&cfg);
        assert!(
            (r.cpu_core_seconds - r.total_time * (4096.0 + 64.0)).abs() < 1e-6,
            "cores = compute + staging"
        );
    }

    /// Pixie3D-like configuration (XT4): tiny dumps, short compute
    /// bursts, collective-heavy inner loop.
    fn pixie_config(cores: usize, placement: Placement) -> ScenarioConfig {
        ScenarioConfig {
            machine: MachineConfig::xt4_like(),
            costs: OpCosts::calibrated(),
            n_compute_procs: cores,
            procs_per_node: 4,
            threads_per_proc: 1,
            bytes_per_proc: 2.1e6,
            io_interval: 100.0,
            n_io_steps: 3,
            compute_burst: 0.7,
            collective_bytes_per_node: 24e6,
            staging_ratio: 128,
            staging_procs_per_node: 2,
            staging_threads_per_proc: 2,
            ops: vec![OpKind::Reorg],
            placement,
            pull_policy: PullPolicyKind::PhaseAware,
            seed: 7,
        }
    }

    #[test]
    fn pixie_staging_slightly_slower_as_in_paper() {
        // Fig. 10(b): staging slows Pixie3D by a fraction of a percent —
        // never helps, never catastrophically hurts.
        for cores in [512usize, 2048, 4096] {
            let i = StagedRun::best_of(&pixie_config(cores, Placement::InComputeNode), 3);
            let s = StagedRun::best_of(&pixie_config(cores, Placement::Staging), 3);
            let slowdown = (s.total_time - i.total_time) / i.total_time;
            assert!(
                (0.0..0.02).contains(&slowdown),
                "at {cores}: slowdown {slowdown:.4} outside the paper's sub-percent band"
            );
        }
    }

    #[test]
    fn pixie_io_blocking_is_tiny_in_both_placements() {
        let i = StagedRun::run(&pixie_config(2048, Placement::InComputeNode));
        let s = StagedRun::run(&pixie_config(2048, Placement::Staging));
        assert!(i.io_blocking_time / 3.0 < 2.0, "{}", i.io_blocking_time);
        assert!(s.io_blocking_time / 3.0 < 0.5, "{}", s.io_blocking_time);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = gtc_config(2048, Placement::Staging);
        let a = StagedRun::run(&cfg);
        let b = StagedRun::run(&cfg);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.io_blocking_time, b.io_blocking_time);
    }
}
