//! Platform presets and operator cost models.
//!
//! Absolute constants are *calibrated*, not measured: we target the
//! magnitudes the paper reports (8.6 s to write 260 GB synchronously at
//! 2048 clients; ~20 s to drain a dump into a 1.5 %-sized staging area;
//! ~30 s staging-side sorts; 0.25–7 s for small histogram-file writes) and
//! rely on the *model structure* for how times scale. EXPERIMENTS.md
//! records paper-vs-model values for every figure.

use crate::pfs::PfsConfig;

/// Static description of the machine partition a job runs on.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Per-node NIC bandwidth, bytes/s, each direction (SeaStar-class).
    pub(crate) nic_bw: f64,
    /// Effective asynchronous RDMA ingest rate per *staging process* —
    /// well below NIC line rate: the staging process is simultaneously
    /// decoding, buffering and processing (measured DataStager behaviour).
    pub rdma_pull_per_proc: f64,
    /// In-memory packing rate per process (FFS encode ≈ memcpy).
    pub(crate) memcpy_bw: f64,
    /// Latency per collective entry, seconds.
    pub(crate) collective_alpha: f64,
    /// Fraction of NIC bandwidth a machine-wide all-to-all sustains at
    /// the reference job size (`alltoall_ref_procs`)…
    pub(crate) alltoall_base_eff: f64,
    /// …decaying as `(procs / ref).powf(-alltoall_scale_pow)` — torus
    /// bisection and message-injection limits bite as jobs grow.
    pub(crate) alltoall_scale_pow: f64,
    pub(crate) alltoall_ref_procs: f64,
    /// Fixed application-visible overhead of handing a dump to the
    /// staging area (request round-trip, scheduling delay), seconds.
    pub(crate) staging_request_overhead: f64,
    /// Main-loop drag while asynchronous pulls are active and the pull
    /// scheduler is *not* phase-aware: DMA traffic competes with the
    /// application for NIC injection and memory bandwidth.
    pub(crate) drag_unthrottled: f64,
    /// Residual drag with phase-aware scheduling (pauses are not
    /// instantaneous; in-flight RDMA completes).
    pub(crate) drag_phase_aware: f64,
    /// Drag grows logarithmically with job size (larger collectives are
    /// more sensitive); this is the reference size where the base drag
    /// applies.
    pub(crate) drag_ref_procs: f64,
    /// Shared parallel file system.
    pub pfs: PfsConfig,
}

impl MachineConfig {
    /// XT5-partition-like (GTC experiments: 2 sockets × 4 cores, SeaStar2+).
    pub fn xt5_like() -> MachineConfig {
        MachineConfig {
            nic_bw: 2.0e9,
            rdma_pull_per_proc: 0.20e9,
            memcpy_bw: 2.5e9,
            collective_alpha: 40e-6,
            alltoall_base_eff: 0.32,
            alltoall_scale_pow: 0.85,
            alltoall_ref_procs: 64.0,
            staging_request_overhead: 0.25,
            drag_unthrottled: 0.80,
            drag_phase_aware: 0.25,
            drag_ref_procs: 2048.0,
            pfs: PfsConfig::spider_like(),
        }
    }

    /// XT4-partition-like (Pixie3D experiments: 1 socket × 4 cores).
    pub fn xt4_like() -> MachineConfig {
        MachineConfig {
            nic_bw: 1.6e9,
            rdma_pull_per_proc: 0.18e9,
            memcpy_bw: 2.0e9,
            collective_alpha: 35e-6,
            alltoall_base_eff: 0.30,
            alltoall_scale_pow: 0.45,
            alltoall_ref_procs: 64.0,
            staging_request_overhead: 0.20,
            drag_unthrottled: 0.90,
            drag_phase_aware: 0.28,
            drag_ref_procs: 1024.0,
            pfs: PfsConfig {
                aggregate_bw: 12e9,
                per_client_bw: 0.30e9,
                op_latency: 0.25,
                latency_sigma: 0.9,
                read_op_cost: 0.012,
                contention_loss: 0.05,
                client_knee: 256.0,
                variability: 0.35,
            },
        }
    }

    /// Effective per-process bandwidth in a machine-wide all-to-all of
    /// `procs` participants, each on its own share of a node NIC.
    pub(crate) fn alltoall_bw_per_proc(&self, procs: usize, procs_per_node: usize) -> f64 {
        let nic_share = self.nic_bw / procs_per_node.max(1) as f64;
        let eff = self.alltoall_base_eff
            * (procs.max(1) as f64 / self.alltoall_ref_procs).powf(-self.alltoall_scale_pow);
        nic_share * eff.min(1.0)
    }

    /// Wall time of an all-to-all exchanging `bytes_per_proc` (total sent
    /// by each of `procs` participants).
    pub(crate) fn alltoall_time(
        &self,
        procs: usize,
        procs_per_node: usize,
        bytes_per_proc: f64,
    ) -> f64 {
        let bw = self.alltoall_bw_per_proc(procs, procs_per_node);
        self.collective_alpha * (procs as f64).log2().max(1.0) + bytes_per_proc / bw
    }

    /// Wall time of a small-message collective (reduce/bcast) over
    /// `procs` participants.
    pub(crate) fn small_collective_time(&self, procs: usize) -> f64 {
        self.collective_alpha * (procs.max(2) as f64).log2()
    }

    /// Main-loop drag factor while pulls are active, for a job of
    /// `procs` processes under the given scheduling discipline.
    pub(crate) fn drag(&self, procs: usize, phase_aware: bool) -> f64 {
        let base = if phase_aware {
            self.drag_phase_aware
        } else {
            self.drag_unthrottled
        };
        // Cubic in log-scale: collectives spanning more nodes are
        // disproportionately sensitive to competing DMA traffic (the
        // paper's CPU savings dip between 8,192 and 16,384 cores).
        let scale = ((procs.max(2) as f64).log2() / self.drag_ref_procs.log2())
            .powi(3)
            .clamp(0.08, 1.5);
        base * scale
    }
}

/// Per-operator computational cost model: streaming throughput per core.
///
/// "Computation-dominant" operators (histogram, 2-D histogram) have low
/// per-core throughput; sorting is comparison/memory-bound and fast per
/// byte but communication-heavy (the distinction driving Fig. 7's
/// placement conclusions).
#[derive(Debug, Clone)]
pub struct OpCosts {
    /// Local sort throughput per core, bytes/s.
    pub(crate) sort_cpu_bps: f64,
    /// 1-D histogram scan throughput per core, bytes/s.
    pub(crate) hist_cpu_bps: f64,
    /// 2-D histogram throughput per core, bytes/s (heavier binning math).
    pub(crate) hist2d_cpu_bps: f64,
    /// Chunk-merge (re-organization) throughput per core — memcpy-bound.
    pub(crate) reorg_cpu_bps: f64,
    /// DataSpaces index-build throughput per core, bytes/s.
    pub index_cpu_bps: f64,
    /// Output bytes per input byte for histogram-class reductions
    /// (results are tiny; 8 MB files in the paper).
    pub(crate) hist_output_bytes: f64,
}

impl OpCosts {
    /// Calibrated against the paper's reported staging-side times at
    /// 16,384 cores (sort ≈ 30 s, statistics ≈ 40 s on 260 GB with 256
    /// staging cores).
    pub fn calibrated() -> OpCosts {
        OpCosts {
            sort_cpu_bps: 60e6,
            hist_cpu_bps: 58e6,
            hist2d_cpu_bps: 42e6,
            reorg_cpu_bps: 800e6,
            index_cpu_bps: 500e6,
            hist_output_bytes: 8e6,
        }
    }

    /// CPU seconds to stream `bytes` through an operator at `bps` per
    /// core with `cores` cores.
    pub(crate) fn cpu_time(bytes: f64, bps: f64, cores: usize) -> f64 {
        bytes / (bps * cores.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alltoall_efficiency_decays_with_scale() {
        let m = MachineConfig::xt5_like();
        let small = m.alltoall_bw_per_proc(64, 1);
        let large = m.alltoall_bw_per_proc(2048, 1);
        assert!(large < small);
        // Growth of wall time for fixed per-proc volume (weak scaling).
        let t_small = m.alltoall_time(64, 1, 132e6);
        let t_large = m.alltoall_time(2048, 1, 132e6);
        assert!(
            t_large > 2.0 * t_small,
            "sort shuffle must grow: {t_small} → {t_large}"
        );
    }

    #[test]
    fn alltoall_efficiency_capped_at_nic_share() {
        let m = MachineConfig::xt5_like();
        // Tiny job: efficiency formula would exceed 1; must clamp.
        assert!(m.alltoall_bw_per_proc(2, 1) <= m.nic_bw);
    }

    #[test]
    fn small_collective_is_microseconds() {
        let m = MachineConfig::xt5_like();
        let t = m.small_collective_time(2048);
        assert!(t > 0.0 && t < 0.01, "{t}");
    }

    #[test]
    fn sync_write_of_gtc_dump_matches_paper_magnitude() {
        // 260 GB from 2048 clients: paper reports 8.6 s.
        let m = MachineConfig::xt5_like();
        let pfs = crate::pfs::PfsModel::new(m.pfs.clone(), 0);
        let t = m.pfs.op_latency + 260e9 / pfs.effective_bw(2048);
        assert!(
            (5.0..20.0).contains(&t),
            "sync 260 GB write should be O(10 s), got {t:.1}"
        );
    }

    #[test]
    fn staging_drain_matches_paper_magnitude() {
        // 260 GB pulled by 512 staging procs at the calibrated rate:
        // paper reports ~20.3 s fetch. (GTC ran 2 staging procs per node,
        // 64:1 core ratio → 256 cores = 512 worker threads; fetch is per
        // *process*: 32 nodes × 2 procs = 64 pullers… we use procs.)
        let m = MachineConfig::xt5_like();
        let pull_procs = 64.0;
        let t = 260e9 / (m.rdma_pull_per_proc * pull_procs);
        assert!(
            (10.0..40.0).contains(&t),
            "drain should be O(20 s), got {t:.1}"
        );
    }

    #[test]
    fn cpu_time_scales_inverse_with_cores() {
        let c = OpCosts::calibrated();
        let t1 = OpCosts::cpu_time(1e9, c.hist_cpu_bps, 8);
        let t2 = OpCosts::cpu_time(1e9, c.hist_cpu_bps, 16);
        assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }
}
