//! `Route()`: mapping compute ranks to staging nodes.
//!
//! The paper's Stage 1c sends each chunk's fetch request "to the staging
//! node chosen by a user-overridable function Route()". The default keeps
//! contiguous blocks of compute ranks on one staging node (locality with
//! block-decomposed domains); a modulo router spreads neighbours instead.

/// Chooses the staging rank responsible for a compute rank's output.
pub trait Router: Send + Sync {
    /// Pick the staging rank for `(compute_rank, io_step)`. Routing is a
    /// pure function of its arguments — the *caller* (the client's
    /// `write_pg`) is the chunk's `routed` lineage transition, so custom
    /// routers need no instrumentation of their own.
    fn route(&self, compute_rank: usize, io_step: u64) -> usize;

    /// Number of staging ranks this router spreads over.
    fn n_staging(&self) -> usize;

    /// All compute ranks a given staging rank serves (the inverse map);
    /// staging nodes use it to know when a step's request set is complete.
    fn served_by(&self, staging_rank: usize, n_compute: usize, io_step: u64) -> Vec<usize> {
        (0..n_compute)
            .filter(|&c| self.route(c, io_step) == staging_rank)
            .collect()
    }
}

/// Contiguous block assignment: ranks `[i*B, (i+1)*B)` → staging `i`.
#[derive(Debug, Clone)]
pub struct BlockRouter {
    n_compute: usize,
    n_staging: usize,
}

impl BlockRouter {
    pub fn new(n_compute: usize, n_staging: usize) -> Self {
        assert!(n_staging > 0 && n_compute >= n_staging);
        BlockRouter {
            n_compute,
            n_staging,
        }
    }
}

impl Router for BlockRouter {
    fn route(&self, compute_rank: usize, _io_step: u64) -> usize {
        // Ceil-division block size so every staging rank is used and the
        // mapping covers all compute ranks.
        let block = self.n_compute.div_ceil(self.n_staging);
        (compute_rank / block).min(self.n_staging - 1)
    }

    fn n_staging(&self) -> usize {
        self.n_staging
    }
}

/// Round-robin assignment: rank `c` → staging `c % n`.
#[derive(Debug, Clone)]
pub struct ModuloRouter {
    n_staging: usize,
}

impl ModuloRouter {
    pub fn new(n_staging: usize) -> Self {
        assert!(n_staging > 0);
        ModuloRouter { n_staging }
    }
}

impl Router for ModuloRouter {
    fn route(&self, compute_rank: usize, _io_step: u64) -> usize {
        compute_rank % self.n_staging
    }

    fn n_staging(&self) -> usize {
        self.n_staging
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_router_covers_all_staging_ranks() {
        let r = BlockRouter::new(130, 4); // block = 33
        let mut seen = vec![0usize; 4];
        for c in 0..130 {
            seen[r.route(c, 0)] += 1;
        }
        assert_eq!(seen.iter().sum::<usize>(), 130);
        assert!(
            seen.iter().all(|&n| n > 0),
            "every staging rank serves someone: {seen:?}"
        );
    }

    #[test]
    fn block_router_is_contiguous() {
        let r = BlockRouter::new(128, 2);
        assert!((0..64).all(|c| r.route(c, 0) == 0));
        assert!((64..128).all(|c| r.route(c, 0) == 1));
    }

    #[test]
    fn served_by_inverts_route() {
        let r = ModuloRouter::new(3);
        for s in 0..3 {
            for c in r.served_by(s, 20, 0) {
                assert_eq!(r.route(c, 0), s);
            }
        }
        let total: usize = (0..3).map(|s| r.served_by(s, 20, 0).len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn paper_ratio_64_to_1() {
        // GTC config: 64 compute cores per staging core.
        let r = BlockRouter::new(16_384, 256);
        for s in 0..256 {
            assert_eq!(r.served_by(s, 16_384, 0).len(), 64);
        }
    }
}
