//! Deterministic pseudo-randomness for model variability.
//!
//! The shared machine introduces run-to-run noise (file-system load from
//! other jobs, network interference). We model it with a tiny, fully
//! deterministic generator so scenario runs are reproducible functions of
//! their seed, and "best of 5 runs" experiments (the paper's methodology)
//! can be replayed exactly.

/// SplitMix64: tiny, high-quality, allocation-free. Not cryptographic.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box–Muller.
    pub(crate) fn normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Lognormal multiplier with median 1 and shape `sigma` — the
    /// heavy-tailed slowdowns a shared file system exhibits.
    pub(crate) fn lognormal_factor(&mut self, sigma: f64) -> f64 {
        (sigma * self.normal()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_range_and_mean() {
        let mut r = SplitMix64::new(1);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = 2.0 + 2.0 * r.next_f64();
            assert!((2.0..4.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SplitMix64::new(7);
        let n = 20_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median_near_one() {
        let mut r = SplitMix64::new(9);
        let mut xs: Vec<f64> = (0..5001).map(|_| r.lognormal_factor(0.3)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[2500];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }
}
