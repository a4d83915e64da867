//! Summary statistics the benchmark reports: medians, the "highest
//! percentile with at least ten samples beyond it" rule, block-median
//! throughput, quartile spread, and the open-loop due-time schedule.

use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted_copy(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted_copy(values), q)
}

/// The candidate tail percentiles, highest first.
const TAILS: [(f64, &str); 5] = [
    (0.9999, "p99.99"),
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.90, "p90"),
];

/// A timing sample summarised as the guide asks: the median plus the
/// highest percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSummary {
    pub n: usize,
    pub median: f64,
    /// `None` when even p90 has fewer than ten samples beyond it.
    pub tail: Option<(&'static str, f64)>,
}

pub fn summarize(values: &[f64]) -> TimingSummary {
    let v = sorted_copy(values);
    let n = v.len();
    let tail = TAILS.iter().find_map(|&(q, label)| {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        (n >= rank + 10).then(|| (label, v[rank - 1]))
    });
    TimingSummary {
        n,
        median: median(&v),
        tail,
    }
}

/// Block-median rate: `finish[i]` is when operation `i` completed
/// (seconds, ascending), `start` when the first one began. The timed
/// operations are split into up to ten equal consecutive blocks; each
/// block's rate is operations per second of its own wall time, and the
/// median block is returned — one slow stretch (a neighbour's burst, a
/// writeback stall) moves one block, not the result.
pub fn block_median_rate(start: f64, finish: &[f64]) -> f64 {
    assert!(!finish.is_empty(), "rate of zero operations");
    let blocks = finish.len().min(10);
    let per = finish.len() / blocks;
    let mut rates = Vec::with_capacity(blocks);
    let mut prev = start;
    for b in 0..blocks {
        let end = finish[(b + 1) * per - 1];
        rates.push(per as f64 / (end - prev).max(1e-9));
        prev = end;
    }
    median(&rates)
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` — the rule the acceptance check
/// uses, so `--repeat` reports the same spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted_copy(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

/// One rung of an open-loop schedule: `count` events at `rate` per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate: f64,
    pub count: usize,
}

/// Due times (offsets from the schedule's start) of every event of an
/// open-loop schedule: within a rung events are evenly spaced at the
/// rung's rate, and a rung starts when the previous one's last slot ends.
/// The schedule is a function of the rungs alone — it never slows when
/// the system under test does.
pub fn open_loop_due_times(rungs: &[Rung]) -> Vec<Duration> {
    let mut due = Vec::with_capacity(rungs.iter().map(|r| r.count).sum());
    let mut rung_start = 0.0f64;
    for r in rungs {
        for k in 0..r.count {
            due.push(Duration::from_secs_f64(rung_start + k as f64 / r.rate));
        }
        rung_start += r.count as f64 / r.rate;
    }
    due
}

/// Latency of an open-loop request: from when it was *due* — not from
/// when the generator got round to sending it — to its observed
/// completion, so a stall is charged to every request it delayed.
/// Returns `(latency, generator lateness)`.
pub fn open_loop_latency(due: Duration, sent: Duration, done: Duration) -> (Duration, Duration) {
    (done.saturating_sub(due), sent.saturating_sub(due))
}

/// FNV-1a over a byte stream, for input checksums.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail, Some(("p90", 90.0)));
        // 200 samples: p95 leaves 10 beyond, p99 only 2.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some(("p95", 190.0)));
        // 1000 samples: p99 leaves 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some(("p99", 990.0)));
        // 99 samples: not even p90 qualifies (rank 90, 9 beyond).
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, None);
    }

    #[test]
    fn block_median_ignores_one_slow_block() {
        // 100 ops at 10 ms each, except ops 30..40 take 100 ms each.
        let mut t = 0.0;
        let finish: Vec<f64> = (0..100)
            .map(|i| {
                t += if (30..40).contains(&i) { 0.100 } else { 0.010 };
                t
            })
            .collect();
        let rate = block_median_rate(0.0, &finish);
        assert!((rate - 100.0).abs() < 1e-6, "median block rate {rate}");
        // The total-wall rate would have been dragged to ~53/s.
        assert!(100.0 / finish[99] < 60.0);
    }

    #[test]
    fn block_median_handles_short_runs() {
        assert!((block_median_rate(1.0, &[2.0]) - 1.0).abs() < 1e-9);
        let r = block_median_rate(0.0, &[0.5, 1.0, 1.5]);
        assert!((r - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn open_loop_schedule_is_fixed_and_latency_runs_from_due_time() {
        let due = open_loop_due_times(&[
            Rung {
                rate: 200.0,
                count: 2,
            },
            Rung {
                rate: 400.0,
                count: 2,
            },
        ]);
        let ms: Vec<f64> = due.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        assert_eq!(ms, vec![0.0, 5.0, 10.0, 12.5]);
        // Sent 3 ms late, done 4 ms after due: the request is charged
        // the full 4 ms and the generator 3 ms of lateness.
        let (lat, late) = open_loop_latency(
            Duration::from_millis(10),
            Duration::from_millis(13),
            Duration::from_millis(14),
        );
        assert_eq!(lat, Duration::from_millis(4));
        assert_eq!(late, Duration::from_millis(3));
        // An early send is not negative lateness.
        let (_, late) = open_loop_latency(
            Duration::from_millis(10),
            Duration::from_millis(9),
            Duration::from_millis(11),
        );
        assert_eq!(late, Duration::ZERO);
    }

    #[test]
    fn fnv_distinguishes_inputs() {
        let mut a = Fnv::default();
        a.bytes(&[1, 2]);
        let mut b = Fnv::default();
        b.bytes(&[2, 1]);
        assert_ne!(a.0, b.0);
    }
}
