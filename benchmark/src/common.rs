//! Small shared pieces: progress counters for the watchdog, the host
//! calibration loop, `/proc` readers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Operations started / finished so far, process-wide. The child's
/// heartbeat thread prints them, so a parent that has to kill a hung
/// child can still report what was outstanding.
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
pub static FINISHED: AtomicU64 = AtomicU64::new(0);

pub fn attempt(n: u64) {
    ATTEMPTED.fetch_add(n, Ordering::Relaxed);
}

pub fn finish(n: u64) {
    FINISHED.fetch_add(n, Ordering::Relaxed);
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A fixed single-thread integer loop (xorshift, 2²⁴ rounds), timed in
/// milliseconds. Run before and after each workload: a slow or busy
/// host shows up here, next to the numbers it distorted.
pub fn calibrate_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..(1u32 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    ms(t.elapsed())
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1e3
}

/// CPU time (user + system) this process has used so far, in seconds.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // utime and stime are fields 14 and 15; `f[0]` is field 3.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// First field of `/proc/loadavg`.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type_of(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Median time of `f`, called repeatedly for about `budget` (at least
/// `min_calls` times, after `warm` untimed calls). For calls long enough
/// (≳ 5 µs) that one `Instant` pair per call is negligible.
pub fn time_calls(
    budget: Duration,
    warm: usize,
    min_calls: usize,
    mut f: impl FnMut(),
) -> Duration {
    for _ in 0..warm {
        f();
    }
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || (started.elapsed() < budget && samples.len() < 100_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    Duration::from_secs_f64(crate::stats::median(&samples))
}

/// Nanoseconds per call of a tiny operation: nine batches of `n` calls,
/// median batch.
pub fn time_loop_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let mut batches = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        batches.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    crate::stats::median(&batches)
}
