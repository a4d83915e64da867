//! Live telemetry plane: a window of closed steps, their health, and a
//! JSONL stream of both.
//!
//! A snapshot at process exit makes the middleware observable post
//! mortem. PreDatA's argument, though, is that staging must be
//! **managed while it runs** (paper §IV-D), which needs numbers that
//! exist *during* the run, windowed over recent steps, for every staging
//! rank. The fold already has them — every staging-side event carries
//! its rank — so the plane records nothing of its own. It is a view
//! taken at the moment a step *closes*:
//!
//! 1. **The tick.** Each staging rank calls
//!    [`Registry::step_end`](crate::Registry::step_end) when it finishes
//!    a step. Staging ranks are threads sharing one registry, so the
//!    plane just counts arrivals; the last of the step's `n_ranks`
//!    closes it. No rank waits for another and nothing crosses the
//!    communicator: a live-on run performs exactly the collectives of a
//!    live-off run.
//! 2. **The close.** The closing rank reads the step's rows from the
//!    fold: per rank a [`RankRow`] (stage-4a wall time from `pull_map`,
//!    backlog from the `request_received` marks, sheds and truncations
//!    from theirs), per stage the all-rank total. They join a window of
//!    the last [`LiveConfig::window`] closed steps.
//! 3. **Health.** A [`HealthReport`] over that window — straggler rank
//!    (z-score of per-rank stage-4a time), backlog trend, retries
//!    exhausted — is evaluated once per step, kept with the step,
//!    exported in the snapshot's `health` section, and appended with the
//!    step's rows as one JSON line to `PREDATA_LIVE_PATH`, which
//!    `predata-report live` renders as a dashboard mid-run.
//!
//! `PREDATA_LIVE` is off by default (`""`/`0`/`off`/`false`); `1`/`on`/
//! `true` takes the default window, `window=N` sets it. Malformed specs
//! abort loudly. Off, the tick is one relaxed atomic load. The plane
//! reads the fold, so it sees nothing when recording itself is off.
//! Health is advisory: nothing in the staging runtime branches on it, so
//! outputs are byte-identical with the plane on or off.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::event::SpanStat;
use crate::metrics::{json_str, lock, Registry};
use crate::spec::Spec;

/// Parsed `PREDATA_LIVE` spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// How many recently closed steps the plane keeps.
    pub window: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig { window: 64 }
    }
}

impl LiveConfig {
    /// Parse a `PREDATA_LIVE` spec. `Ok(None)` means "plane off" (empty,
    /// `0`, `off`, `false`); bare `1`/`on`/`true` takes the defaults.
    pub fn parse(spec: &str) -> Result<Option<LiveConfig>, String> {
        let mut cfg = LiveConfig::default();
        let fields = match crate::spec::parse("live", spec)? {
            Spec::Unset | Spec::Off => return Ok(None),
            Spec::On => return Ok(Some(cfg)),
            Spec::Fields(fields) => fields,
        };
        for f in &fields {
            match f.key {
                "window" => cfg.window = f.num()?,
                _ => return Err(f.unknown()),
            }
        }
        if cfg.window == 0 {
            return Err("live window must be at least 1 step".into());
        }
        Ok(Some(cfg))
    }
}

/// One staging rank's part in one closed step, read from the fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankRow {
    pub rank: u32,
    /// Stage-4a (pull+decode+map) wall time — the rank-local span the
    /// straggler detector compares (stage 4b is collective and would
    /// synchronize the signal away).
    pub compute_ns: u64,
    /// Chunks gathered for the step (queue backlog at admission time).
    pub backlog: u64,
    /// Operators shed by admission control.
    pub sheds: u64,
    /// Chunks truncated after retry exhaustion.
    pub truncated: u64,
}

/// A typed condition distilled from the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthSignal {
    /// One rank's stage-4a time is `z` standard deviations above the
    /// cluster mean over the window.
    Straggler { rank: u64, z: f64 },
    /// Cluster backlog is trending up at this rate (chunks/step).
    BacklogGrowth { per_step: f64 },
    /// Retries exhausted (chunks abandoned) in the window.
    RetryExhaustion { in_window: u64 },
}

impl HealthSignal {
    fn push_json(&self, out: &mut String) {
        match self {
            HealthSignal::Straggler { rank, z } => out.push_str(&format!(
                "{{\"kind\":\"straggler\",\"rank\":{rank},\"z\":{}}}",
                json_f64(*z)
            )),
            HealthSignal::BacklogGrowth { per_step } => out.push_str(&format!(
                "{{\"kind\":\"backlog_growth\",\"per_step\":{}}}",
                json_f64(*per_step)
            )),
            HealthSignal::RetryExhaustion { in_window } => out.push_str(&format!(
                "{{\"kind\":\"retry_exhaustion\",\"in_window\":{in_window}}}"
            )),
        }
    }
}

/// Straggler flag: z-score above this, AND span above
/// [`STRAGGLER_DOMINANCE`]× the cluster mean, AND the absolute gap
/// above [`STRAGGLER_MIN_GAP_NS`]. The z threshold must sit below
/// `√(n-1)` (the max possible z for one outlier among n ranks: 1.73
/// at n=4); the dominance and absolute-gap guards keep healthy runs —
/// where spans are near-equal and tiny — from tripping on noise.
pub const STRAGGLER_Z: f64 = 1.25;
pub const STRAGGLER_DOMINANCE: f64 = 1.5;
pub const STRAGGLER_MIN_GAP_NS: f64 = 1_000_000.0;
/// Backlog-growth flag: sustained slope above this many chunks/step.
pub const BACKLOG_GROWTH_PER_STEP: f64 = 1.0;

/// Cluster-wide health at one step's close, derived from the window.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The step this report was evaluated at.
    pub step: u64,
    /// Staging ranks in the evaluation.
    pub ranks: u64,
    /// The prior step's simulation blocked-in-output fraction (0 until
    /// the application reports compute time).
    pub blocked_fraction: f64,
    /// Cluster backlog: Σ over ranks of this step's backlog.
    pub backlog: u64,
    /// Least-squares slope of cluster backlog over the window
    /// (chunks/step; 0 with fewer than two steps).
    pub backlog_trend: f64,
    /// Retries exhausted (chunks abandoned) in the window.
    pub retry_exhausted: u64,
    /// The flagged straggler, if any: `(rank, z-score)`.
    pub straggler: Option<(u64, f64)>,
    pub signals: Vec<HealthSignal>,
}

impl HealthReport {
    /// Evaluate the window `(step, per-rank rows)`, oldest first; its
    /// last entry is the step being closed. `None` for an empty window.
    pub fn evaluate(window: &[(u64, &[RankRow])], blocked_fraction: f64) -> Option<HealthReport> {
        let &(step, now) = window.last()?;
        let mut signals = Vec::new();

        let mut compute: BTreeMap<u32, f64> = BTreeMap::new();
        for row in window.iter().flat_map(|(_, rows)| rows.iter()) {
            *compute.entry(row.rank).or_default() += row.compute_ns as f64;
        }
        let straggler = straggler_of(&compute);
        if let Some((rank, z)) = straggler {
            signals.push(HealthSignal::Straggler { rank, z });
        }

        let backlogs: Vec<(f64, f64)> = window
            .iter()
            .map(|(s, rows)| {
                (
                    *s as f64,
                    rows.iter().map(|r| r.backlog).sum::<u64>() as f64,
                )
            })
            .collect();
        let backlog_trend = slope(&backlogs);
        if backlog_trend > BACKLOG_GROWTH_PER_STEP {
            signals.push(HealthSignal::BacklogGrowth {
                per_step: backlog_trend,
            });
        }

        let retry_exhausted = window
            .iter()
            .flat_map(|(_, rows)| rows.iter())
            .map(|r| r.truncated)
            .sum();
        if retry_exhausted > 0 {
            signals.push(HealthSignal::RetryExhaustion {
                in_window: retry_exhausted,
            });
        }

        Some(HealthReport {
            step,
            ranks: now.len() as u64,
            blocked_fraction,
            backlog: now.iter().map(|r| r.backlog).sum(),
            backlog_trend,
            retry_exhausted,
            straggler,
            signals,
        })
    }

    pub(crate) fn push_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"step\":{},\"ranks\":{},\"blocked_fraction\":{},\"backlog\":{},\
             \"backlog_trend\":{},\"retry_exhausted\":{}",
            self.step,
            self.ranks,
            json_f64(self.blocked_fraction),
            self.backlog,
            json_f64(self.backlog_trend),
            self.retry_exhausted
        ));
        match self.straggler {
            Some((rank, z)) => out.push_str(&format!(
                ",\"straggler_rank\":{rank},\"straggler_z\":{}",
                json_f64(z)
            )),
            None => out.push_str(",\"straggler_rank\":null"),
        }
        out.push_str(",\"signals\":[");
        for (i, s) in self.signals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.push_json(out);
        }
        out.push_str("]}");
    }
}

/// The flagged straggler among per-rank windowed stage-4a sums, or
/// `None`. Needs ≥ 3 ranks and a real spread.
fn straggler_of(compute: &BTreeMap<u32, f64>) -> Option<(u64, f64)> {
    let n = compute.len();
    if n < 3 {
        return None;
    }
    let mean = compute.values().sum::<f64>() / n as f64;
    let var = compute
        .values()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / n as f64;
    let std = var.sqrt();
    if std <= 0.0 {
        return None;
    }
    let (&rank, &x) = compute.iter().max_by(|a, b| a.1.total_cmp(b.1))?;
    let z = (x - mean) / std;
    (z > STRAGGLER_Z && x > STRAGGLER_DOMINANCE * mean && x - mean > STRAGGLER_MIN_GAP_NS)
        .then_some((rank as u64, z))
}

/// Least-squares slope of `(x, y)` points; 0 with fewer than 2 points
/// or a degenerate x spread.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return 0.0;
    }
    (n * sxy - sx * sy) / denom
}

/// Render an f64 as a JSON number (non-finite values degrade to 0 —
/// they never carry signal here and NaN is not JSON).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One closed step: what the fold held for it, and what that meant.
#[derive(Debug)]
struct Closed {
    step: u64,
    ranks: Vec<RankRow>,
    /// `(stage, all ranks together)`, stage-sorted.
    stages: Vec<(&'static str, SpanStat)>,
    health: HealthReport,
}

impl Closed {
    /// This step as one line of the JSONL stream.
    fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"step\":{},\"ranks\":{},\"stages\":{{",
            self.step,
            self.ranks.len()
        );
        for (i, (stage, stat)) in self.stages.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{}:{{\"count\":{},\"total_ns\":{},\"bytes\":{}}}",
                json_str(stage),
                stat.count,
                stat.total_ns,
                stat.bytes
            ));
        }
        line.push_str("},\"health\":");
        self.health.push_json(&mut line);
        line.push_str(",\"per_rank\":[");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{{\"rank\":{},\"compute_ns\":{},\"backlog\":{},\"sheds\":{},\"truncated\":{}}}",
                r.rank, r.compute_ns, r.backlog, r.sheds, r.truncated
            ));
        }
        line.push_str("]}\n");
        line
    }
}

#[derive(Debug)]
struct PlaneInner {
    cfg: LiveConfig,
    /// How many ranks have finished each still-open step.
    arrived: BTreeMap<u64, usize>,
    /// The last `cfg.window` closed steps, oldest first.
    window: VecDeque<Closed>,
    /// The JSONL stream; the first write error drops it (warn once, not
    /// per step).
    stream: Option<(PathBuf, std::io::BufWriter<std::fs::File>)>,
}

impl PlaneInner {
    fn close(&mut self, reg: &Registry, n_ranks: usize, step: u64) {
        let rows = reg.span_rows(step..=step);
        let of = |stage: &str, rank: u32| {
            rows.iter()
                .find(|r| r.stage == stage && r.rank == Some(rank))
                .map(|r| r.stat)
                .unwrap_or_default()
        };
        let ranks: Vec<RankRow> = (0..n_ranks as u32)
            .map(|rank| RankRow {
                rank,
                compute_ns: of("pull_map", rank).total_ns,
                backlog: of("request_received", rank).count,
                sheds: of("shed", rank).count,
                truncated: of("truncated", rank).count,
            })
            .collect();
        let mut stages: Vec<(&'static str, SpanStat)> = Vec::new();
        for row in &rows {
            match stages.last_mut() {
                Some((stage, stat)) if *stage == row.stage => stat.merge(&row.stat),
                _ => stages.push((row.stage, row.stat)),
            }
        }
        let blocked = step
            .checked_sub(1)
            .and_then(|prev| reg.perturb_at(prev))
            .and_then(|stat| stat.blocked_fraction())
            .unwrap_or(0.0);
        let mut window: Vec<(u64, &[RankRow])> = self
            .window
            .iter()
            .map(|c| (c.step, c.ranks.as_slice()))
            .collect();
        window.push((step, &ranks));
        let health = HealthReport::evaluate(&window, blocked).expect("window holds this step");
        let closed = Closed {
            step,
            ranks,
            stages,
            health,
        };
        if let Some((path, file)) = self.stream.as_mut() {
            let line = closed.json_line();
            if let Err(e) = file.write_all(line.as_bytes()).and_then(|()| file.flush()) {
                eprintln!("warning: live stream {path:?}: {e}; further lines dropped");
                self.stream = None;
            }
        }
        if self.window.len() == self.cfg.window {
            self.window.pop_front();
        }
        self.window.push_back(closed);
    }
}

/// Point-in-time copy of the live plane for the snapshot exporter (the
/// `live` and `health` sections).
#[derive(Debug, Clone, Default)]
pub struct LiveSnap {
    pub window: usize,
    /// `(series name, (step, value) points)` over the window,
    /// name-sorted: every stage's all-rank `<stage>.total_ns`, plus
    /// `pull.bytes`.
    pub series: Vec<(String, Vec<(u64, f64)>)>,
    /// Health reports, oldest first.
    pub health: Vec<HealthReport>,
}

impl LiveSnap {
    /// Render the snapshot's `"live"` section value.
    pub(crate) fn push_json(&self, out: &mut String) {
        out.push_str(&format!("{{\"window\":{},\"series\":[", self.window));
        for (i, (name, points)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":{},\"points\":[", json_str(name)));
            for (j, (step, v)) in points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{step},{}]", json_f64(*v)));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
}

/// The per-registry live telemetry plane. Every entry point exists here
/// once; the staging loop reaches the global one through
/// [`crate::global`].
#[derive(Debug, Default)]
pub struct LivePlane {
    on: AtomicBool,
    inner: Mutex<Option<PlaneInner>>,
}

impl LivePlane {
    pub fn is_enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// (Re)configure the plane: `Some` installs a fresh one (dropping
    /// the prior window) with an optional JSONL stream at `stream_path`;
    /// `None` turns it off. Either way a prior stream is flushed.
    pub fn configure(&self, cfg: Option<LiveConfig>, stream_path: Option<PathBuf>) {
        let mut guard = lock(&self.inner);
        if let Some((_, file)) = guard.as_mut().and_then(|p| p.stream.as_mut()) {
            let _ = file.flush();
        }
        *guard = cfg.map(|cfg| PlaneInner {
            cfg,
            arrived: BTreeMap::new(),
            window: VecDeque::new(),
            stream: stream_path.and_then(|path| match std::fs::File::create(&path) {
                Ok(f) => Some((path, std::io::BufWriter::new(f))),
                Err(e) => {
                    eprintln!("warning: PREDATA_LIVE_PATH {path:?}: {e}; live stream disabled");
                    None
                }
            }),
        });
        self.on.store(guard.is_some(), Ordering::Relaxed);
    }

    /// [`Registry::step_end`]'s body: count this rank in, and close the
    /// step if it was the last of `n_ranks`.
    pub(crate) fn step_end(&self, reg: &Registry, n_ranks: usize, step: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut guard = lock(&self.inner);
        let Some(inner) = guard.as_mut() else { return };
        let arrived = inner.arrived.entry(step).or_default();
        *arrived += 1;
        if *arrived >= n_ranks {
            inner.arrived.remove(&step);
            inner.close(reg, n_ranks, step);
        }
    }

    /// The most recent health report, when one exists.
    pub fn latest_health(&self) -> Option<HealthReport> {
        lock(&self.inner)
            .as_ref()
            .and_then(|p| p.window.back().map(|c| c.health.clone()))
    }

    /// Flush the JSONL stream (lines are also flushed per step so a
    /// tailing dashboard never waits).
    pub fn flush(&self) {
        if let Some((_, file)) = lock(&self.inner).as_mut().and_then(|p| p.stream.as_mut()) {
            let _ = file.flush();
        }
    }

    /// Point-in-time copy for the snapshot exporter; `None` when off.
    pub(crate) fn snap(&self) -> Option<LiveSnap> {
        let guard = lock(&self.inner);
        let inner = guard.as_ref()?;
        let mut series: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
        for closed in &inner.window {
            // Marks take no time: a series of zeros says nothing.
            for (stage, stat) in closed.stages.iter().filter(|(_, s)| s.total_ns > 0) {
                series
                    .entry(format!("{stage}.total_ns"))
                    .or_default()
                    .push((closed.step, stat.total_ns as f64));
                if *stage == "pull" {
                    series
                        .entry("pull.bytes".into())
                        .or_default()
                        .push((closed.step, stat.bytes as f64));
                }
            }
        }
        Some(LiveSnap {
            window: inner.cfg.window,
            series: series.into_iter().collect(),
            health: inner.window.iter().map(|c| c.health.clone()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    #[test]
    fn parse_grammar_and_off() {
        for off in ["", "0", "off", "false", "  "] {
            assert_eq!(LiveConfig::parse(off).unwrap(), None, "{off:?}");
        }
        for on in ["1", "on", "true"] {
            assert_eq!(LiveConfig::parse(on).unwrap(), Some(LiveConfig::default()));
        }
        assert_eq!(LiveConfig::parse("window=16").unwrap().unwrap().window, 16);
        assert!(LiveConfig::parse("window=0").is_err());
        assert!(
            LiveConfig::parse("period_steps=1").is_err(),
            "the knob is gone"
        );
        assert!(LiveConfig::parse("window").is_err());
    }

    fn rows(compute_ns: impl Fn(u32) -> u64, backlog: u64, truncated: u64) -> Vec<RankRow> {
        (0..4)
            .map(|rank| RankRow {
                rank,
                compute_ns: compute_ns(rank),
                backlog,
                truncated,
                ..Default::default()
            })
            .collect()
    }

    /// The straggler detector flags a rank far above the mean and stays
    /// quiet on balanced or tiny spreads.
    #[test]
    fn health_flags_the_straggler_rank() {
        // Rank 2 spent ~50ms in its map phase; the others ~40µs.
        let skewed = rows(|r| if r == 2 { 50_000_000 } else { 40_000 }, 2, 0);
        let report = HealthReport::evaluate(&[(7, &skewed)], 0.0).unwrap();
        let (rank, z) = report.straggler.expect("straggler flagged");
        assert_eq!(rank, 2);
        assert!(z > STRAGGLER_Z, "z = {z}");
        assert!(report
            .signals
            .iter()
            .any(|s| matches!(s, HealthSignal::Straggler { rank: 2, .. })));
        assert_eq!((report.ranks, report.backlog), (4, 8), "backlog sums ranks");

        // Balanced spans: no flag, even with microsecond-scale noise.
        let balanced = rows(|r| 40_000 + r as u64 * 1_000, 2, 0);
        let report = HealthReport::evaluate(&[(7, &balanced)], 0.0).unwrap();
        assert_eq!(report.straggler, None, "balanced ranks must not flag");
        assert!(HealthReport::evaluate(&[], 0.0).is_none());
    }

    #[test]
    fn health_tracks_backlog_growth_and_retry_exhaustion() {
        let steps: Vec<Vec<RankRow>> = (0..4u64)
            .map(|s| rows(|_| 0, 2 + 2 * s, (s == 1) as u64))
            .collect();
        let window: Vec<(u64, &[RankRow])> = steps
            .iter()
            .enumerate()
            .map(|(s, r)| (s as u64, r.as_slice()))
            .collect();
        let report = HealthReport::evaluate(&window, 0.25).unwrap();
        // 4 ranks × (+2 chunks/step each).
        assert!((report.backlog_trend - 8.0).abs() < 1e-9, "{report:?}");
        assert!(report
            .signals
            .iter()
            .any(|s| matches!(s, HealthSignal::BacklogGrowth { .. })));
        assert_eq!(report.retry_exhausted, 4, "one per rank at step 1");
        assert!(report
            .signals
            .iter()
            .any(|s| matches!(s, HealthSignal::RetryExhaustion { in_window: 4 })));
        assert_eq!(report.blocked_fraction, 0.25);
    }

    /// A step closes once, when its last rank arrives, from what the
    /// fold holds; the stream gets one parseable line per close and the
    /// window evicts its oldest step.
    #[test]
    fn last_rank_in_closes_the_step_from_the_fold() {
        let path = std::env::temp_dir().join(format!("live-stream-{}.jsonl", std::process::id()));
        let reg = Registry::new();
        reg.live()
            .configure(Some(LiveConfig { window: 2 }), Some(path.clone()));
        for step in 0..3u64 {
            for rank in 0..2usize {
                reg.record(
                    Event::new("pull_map", step)
                        .rank(rank)
                        .at(0, 1000 * (rank as u64 + 1)),
                );
                reg.record(
                    Event::new("request_received", step)
                        .rank(rank)
                        .chunk(rank as u64),
                );
                reg.record(Event::new("pull", step).rank(rank).at(0, 10).bytes(512));
                reg.step_end(2, step);
                let closed = reg.live().latest_health().map(|h| h.step);
                let expect = if rank == 1 {
                    Some(step)
                } else {
                    step.checked_sub(1)
                };
                assert_eq!(closed, expect, "step {step} after rank {rank}");
            }
        }
        let snap = reg.snapshot();
        let live = snap.live().expect("plane on");
        assert_eq!(live.window, 2);
        let (_, bytes) = live.series.iter().find(|(n, _)| n == "pull.bytes").unwrap();
        assert_eq!(bytes, &vec![(1, 1024.0), (2, 1024.0)], "window of 2");
        assert_eq!(snap.health().len(), 2);
        assert_eq!(snap.health()[1].backlog, 2);

        reg.live().configure(None, None);
        assert!(!reg.live().is_enabled());
        reg.step_end(2, 9);
        assert!(reg.snapshot().live().is_none(), "off: inert");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one line per closed step: {text}");
        for line in lines {
            assert!(line.starts_with("{\"step\":"), "line: {line}");
            assert!(line.contains("\"pull_map\":{\"count\":2,\"total_ns\":3000,"));
            assert!(line.contains("\"health\":") && line.contains("\"per_rank\":["));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slope_and_json_helpers() {
        assert_eq!(slope(&[]), 0.0);
        assert_eq!(slope(&[(0.0, 5.0)]), 0.0);
        assert!((slope(&[(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)]) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 3.0), (1.0, 9.0)]), 0.0, "degenerate x");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
    }
}
