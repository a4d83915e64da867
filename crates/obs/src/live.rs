//! Live telemetry plane: windowed series, cross-rank frames, health.
//!
//! PRs 2–3 made the middleware *observable post mortem* — one JSON
//! snapshot at process exit. PreDatA's argument, though, is that staging
//! must be **managed while it runs**: scheduled and shed from observed
//! perturbation and backlog (paper §IV-D), which needs metrics that
//! exist *during* the run, windowed over recent steps, and visible on
//! every staging rank. This module is that signal plane, in three
//! layers:
//!
//! 1. **Windowed series** — [`SeriesRing`]s (fixed-capacity, per-step
//!    buckets) capture counter *deltas*, gauge values, and histogram
//!    p50/p95/p99 (from the existing log₂ buckets) each I/O step. The
//!    sampler is a [`step_end`] tick driven by the staging loop — not a
//!    thread — so its overhead is deterministic: one mutex acquisition
//!    per rank per step when enabled, one relaxed atomic load when not.
//! 2. **Cross-rank aggregation** — each rank folds its window into a
//!    compact [`TelemetryFrame`] (fixed key schema, min/max/sum/count/
//!    last cells, plain `Copy` POD) and the staging loop exchanges
//!    frames over the communicator every `period_steps`, so every rank
//!    sees cluster-wide blocked-fraction, queue high-water, shed
//!    counts, retry/fault rates, and query-service backlog.
//! 3. **Health evaluation** — [`HealthReport`] from the aggregated
//!    window: straggler-rank detection (per-rank compute-span z-score),
//!    backlog-growth trend, retry-exhaustion rate — distilled into
//!    typed [`HealthSignal`]s that admission control consults instead
//!    of raw queue depth, exported into the snapshot (schema v3,
//!    additive), and appended as a rolling JSONL stream
//!    (`PREDATA_LIVE_PATH`) that `predata-report live` renders as a
//!    per-step dashboard.
//!
//! # Environment contract
//!
//! * `PREDATA_LIVE` — off by default (`""`/`0`/`off`/`false`). `1`/`on`/
//!   `true` enables the plane with defaults; a spec configures it:
//!   `PREDATA_LIVE=window=64,period_steps=1` (`window` = ring capacity
//!   in steps, `period_steps` = frame-exchange cadence). Malformed specs
//!   abort loudly. **Zero-overhead-when-disabled**: every entry point
//!   starts with one relaxed atomic load and the staging loop adds no
//!   collectives, so a disabled run is bit- and timing-identical to one
//!   built without this module.
//! * `PREDATA_LIVE_PATH=path` — append one JSON line per frame exchange
//!   to `path` (created/truncated at configure time); a dashboard can
//!   tail it mid-run. Ignored unless the plane is enabled.
//!
//! Tests use [`configure`] (programmatic, wins over the environment)
//! instead of racing on process-global env vars.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::metrics::{json_str, Registry};
use crate::spec::Spec;

const STATE_UNSET: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;

/// Parsed `PREDATA_LIVE` spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Ring capacity: how many recent steps each series/window keeps.
    pub window: usize,
    /// Frame-exchange cadence: a cross-rank aggregation every N steps.
    pub period_steps: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            window: 64,
            period_steps: 1,
        }
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
                "period_steps" => cfg.period_steps = f.num()?,
                _ => return Err(f.unknown()),
            }
        }
        if cfg.window == 0 {
            return Err("live window must be at least 1 step".into());
        }
        if cfg.period_steps == 0 {
            return Err("live period_steps must be at least 1".into());
        }
        Ok(Some(cfg))
    }
}

/// Fixed-capacity per-step time series: `(step, value)` points, oldest
/// evicted first. One ring per watched metric; the sampler locks the
/// whole ring map once per sampled step, never on a metric hot path.
#[derive(Debug, Clone)]
pub struct SeriesRing {
    cap: usize,
    points: VecDeque<(u64, f64)>,
}

impl SeriesRing {
    pub fn new(cap: usize) -> Self {
        SeriesRing {
            cap: cap.max(1),
            points: VecDeque::with_capacity(cap.max(1)),
        }
    }

    /// Append one per-step bucket, evicting the oldest past capacity.
    pub fn push(&mut self, step: u64, value: f64) {
        if self.points.len() == self.cap {
            self.points.pop_front();
        }
        self.points.push_back((step, value));
    }

    pub fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }

    pub fn last(&self) -> Option<(u64, f64)> {
        self.points.back().copied()
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Number of fixed frame keys. The schema is fixed so a frame is plain
/// POD — `Copy`, no heap — and rides any communicator as one element.
pub const N_FRAME_KEYS: usize = 10;

/// The fixed cross-rank frame schema. Per-rank keys are observed by
/// every rank from its own [`StepStats`]; process-global keys (counter
/// deltas and gauges shared by all staging threads in this harness) are
/// carried by rank 0 so cluster sums never double-count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKey {
    /// Stage-4a (pull+decode+map) wall time per rank — the rank-local
    /// span the straggler detector compares (stage 4b is collective and
    /// would synchronize the signal away).
    ComputeSpanNs = 0,
    /// Chunks gathered for the step on this rank (queue backlog).
    Backlog = 1,
    /// Operators shed by admission control on this rank.
    Sheds = 2,
    /// Chunks truncated after retry exhaustion on this rank.
    Truncated = 3,
    /// Simulation blocked-in-output fraction (perturbation monitor;
    /// rank 0, needs `PREDATA_LINEAGE`).
    BlockedFraction = 4,
    /// Work-queue high-water mark (rank 0).
    QueueHwm = 5,
    /// Transport retries absorbed in the window (rank 0).
    Retries = 6,
    /// Transport retries exhausted in the window (rank 0).
    RetryExhausted = 7,
    /// Faults injected in the window (rank 0).
    FaultsInjected = 8,
    /// DataSpaces query-service queue depth (rank 0).
    QueryBacklog = 9,
}

impl FrameKey {
    pub const ALL: [FrameKey; N_FRAME_KEYS] = [
        FrameKey::ComputeSpanNs,
        FrameKey::Backlog,
        FrameKey::Sheds,
        FrameKey::Truncated,
        FrameKey::BlockedFraction,
        FrameKey::QueueHwm,
        FrameKey::Retries,
        FrameKey::RetryExhausted,
        FrameKey::FaultsInjected,
        FrameKey::QueryBacklog,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FrameKey::ComputeSpanNs => "compute_span_ns",
            FrameKey::Backlog => "backlog",
            FrameKey::Sheds => "sheds",
            FrameKey::Truncated => "truncated",
            FrameKey::BlockedFraction => "blocked_fraction",
            FrameKey::QueueHwm => "queue_hwm",
            FrameKey::Retries => "retries",
            FrameKey::RetryExhausted => "retry_exhausted",
            FrameKey::FaultsInjected => "faults_injected",
            FrameKey::QueryBacklog => "query_backlog",
        }
    }
}

/// One frame slot: the windowed min/max/sum/count/last of one key.
/// `count == 0` means "never observed" and merges as the identity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameCell {
    pub min: f64,
    pub max: f64,
    pub sum: f64,
    pub count: u64,
    pub last: f64,
}

impl FrameCell {
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.sum += v;
        self.count += 1;
        self.last = v;
    }

    /// Fold another cell in. Deterministic under the rank-order fold
    /// the aggregation uses: `last` takes the other side's value when
    /// it observed anything, so the fold's final `last` is the
    /// highest-rank observation.
    pub fn merge(&mut self, other: &FrameCell) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
        self.last = other.last;
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// One rank's (or, aggregated, the cluster's) windowed telemetry:
/// plain `Copy` POD so it rides `minimpi` collectives as one element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryFrame {
    /// The step this frame was built at (frames exchange at step end).
    pub step: u64,
    /// Originating staging rank; `u64::MAX` for a cluster aggregate.
    pub rank: u64,
    /// How many rank frames are folded in (1 for a local frame).
    pub ranks: u64,
    pub cells: [FrameCell; N_FRAME_KEYS],
}

impl TelemetryFrame {
    pub fn local(rank: u64, step: u64) -> Self {
        TelemetryFrame {
            step,
            rank,
            ranks: 1,
            cells: [FrameCell::default(); N_FRAME_KEYS],
        }
    }

    pub fn cell(&self, key: FrameKey) -> &FrameCell {
        &self.cells[key as usize]
    }

    pub fn cell_mut(&mut self, key: FrameKey) -> &mut FrameCell {
        &mut self.cells[key as usize]
    }

    /// Fold `other` in (cluster reduction step). Deterministic when
    /// applied in rank order — which [`TelemetryFrame::aggregate`] and
    /// the staging loop's allgather-then-fold both guarantee.
    pub fn merge(&mut self, other: &TelemetryFrame) {
        self.step = self.step.max(other.step);
        self.ranks += other.ranks;
        for (mine, theirs) in self.cells.iter_mut().zip(other.cells.iter()) {
            mine.merge(theirs);
        }
    }

    /// Reduce rank frames (in slice order — pass them rank-ordered, as
    /// an allgather returns them) into one cluster frame.
    pub fn aggregate(frames: &[TelemetryFrame]) -> Option<TelemetryFrame> {
        let mut iter = frames.iter();
        let mut acc = *iter.next()?;
        for f in iter {
            acc.merge(f);
        }
        acc.rank = u64::MAX;
        Some(acc)
    }
}

/// What one staging rank reports to [`step_end`] about one finished
/// step — the per-rank facts no process-global counter can attribute
/// (staging ranks are threads sharing one registry in this harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Chunks gathered for the step (queue backlog at admission time).
    pub backlog: u64,
    /// Stage-4a (pull+decode+map) wall time on this rank.
    pub compute_span_ns: u64,
    /// Operators shed by admission control this step.
    pub shed_ops: u64,
    /// Chunks truncated after retry exhaustion this step.
    pub truncated: u64,
}

/// A typed condition distilled from telemetry — what admission control
/// and (later) the membership coordinator consume instead of raw
/// queue depths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthSignal {
    /// This rank's gathered-chunk backlog for the current step.
    QueuePressure { rank: u64, backlog: u64 },
    /// The simulation's prior-step blocked-in-output fraction.
    SimulationBlocked { fraction: f64 },
    /// One rank's compute span is `z` standard deviations above the
    /// cluster mean over the window.
    Straggler { rank: u64, z: f64 },
    /// Cluster backlog is trending up at this rate (chunks/step).
    BacklogGrowth { per_step: f64 },
    /// Retries exhausted (chunks abandoned) in the window.
    RetryExhaustion { in_window: u64 },
}

impl HealthSignal {
    pub fn kind(&self) -> &'static str {
        match self {
            HealthSignal::QueuePressure { .. } => "queue_pressure",
            HealthSignal::SimulationBlocked { .. } => "simulation_blocked",
            HealthSignal::Straggler { .. } => "straggler",
            HealthSignal::BacklogGrowth { .. } => "backlog_growth",
            HealthSignal::RetryExhaustion { .. } => "retry_exhaustion",
        }
    }

    fn push_json(&self, out: &mut String) {
        match self {
            HealthSignal::QueuePressure { rank, backlog } => out.push_str(&format!(
                "{{\"kind\":\"queue_pressure\",\"rank\":{rank},\"backlog\":{backlog}}}"
            )),
            HealthSignal::SimulationBlocked { fraction } => out.push_str(&format!(
                "{{\"kind\":\"simulation_blocked\",\"fraction\":{}}}",
                json_f64(*fraction)
            )),
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

/// Cluster-wide health at one frame exchange, derived from the
/// aggregated window.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The step this report was evaluated at.
    pub step: u64,
    /// Rank frames folded into the evaluation.
    pub ranks: u64,
    /// Latest simulation blocked-in-output fraction (0 when the
    /// perturbation monitor is off).
    pub blocked_fraction: f64,
    /// Cluster backlog: Σ over ranks of the latest per-rank backlog.
    pub backlog: u64,
    /// Work-queue high-water mark over the window.
    pub queue_high_water: u64,
    /// Least-squares slope of cluster backlog over recent exchanges
    /// (chunks/step; 0 with fewer than two points).
    pub backlog_trend: f64,
    /// Retries exhausted (chunks abandoned) in the window.
    pub retry_exhausted: u64,
    /// The flagged straggler, if any: `(rank, z-score)`.
    pub straggler: Option<(u64, f64)>,
    /// The distilled cluster-level signals (straggler, backlog growth,
    /// retry exhaustion). Local per-rank signals come from
    /// [`local_signals`].
    pub signals: Vec<HealthSignal>,
}

impl HealthReport {
    /// Evaluate cluster health from this exchange's rank frames plus
    /// the backlog history of prior reports (`(step, backlog)`).
    pub fn evaluate(
        step: u64,
        frames: &[TelemetryFrame],
        backlog_history: &[(u64, u64)],
    ) -> Option<HealthReport> {
        let agg = TelemetryFrame::aggregate(frames)?;
        let backlog: u64 = frames
            .iter()
            .map(|f| f.cell(FrameKey::Backlog).last as u64)
            .sum();
        let mut signals = Vec::new();

        // Straggler: per-rank windowed compute-span sums, z-scored.
        let spans: Vec<f64> = frames
            .iter()
            .map(|f| f.cell(FrameKey::ComputeSpanNs).sum)
            .collect();
        let straggler = straggler_of(frames, &spans);
        if let Some((rank, z)) = straggler {
            signals.push(HealthSignal::Straggler { rank, z });
        }

        // Backlog trend: least-squares slope over recent exchanges
        // including this one.
        let mut points: Vec<(f64, f64)> = backlog_history
            .iter()
            .map(|&(s, b)| (s as f64, b as f64))
            .collect();
        points.push((step as f64, backlog as f64));
        let backlog_trend = slope(&points);
        if backlog_trend > BACKLOG_GROWTH_PER_STEP {
            signals.push(HealthSignal::BacklogGrowth {
                per_step: backlog_trend,
            });
        }

        let retry_exhausted = agg.cell(FrameKey::RetryExhausted).sum as u64;
        if retry_exhausted > 0 {
            signals.push(HealthSignal::RetryExhaustion {
                in_window: retry_exhausted,
            });
        }

        let blocked = agg.cell(FrameKey::BlockedFraction);
        Some(HealthReport {
            step,
            ranks: agg.ranks,
            blocked_fraction: if blocked.count > 0 { blocked.last } else { 0.0 },
            backlog,
            queue_high_water: agg.cell(FrameKey::QueueHwm).max.max(0.0) as u64,
            backlog_trend,
            retry_exhausted,
            straggler,
            signals,
        })
    }

    pub(crate) fn push_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"step\":{},\"ranks\":{},\"blocked_fraction\":{},\"backlog\":{},\
             \"queue_high_water\":{},\"backlog_trend\":{},\"retry_exhausted\":{}",
            self.step,
            self.ranks,
            json_f64(self.blocked_fraction),
            self.backlog,
            self.queue_high_water,
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

/// The flagged straggler among `frames` (z over the per-rank windowed
/// compute-span sums), or `None`. Needs ≥ 3 ranks and a real spread.
fn straggler_of(frames: &[TelemetryFrame], spans: &[f64]) -> Option<(u64, f64)> {
    let n = spans.len();
    if n < 3 {
        return None;
    }
    let mean = spans.iter().sum::<f64>() / n as f64;
    let var = spans.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let std = var.sqrt();
    if std <= 0.0 {
        return None;
    }
    let (i, &x) = spans.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
    let z = (x - mean) / std;
    (z > STRAGGLER_Z && x > STRAGGLER_DOMINANCE * mean && x - mean > STRAGGLER_MIN_GAP_NS)
        .then(|| (frames[i].rank, z))
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
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Watched process-global counters, sampled as per-step deltas.
const WATCH_COUNTERS: [&str; 5] = [
    "transport.retries",
    "transport.retry_exhausted",
    "transport.faults_injected",
    "transport.bytes_pulled",
    "staging.truncated_chunks",
];
/// Watched gauges, sampled as current values.
const WATCH_GAUGES: [&str; 2] = ["staging.work_queue_hwm", "dataspaces.query_queue_depth"];
/// Watched histograms, sampled as p50/p95/p99 of everything so far.
const WATCH_HISTOGRAMS: [&str; 2] = ["transport.rdma_get_ns", "dataspaces.query_exec_us"];
const QUANTILES: [(f64, &str); 3] = [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")];

/// One step's process-global sample: counter deltas since the previous
/// sample, gauge values, and the perturbation fraction. Folded into
/// rank 0's frame so cluster sums count each global exactly once.
#[derive(Debug, Clone, Copy, Default)]
struct GlobalSample {
    retries: u64,
    retry_exhausted: u64,
    faults_injected: u64,
    queue_hwm: i64,
    query_backlog: i64,
    blocked_fraction: Option<f64>,
}

#[derive(Debug)]
struct StreamOut {
    path: PathBuf,
    file: std::io::BufWriter<std::fs::File>,
    /// First write error disables the stream (warn once, not per step).
    failed: bool,
}

#[derive(Debug)]
struct PlaneInner {
    cfg: LiveConfig,
    /// Watched-metric rings, one lock for the lot per sampled step.
    series: BTreeMap<String, SeriesRing>,
    /// Cumulative counter values at the last sample (for deltas).
    counter_last: [u64; WATCH_COUNTERS.len()],
    /// Per-step global samples over the window.
    globals: VecDeque<(u64, GlobalSample)>,
    /// Per-rank `StepStats` windows.
    ranks: BTreeMap<u64, VecDeque<(u64, StepStats)>>,
    /// Highest step whose globals were sampled (staging ranks are
    /// threads here; the first one to finish a step samples for all).
    sampled_step: Option<u64>,
    /// Aggregated cluster frames, one per exchange, over the window.
    frames: VecDeque<TelemetryFrame>,
    health: VecDeque<HealthReport>,
    /// Highest step already ingested (makes [`LivePlane::ingest_frames`]
    /// idempotent across the rank threads sharing this plane).
    ingested_step: Option<u64>,
    stream: Option<StreamOut>,
}

impl PlaneInner {
    fn new(cfg: LiveConfig, stream_path: Option<PathBuf>) -> Self {
        let stream = stream_path.and_then(|path| match std::fs::File::create(&path) {
            Ok(f) => Some(StreamOut {
                path,
                file: std::io::BufWriter::new(f),
                failed: false,
            }),
            Err(e) => {
                eprintln!("warning: PREDATA_LIVE_PATH {path:?}: {e}; live stream disabled");
                None
            }
        });
        PlaneInner {
            cfg,
            series: BTreeMap::new(),
            counter_last: [0; WATCH_COUNTERS.len()],
            globals: VecDeque::new(),
            ranks: BTreeMap::new(),
            sampled_step: None,
            frames: VecDeque::new(),
            health: VecDeque::new(),
            ingested_step: None,
            stream,
        }
    }

    fn push_series(&mut self, name: &str, step: u64, value: f64) {
        let cap = self.cfg.window;
        self.series
            .entry(name.to_string())
            .or_insert_with(|| SeriesRing::new(cap))
            .push(step, value);
    }

    /// Sample the watched process-global metrics for `step`: counter
    /// deltas, gauge values, histogram quantiles — into the series
    /// rings and the globals window.
    fn sample_globals(&mut self, reg: &Registry, step: u64) {
        let mut sample = GlobalSample::default();
        for (i, name) in WATCH_COUNTERS.iter().enumerate() {
            let now = reg.counter_total(name);
            let delta = now.saturating_sub(self.counter_last[i]);
            self.counter_last[i] = now;
            self.push_series(name, step, delta as f64);
            match *name {
                "transport.retries" => sample.retries = delta,
                "transport.retry_exhausted" => sample.retry_exhausted = delta,
                "transport.faults_injected" => sample.faults_injected = delta,
                _ => {}
            }
        }
        for name in WATCH_GAUGES {
            let (value, max) = reg.gauge_peek(name).unwrap_or((0, 0));
            self.push_series(name, step, value as f64);
            match name {
                "staging.work_queue_hwm" => sample.queue_hwm = max,
                "dataspaces.query_queue_depth" => sample.query_backlog = value,
                _ => {}
            }
        }
        for name in WATCH_HISTOGRAMS {
            if let Some(qs) = reg.histogram_quantiles(name, [0.50, 0.95, 0.99]) {
                for ((_, suffix), q) in QUANTILES.iter().zip(qs) {
                    if let Some(v) = q {
                        self.push_series(&format!("{name}.{suffix}"), step, v as f64);
                    }
                }
            }
        }
        sample.blocked_fraction = step
            .checked_sub(1)
            .and_then(|prev| reg.perturb().stat_for(prev))
            .and_then(|stat| stat.blocked_fraction());
        if let Some(f) = sample.blocked_fraction {
            self.push_series("perturb.blocked_fraction", step, f);
        }
        if self.globals.len() == self.cfg.window {
            self.globals.pop_front();
        }
        self.globals.push_back((step, sample));
    }

    fn note_rank(&mut self, rank: u64, step: u64, stats: StepStats) {
        let cap = self.cfg.window;
        let window = self.ranks.entry(rank).or_default();
        if window.len() == cap {
            window.pop_front();
        }
        window.push_back((step, stats));
    }

    fn local_frame(&self, rank: u64, step: u64) -> TelemetryFrame {
        let mut frame = TelemetryFrame::local(rank, step);
        if let Some(window) = self.ranks.get(&rank) {
            for &(_, stats) in window {
                frame
                    .cell_mut(FrameKey::ComputeSpanNs)
                    .observe(stats.compute_span_ns as f64);
                frame
                    .cell_mut(FrameKey::Backlog)
                    .observe(stats.backlog as f64);
                frame
                    .cell_mut(FrameKey::Sheds)
                    .observe(stats.shed_ops as f64);
                frame
                    .cell_mut(FrameKey::Truncated)
                    .observe(stats.truncated as f64);
            }
        }
        // Rank 0 carries the process-globals (one carrier: cluster
        // sums must count each global once, and rank 0 is always in
        // the communicator — membership keeps inactive ranks in the
        // collectives).
        if rank == 0 {
            for &(_, g) in &self.globals {
                frame.cell_mut(FrameKey::Retries).observe(g.retries as f64);
                frame
                    .cell_mut(FrameKey::RetryExhausted)
                    .observe(g.retry_exhausted as f64);
                frame
                    .cell_mut(FrameKey::FaultsInjected)
                    .observe(g.faults_injected as f64);
                frame
                    .cell_mut(FrameKey::QueueHwm)
                    .observe(g.queue_hwm as f64);
                frame
                    .cell_mut(FrameKey::QueryBacklog)
                    .observe(g.query_backlog as f64);
                if let Some(f) = g.blocked_fraction {
                    frame.cell_mut(FrameKey::BlockedFraction).observe(f);
                }
            }
        }
        frame
    }

    fn write_stream_line(&mut self, frames: &[TelemetryFrame], report: &HealthReport) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        if stream.failed {
            return;
        }
        let mut line = String::with_capacity(512);
        line.push_str(&format!(
            "{{\"step\":{},\"ranks\":{},\"frame\":",
            report.step, report.ranks
        ));
        match TelemetryFrame::aggregate(frames) {
            Some(agg) => push_frame_cells_json(&agg, &mut line),
            None => line.push_str("{}"),
        }
        line.push_str(",\"health\":");
        report.push_json(&mut line);
        line.push_str(",\"per_rank\":[");
        for (i, f) in frames.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{{\"rank\":{},\"compute_ns\":{},\"backlog\":{},\"sheds\":{},\"truncated\":{}}}",
                f.rank,
                json_f64(f.cell(FrameKey::ComputeSpanNs).sum),
                json_f64(f.cell(FrameKey::Backlog).last),
                json_f64(f.cell(FrameKey::Sheds).sum),
                json_f64(f.cell(FrameKey::Truncated).sum),
            ));
        }
        line.push_str("]}\n");
        let failed = stream
            .file
            .write_all(line.as_bytes())
            .and_then(|()| stream.file.flush());
        if let Err(e) = failed {
            eprintln!(
                "warning: live stream {:?}: {e}; further lines dropped",
                stream.path
            );
            stream.failed = true;
        }
    }
}

/// Render a frame's cells as `{"key":{min,max,sum,count,last},...}`,
/// omitting never-observed cells.
fn push_frame_cells_json(frame: &TelemetryFrame, out: &mut String) {
    out.push('{');
    let mut first = true;
    for key in FrameKey::ALL {
        let c = frame.cell(key);
        if c.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{}:{{\"min\":{},\"max\":{},\"sum\":{},\"count\":{},\"last\":{}}}",
            json_str(key.name()),
            json_f64(c.min),
            json_f64(c.max),
            json_f64(c.sum),
            c.count,
            json_f64(c.last)
        ));
    }
    out.push('}');
}

/// Point-in-time copy of the live plane for the snapshot exporter
/// (schema v3's `live` and `health` sections).
#[derive(Debug, Clone, Default)]
pub struct LiveSnap {
    pub window: usize,
    pub period_steps: u64,
    /// `(series name, (step, value) points)`, name-sorted.
    pub series: Vec<(String, Vec<(u64, f64)>)>,
    /// Aggregated cluster frames, oldest first.
    pub frames: Vec<TelemetryFrame>,
    /// Health reports, oldest first.
    pub health: Vec<HealthReport>,
}

impl LiveSnap {
    /// Render the snapshot's `"live"` section value.
    pub(crate) fn push_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"window\":{},\"period_steps\":{},\"series\":[",
            self.window, self.period_steps
        ));
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
        out.push_str("],\"frames\":[");
        for (i, f) in self.frames.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"step\":{},\"ranks\":{},\"cells\":",
                f.step, f.ranks
            ));
            push_frame_cells_json(f, out);
            out.push('}');
        }
        out.push_str("]}");
    }
}

/// The per-registry live telemetry plane. Disabled (the default) it is
/// one relaxed atomic load per entry point; enabled, one mutex
/// acquisition per rank per step — never on a metric hot path.
#[derive(Debug)]
pub struct LivePlane {
    state: AtomicU8,
    inner: Mutex<Option<PlaneInner>>,
}

impl Default for LivePlane {
    fn default() -> Self {
        LivePlane {
            state: AtomicU8::new(STATE_UNSET),
            inner: Mutex::new(None),
        }
    }
}

impl LivePlane {
    /// Whether the plane is on. The first call on an unset plane reads
    /// `PREDATA_LIVE` / `PREDATA_LIVE_PATH` (once per process) and
    /// installs the result.
    pub fn is_enabled(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            STATE_ON => true,
            STATE_OFF => false,
            _ => self.init_from_env(),
        }
    }

    #[cold]
    fn init_from_env(&self) -> bool {
        match env_config() {
            Some((cfg, path)) => {
                self.configure(Some(*cfg), path.clone());
                true
            }
            None => {
                self.state.store(STATE_OFF, Ordering::Relaxed);
                false
            }
        }
    }

    /// Programmatic (re)configuration — wins over the environment.
    /// `Some` installs a fresh plane (dropping prior windows) with an
    /// optional JSONL stream at `stream_path`; `None` flushes any
    /// stream and turns the plane off.
    pub fn configure(&self, cfg: Option<LiveConfig>, stream_path: Option<PathBuf>) {
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(old) = guard.take() {
            drop_flush(old);
        }
        match cfg {
            Some(cfg) => {
                *guard = Some(PlaneInner::new(cfg, stream_path));
                self.state.store(STATE_ON, Ordering::Relaxed);
            }
            None => {
                self.state.store(STATE_OFF, Ordering::Relaxed);
            }
        }
    }

    /// The configured window/period, when enabled.
    pub fn config(&self) -> Option<LiveConfig> {
        if !self.is_enabled() {
            return None;
        }
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(|p| p.cfg)
    }

    /// The staging loop's per-step tick: record this rank's stats and,
    /// for the first rank to finish the step, sample the watched
    /// process-global metrics into the series rings.
    pub fn step_end(&self, reg: &Registry, rank: u64, step: u64, stats: StepStats) {
        if !self.is_enabled() {
            return;
        }
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(inner) = guard.as_mut() else { return };
        inner.note_rank(rank, step, stats);
        if inner.sampled_step.is_none_or(|s| s < step) {
            inner.sample_globals(reg, step);
            inner.sampled_step = Some(step);
        }
    }

    /// Whether `step` closes an exchange period.
    pub fn frame_due(&self, step: u64) -> bool {
        match self.config() {
            Some(cfg) => (step + 1).is_multiple_of(cfg.period_steps),
            None => false,
        }
    }

    /// This rank's frame for the exchange at `step` (its window folded
    /// into cells; rank 0 also carries the process-globals).
    pub fn local_frame(&self, rank: u64, step: u64) -> Option<TelemetryFrame> {
        if !self.is_enabled() {
            return None;
        }
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(|p| p.local_frame(rank, step))
    }

    /// Ingest one exchange's gathered frames (rank order): aggregate,
    /// evaluate health, append to the windows and the JSONL stream.
    /// Idempotent per step — in this harness the staging "ranks" are
    /// threads sharing one plane, so every rank ingests the same
    /// exchange and only the first one lands it.
    pub fn ingest_frames(&self, step: u64, frames: &[TelemetryFrame]) -> Option<HealthReport> {
        if !self.is_enabled() {
            return None;
        }
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let inner = guard.as_mut()?;
        if inner.ingested_step.is_some_and(|s| s >= step) {
            return inner.health.back().cloned();
        }
        let history: Vec<(u64, u64)> = inner.health.iter().map(|h| (h.step, h.backlog)).collect();
        let report = HealthReport::evaluate(step, frames, &history)?;
        let agg = TelemetryFrame::aggregate(frames)?;
        if inner.frames.len() == inner.cfg.window {
            inner.frames.pop_front();
        }
        inner.frames.push_back(agg);
        if inner.health.len() == inner.cfg.window {
            inner.health.pop_front();
        }
        inner.health.push_back(report.clone());
        inner.ingested_step = Some(step);
        inner.write_stream_line(frames, &report);
        Some(report)
    }

    /// The most recent health report, when one exists.
    pub fn latest_health(&self) -> Option<HealthReport> {
        if !self.is_enabled() {
            return None;
        }
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .and_then(|p| p.health.back().cloned())
    }

    /// Flush the JSONL stream (shutdown hook; lines are also flushed
    /// per exchange so a tailing dashboard never waits).
    pub fn flush(&self) {
        if !self.is_enabled() {
            return;
        }
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(stream) = guard.as_mut().and_then(|p| p.stream.as_mut()) {
            let _ = stream.file.flush();
        }
    }

    /// Point-in-time copy for the snapshot exporter; `None` when off.
    pub fn snap(&self) -> Option<LiveSnap> {
        // A bare state load, NOT `is_enabled()`: snapshotting a
        // never-touched plane must not read the environment and flip
        // it on mid-snapshot.
        if self.state.load(Ordering::Relaxed) != STATE_ON {
            return None;
        }
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let inner = guard.as_ref()?;
        Some(LiveSnap {
            window: inner.cfg.window,
            period_steps: inner.cfg.period_steps,
            series: inner
                .series
                .iter()
                .map(|(name, ring)| (name.clone(), ring.points().collect()))
                .collect(),
            frames: inner.frames.iter().copied().collect(),
            health: inner.health.iter().cloned().collect(),
        })
    }
}

fn drop_flush(mut inner: PlaneInner) {
    if let Some(stream) = inner.stream.as_mut() {
        let _ = stream.file.flush();
    }
}

/// The process-wide `PREDATA_LIVE` / `PREDATA_LIVE_PATH` read, once.
fn env_config() -> &'static Option<(LiveConfig, Option<PathBuf>)> {
    static CFG: OnceLock<Option<(LiveConfig, Option<PathBuf>)>> = OnceLock::new();
    CFG.get_or_init(|| {
        let cfg = match std::env::var("PREDATA_LIVE") {
            Ok(spec) => LiveConfig::parse(&spec).unwrap_or_else(|e| panic!("PREDATA_LIVE: {e}"))?,
            Err(_) => return None,
        };
        let path = std::env::var("PREDATA_LIVE_PATH")
            .ok()
            .filter(|p| !p.is_empty())
            .map(PathBuf::from);
        Some((cfg, path))
    })
}

// --- Global-plane conveniences (what the staging loop calls) ---

/// Whether the global plane is on. One relaxed atomic load when it is
/// not — the zero-overhead-when-disabled contract.
pub fn enabled() -> bool {
    crate::global().live().is_enabled()
}

/// Programmatically (re)configure the global plane (wins over the
/// environment). See [`LivePlane::configure`].
pub fn configure(cfg: Option<LiveConfig>, stream_path: Option<PathBuf>) {
    crate::global().live().configure(cfg, stream_path);
}

/// Per-step tick from the staging loop. See [`LivePlane::step_end`].
pub fn step_end(rank: u64, step: u64, stats: StepStats) {
    let reg = crate::global();
    reg.live().step_end(reg, rank, step, stats);
}

/// Whether `step` closes a frame-exchange period on the global plane.
pub fn frame_due(step: u64) -> bool {
    crate::global().live().frame_due(step)
}

/// This rank's exchange frame from the global plane.
pub fn local_frame(rank: u64, step: u64) -> Option<TelemetryFrame> {
    crate::global().live().local_frame(rank, step)
}

/// Ingest gathered frames into the global plane.
pub fn ingest_frames(step: u64, frames: &[TelemetryFrame]) -> Option<HealthReport> {
    crate::global().live().ingest_frames(step, frames)
}

/// Flush the global plane's JSONL stream.
pub fn flush() {
    crate::global().live().flush();
}

/// The global plane's most recent cluster health report, if any.
pub fn latest_health() -> Option<HealthReport> {
    crate::global().live().latest_health()
}

/// The typed signals admission control consults for one rank/step:
/// always the local pressure facts (this step's gathered backlog, the
/// prior step's simulation blocked-fraction), plus the latest
/// cluster-level health signals when the live plane has evaluated any.
/// Works with the plane off — the local facts don't need it.
pub fn local_signals(rank: u64, step: u64, backlog: u64) -> Vec<HealthSignal> {
    let reg = crate::global();
    let mut out = vec![HealthSignal::QueuePressure { rank, backlog }];
    if let Some(fraction) = step
        .checked_sub(1)
        .and_then(|prev| reg.perturb().stat_for(prev))
        .and_then(|stat| stat.blocked_fraction())
    {
        out.push(HealthSignal::SimulationBlocked { fraction });
    }
    if let Some(report) = reg.live().latest_health() {
        out.extend(report.signals.iter().copied());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar_and_off() {
        for off in ["", "0", "off", "false", "  "] {
            assert_eq!(LiveConfig::parse(off).unwrap(), None, "{off:?}");
        }
        for on in ["1", "on", "true"] {
            assert_eq!(LiveConfig::parse(on).unwrap(), Some(LiveConfig::default()));
        }
        let cfg = LiveConfig::parse("window=16, period_steps=4")
            .unwrap()
            .unwrap();
        assert_eq!(cfg.window, 16);
        assert_eq!(cfg.period_steps, 4);
        assert!(LiveConfig::parse("window=0").is_err());
        assert!(LiveConfig::parse("period_steps=0").is_err());
        assert!(LiveConfig::parse("cadence=3").is_err());
        assert!(LiveConfig::parse("window").is_err());
    }

    #[test]
    fn series_ring_evicts_oldest() {
        let mut r = SeriesRing::new(3);
        for step in 0..5u64 {
            r.push(step, step as f64 * 2.0);
        }
        assert_eq!(r.len(), 3);
        let points: Vec<_> = r.points().collect();
        assert_eq!(points, vec![(2, 4.0), (3, 6.0), (4, 8.0)]);
        assert_eq!(r.last(), Some((4, 8.0)));
    }

    #[test]
    fn frame_cell_merge_is_min_max_sum_count() {
        let mut a = FrameCell::default();
        a.observe(3.0);
        a.observe(9.0);
        let mut b = FrameCell::default();
        b.observe(1.0);
        let empty = FrameCell::default();
        a.merge(&empty);
        assert_eq!(a.count, 2, "empty merges as identity");
        a.merge(&b);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 9.0);
        assert_eq!(a.sum, 13.0);
        assert_eq!(a.count, 3);
        assert_eq!(a.last, 1.0, "last follows the merged-in side");
        let mut c = FrameCell::default();
        c.merge(&a);
        assert_eq!(c, a, "merging into empty adopts the other side");
    }

    #[test]
    fn frame_aggregate_folds_rank_order() {
        let mut f0 = TelemetryFrame::local(0, 5);
        f0.cell_mut(FrameKey::Backlog).observe(2.0);
        let mut f1 = TelemetryFrame::local(1, 5);
        f1.cell_mut(FrameKey::Backlog).observe(4.0);
        let agg = TelemetryFrame::aggregate(&[f0, f1]).unwrap();
        assert_eq!(agg.rank, u64::MAX);
        assert_eq!(agg.ranks, 2);
        assert_eq!(agg.cell(FrameKey::Backlog).sum, 6.0);
        assert_eq!(agg.cell(FrameKey::Backlog).last, 4.0);
        assert!(TelemetryFrame::aggregate(&[]).is_none());
    }

    /// The straggler detector flags a rank far above the mean and stays
    /// quiet on balanced or tiny spreads.
    #[test]
    fn health_flags_the_straggler_rank() {
        let frames: Vec<TelemetryFrame> = (0..4u64)
            .map(|rank| {
                let mut f = TelemetryFrame::local(rank, 7);
                // Rank 2 spent ~50ms in its map phase; the others ~40µs.
                let ns = if rank == 2 { 50_000_000.0 } else { 40_000.0 };
                f.cell_mut(FrameKey::ComputeSpanNs).observe(ns);
                f.cell_mut(FrameKey::Backlog).observe(2.0);
                f
            })
            .collect();
        let report = HealthReport::evaluate(7, &frames, &[]).unwrap();
        let (rank, z) = report.straggler.expect("straggler flagged");
        assert_eq!(rank, 2);
        assert!(z > STRAGGLER_Z, "z = {z}");
        assert!(report
            .signals
            .iter()
            .any(|s| matches!(s, HealthSignal::Straggler { rank: 2, .. })));
        assert_eq!(report.backlog, 8, "cluster backlog sums per-rank lasts");

        // Balanced spans: no flag, even with microsecond-scale noise.
        let balanced: Vec<TelemetryFrame> = (0..4u64)
            .map(|rank| {
                let mut f = TelemetryFrame::local(rank, 7);
                f.cell_mut(FrameKey::ComputeSpanNs)
                    .observe(40_000.0 + rank as f64 * 1_000.0);
                f
            })
            .collect();
        let report = HealthReport::evaluate(7, &balanced, &[]).unwrap();
        assert_eq!(report.straggler, None, "balanced ranks must not flag");
    }

    #[test]
    fn health_tracks_backlog_growth_and_retry_exhaustion() {
        let frame_with_backlog = |backlog: f64, step: u64| {
            let mut f = TelemetryFrame::local(0, step);
            f.cell_mut(FrameKey::Backlog).observe(backlog);
            f.cell_mut(FrameKey::RetryExhausted).observe(3.0);
            f
        };
        let history = vec![(0u64, 2u64), (1, 4), (2, 6)];
        let report = HealthReport::evaluate(3, &[frame_with_backlog(8.0, 3)], &history).unwrap();
        assert!(
            (report.backlog_trend - 2.0).abs() < 1e-9,
            "slope of 2/step, got {}",
            report.backlog_trend
        );
        assert!(report
            .signals
            .iter()
            .any(|s| matches!(s, HealthSignal::BacklogGrowth { .. })));
        assert_eq!(report.retry_exhausted, 3);
        assert!(report
            .signals
            .iter()
            .any(|s| matches!(s, HealthSignal::RetryExhaustion { in_window: 3 })));
    }

    #[test]
    fn plane_samples_series_and_is_idempotent_per_step() {
        let reg = Registry::new();
        reg.live().configure(
            Some(LiveConfig {
                window: 8,
                period_steps: 2,
            }),
            None,
        );
        reg.counter("transport.retries", &[("op", "pull")]).add(5);
        reg.live().step_end(&reg, 0, 0, StepStats::default());
        reg.live().step_end(&reg, 1, 0, StepStats::default());
        reg.counter("transport.retries", &[("op", "recv")]).add(2);
        reg.live().step_end(&reg, 0, 1, StepStats::default());

        let snap = reg.live().snap().unwrap();
        let (_, points) = snap
            .series
            .iter()
            .find(|(n, _)| n == "transport.retries")
            .expect("watched counter sampled");
        // Step 0 sampled once (5, not 10, despite two rank ticks);
        // step 1 sees only the delta.
        assert_eq!(points, &vec![(0, 5.0), (1, 2.0)]);

        assert!(!reg.live().frame_due(0), "period 2: step 0 is mid-period");
        assert!(reg.live().frame_due(1));
        reg.live().configure(None, None);
        assert!(!reg.live().is_enabled());
    }

    #[test]
    fn disabled_plane_is_inert() {
        let reg = Registry::new();
        reg.live().configure(None, None);
        reg.live().step_end(&reg, 0, 0, StepStats::default());
        assert!(reg.live().snap().is_none());
        assert!(reg.live().local_frame(0, 0).is_none());
        assert!(reg.live().ingest_frames(0, &[]).is_none());
        assert!(!reg.live().frame_due(0));
    }

    #[test]
    fn ingest_streams_parseable_jsonl() {
        let path = std::env::temp_dir().join(format!("live-stream-{}.jsonl", std::process::id()));
        let reg = Registry::new();
        reg.live()
            .configure(Some(LiveConfig::default()), Some(path.clone()));
        for step in 0..3u64 {
            for rank in 0..2u64 {
                reg.live().step_end(
                    &reg,
                    rank,
                    step,
                    StepStats {
                        backlog: 2,
                        compute_span_ns: 1000 * (rank + 1),
                        ..Default::default()
                    },
                );
            }
            let frames: Vec<TelemetryFrame> = (0..2)
                .map(|r| reg.live().local_frame(r, step).unwrap())
                .collect();
            let first = reg.live().ingest_frames(step, &frames).unwrap();
            // Second ingest of the same step (the other rank thread in
            // real runs) must not duplicate the stream line.
            let second = reg.live().ingest_frames(step, &frames).unwrap();
            assert_eq!(first, second);
        }
        reg.live().configure(None, None);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one line per exchange: {text}");
        for line in lines {
            assert!(line.starts_with("{\"step\":"), "line: {line}");
            assert!(line.contains("\"health\":"), "line: {line}");
            assert!(line.contains("\"per_rank\":["), "line: {line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn local_signals_carry_queue_pressure() {
        let signals = local_signals(3, 0, 17);
        assert!(signals.iter().any(|s| matches!(
            s,
            HealthSignal::QueuePressure {
                rank: 3,
                backlog: 17
            }
        )));
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
