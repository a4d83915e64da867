//! The lock-light metrics registry.
//!
//! Registration (name + labels → handle) takes a short-lived lock and
//! allocates; it happens once per metric, at setup or per step. The hot
//! path — [`Counter::add`], [`Gauge::set`], [`Histogram::record`] — is a
//! handful of relaxed atomic operations on a shared handle: no locks, no
//! allocation, safe to leave enabled in production runs.
//!
//! Timed events go through [`Registry::record`] into the two sinks of
//! [`crate::event`]: the always-on fold and, while detail is requested,
//! the event log. The registry also holds the gates that decide both —
//! on the registry, not on the process, so two registries (two tests)
//! cannot race on a switch.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use crate::event::{Event, Fold, SpanRow, SpanStat};
use crate::lineage::ChunkLineage;
use crate::perturb::PerturbStat;

/// Schema version [`Snapshot::to_json`] writes — the only one
/// `predata-report` reads.
pub const SNAPSHOT_VERSION: u64 = 5;

/// Lock `m`, recovering the data of a poisoned mutex: every update under
/// these locks leaves the tables valid at every step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Number of log₂ histogram buckets: bucket 0 holds zero values, bucket
/// `b ≥ 1` holds values in `[2^(b-1), 2^b)`. 64 buckets cover all of
/// `u64`, so recording never clamps.
pub const HIST_BUCKETS: usize = 64;

fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `b`: 0 for the zero bucket,
/// `u64::MAX` for the saturated top bucket (it absorbs everything from
/// `2^62` up, because [`log2_bucket`] clamps).
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b == HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Nearest-rank quantile over dense log₂ bucket counts: the inclusive
/// upper bound of the bucket holding the `⌈q·count⌉`-th value — an
/// upper estimate, never below the true quantile. `None` for an empty
/// histogram or `q` outside `[0, 1]`.
pub(crate) fn quantile_from_buckets(counts: &[u64; HIST_BUCKETS], q: f64) -> Option<u64> {
    if !(0.0..=1.0).contains(&q) {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (b, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return Some(bucket_hi(b));
        }
    }
    Some(bucket_hi(HIST_BUCKETS - 1))
}

/// Fully-qualified metric identity: name + sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// Monotonic counter handle. Clone-cheap (`Arc`).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A standalone counter not attached to any registry (e.g. per-world
    /// traffic stats that also mirror into a registered global counter).
    pub fn standalone() -> Self {
        Counter::default()
    }

    pub fn add(&self, v: u64) {
        self.cell.fetch_add(v, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// Gauge handle: a current value plus its high-water mark.
#[derive(Debug)]
struct GaugeInner {
    value: AtomicI64,
    max: AtomicI64,
}

impl Default for GaugeInner {
    fn default() -> Self {
        GaugeInner {
            value: AtomicI64::new(0),
            max: AtomicI64::new(i64::MIN),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.inner.value.store(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Raise the high-water mark without touching the current value —
    /// for externally-tracked peaks (queue depth HWMs).
    pub fn record_max(&self, v: i64) {
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.inner.value.load(Ordering::Relaxed)
    }

    /// High-water mark of [`set`](Gauge::set) / [`record_max`](Gauge::record_max)
    /// values; a never-touched gauge reports its current value.
    pub fn max(&self) -> i64 {
        self.inner.max.load(Ordering::Relaxed).max(self.get())
    }
}

/// Histogram handle: fixed log₂ buckets, relaxed atomics.
#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    pub fn record(&self, v: u64) {
        self.inner.buckets[log2_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile estimate (p50 = `quantile(0.5)`): the
    /// inclusive upper bound of the log₂ bucket holding the
    /// `⌈q·count⌉`-th value, so at most one bucket width above the true
    /// quantile and never below it. `None` for an empty histogram or
    /// `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_from_buckets(&self.dense_buckets(), q)
    }

    fn dense_buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|b| self.inner.buckets[b].load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .inner
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(b, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then(|| {
                        let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
                        let hi = if b == 0 { 0 } else { (1u64 << b) - 1 };
                        (lo, hi, c)
                    })
                })
                .collect(),
        }
    }
}

/// Point-in-time view of one histogram: only populated buckets, as
/// `(low, high, count)` inclusive ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate over the sparse buckets; same
    /// semantics as [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if !(0.0..=1.0).contains(&q) || self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(_, hi, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return Some(hi);
            }
        }
        self.buckets.last().map(|&(_, hi, _)| hi)
    }
}

/// The event log: the second sink, appended to only while detail is
/// requested. `threads` names every thread that logged an event.
#[derive(Debug, Default)]
pub(crate) struct Log {
    pub(crate) events: Vec<(u32, Event)>,
    pub(crate) threads: BTreeMap<u32, String>,
}

/// The metric store. Cheap to share (`&'static` via [`crate::global`] or
/// per-test instances); every accessor takes `&self`.
#[derive(Debug)]
pub struct Registry {
    counters: RwLock<BTreeMap<MetricKey, Counter>>,
    gauges: RwLock<BTreeMap<MetricKey, Gauge>>,
    histograms: RwLock<BTreeMap<MetricKey, Histogram>>,
    /// Whether events are recorded at all (`PREDATA_METRICS`).
    enabled: AtomicBool,
    /// Whether recorded events are also logged (`PREDATA_LINEAGE`,
    /// `PREDATA_TRACE`).
    detail: AtomicBool,
    fold: Fold,
    log: Mutex<Log>,
    /// Where [`export`](Registry::export) writes the snapshot and the
    /// Chrome trace.
    export_path: Mutex<Option<PathBuf>>,
    trace_path: Mutex<Option<PathBuf>>,
}

impl Default for Registry {
    /// Recording on, detail off, no export.
    fn default() -> Self {
        Registry::with_config(crate::Config::default())
    }
}

macro_rules! resolve {
    ($self:ident . $field:ident, $name:ident, $labels:ident, $ty:ty) => {{
        let key = MetricKey::new($name, $labels);
        if let Some(m) = $self
            .$field
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            return m.clone();
        }
        $self
            .$field
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(key)
            .or_insert_with(<$ty>::default)
            .clone()
    }};
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry gated and exporting as `cfg` says.
    pub fn with_config(cfg: crate::Config) -> Self {
        Registry {
            counters: RwLock::default(),
            gauges: RwLock::default(),
            histograms: RwLock::default(),
            enabled: AtomicBool::new(cfg.spans),
            detail: AtomicBool::new(cfg.lineage || cfg.trace_path.is_some()),
            fold: Fold::default(),
            log: Mutex::default(),
            export_path: Mutex::new(cfg.export_path),
            trace_path: Mutex::new(cfg.trace_path),
        }
    }

    /// Resolve (registering on first use) a counter handle.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        resolve!(self.counters, name, labels, Counter)
    }

    /// Resolve (registering on first use) a gauge handle.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        resolve!(self.gauges, name, labels, Gauge)
    }

    /// Resolve (registering on first use) a histogram handle.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        resolve!(self.histograms, name, labels, Histogram)
    }

    /// Whether events are recorded. Counters, gauges and histograms are
    /// always live.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recorded events are also kept one by one, for the
    /// lineage view and the Chrome trace.
    pub fn detail(&self) -> bool {
        self.detail.load(Ordering::Relaxed)
    }

    pub fn set_detail(&self, on: bool) {
        self.detail.store(on, Ordering::Relaxed);
    }

    /// Where [`export`](Registry::export) writes the snapshot.
    pub fn export_path(&self) -> Option<PathBuf> {
        lock(&self.export_path).clone()
    }

    pub fn set_export_path(&self, path: Option<PathBuf>) {
        *lock(&self.export_path) = path;
    }

    /// Send the Chrome trace to `path` at [`export`](Registry::export),
    /// and turn detail on so there are events to send.
    pub fn set_trace_path(&self, path: PathBuf) {
        *lock(&self.trace_path) = Some(path);
        self.set_detail(true);
    }

    /// The one entry point for timed facts: fold `ev` into its
    /// `(stage, step, rank)` row and, while [`detail`](Registry::detail)
    /// is on, append it to the event log. Nothing when recording is off.
    pub fn record(&self, ev: Event) {
        if !self.enabled() {
            return;
        }
        self.fold.add(&ev);
        if self.detail() {
            let tid = crate::event::thread_id();
            let mut log = lock(&self.log);
            log.threads.entry(tid).or_insert_with(|| {
                let thread = std::thread::current();
                thread.name().unwrap_or("unnamed").to_string()
            });
            log.events.push((tid, ev));
        }
    }

    /// The per-chunk lineage view of the event log.
    pub fn lineage(&self) -> LineageView<'_> {
        LineageView(self)
    }

    /// The event log rendered as Chrome-trace JSON.
    pub fn trace_json(&self) -> String {
        crate::trace::render(&lock(&self.log))
    }

    /// The shutdown hook: write the snapshot to the export path and the
    /// Chrome trace to the trace path, where those are set. The log is
    /// kept — the lineage view reads it too — so a later export rewrites
    /// the trace with everything since.
    pub fn export(&self) -> std::io::Result<()> {
        if let Some(path) = self.export_path() {
            std::fs::write(path, self.snapshot().to_json())?;
        }
        if let Some(path) = lock(&self.trace_path).clone() {
            std::fs::write(path, self.trace_json())?;
        }
        Ok(())
    }

    /// Point-in-time copy of every metric and every view.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, g)| (k.clone(), (g.get(), g.max())))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        let spans = self.fold.rows();
        Snapshot {
            counters,
            gauges,
            histograms,
            perturb: crate::perturb::view(&spans),
            spans,
            lineage: self.lineage().snapshot(),
        }
    }
}

/// [`Registry::lineage`]: the event log read as per-chunk journeys.
pub struct LineageView<'r>(&'r Registry);

impl LineageView<'_> {
    /// Every chunk the log knows, sorted by `(step, src_rank)`.
    pub fn snapshot(&self) -> Vec<ChunkLineage> {
        crate::lineage::view(&lock(&self.0.log).events)
    }
}

/// Point-in-time view of a whole [`Registry`], renderable as JSON.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    counters: Vec<(MetricKey, u64)>,
    gauges: Vec<(MetricKey, (i64, i64))>,
    histograms: Vec<(MetricKey, HistogramSnapshot)>,
    /// The fold, sorted by `(stage, step, rank)`.
    spans: Vec<SpanRow>,
    /// Per-chunk lineage, sorted by `(step, src_rank)`. Empty unless
    /// detail was on.
    lineage: Vec<ChunkLineage>,
    /// `(step, stat)` perturbation rows, step-sorted.
    perturb: Vec<(u64, PerturbStat)>,
}

impl Snapshot {
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    /// `(value, high_water)` of a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<(i64, i64)> {
        let key = MetricKey::new(name, labels);
        self.gauges.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let key = MetricKey::new(name, labels);
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// Every fold row, sorted by `(stage, step, rank)`.
    pub fn span_rows(&self) -> &[SpanRow] {
        &self.spans
    }

    /// `stage` at `step`, all ranks together.
    pub fn span(&self, stage: &str, step: u64) -> Option<SpanStat> {
        let mut rows = self
            .spans
            .iter()
            .filter(|r| r.stage == stage && r.step == step);
        let mut stat = rows.next()?.stat;
        rows.for_each(|r| stat.merge(&r.stat));
        Some(stat)
    }

    /// All steps that have at least one row, ascending.
    pub fn steps(&self) -> Vec<u64> {
        let mut steps: Vec<u64> = self.spans.iter().map(|r| r.step).collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// Time the staging ranks spent decoding and mapping `step`'s chunks:
    /// the `decode` and `map` rows together. Span-derived — a run with
    /// recording off has no busy time to report, as it has no rows.
    pub fn worker_busy_ns(&self, step: u64) -> u64 {
        ["decode", "map"]
            .iter()
            .filter_map(|stage| self.span(stage, step))
            .map(|stat| stat.total_ns)
            .sum()
    }

    /// Per-chunk lineage records, sorted by `(step, src_rank)`. Empty
    /// unless detail was on.
    pub fn lineage(&self) -> &[ChunkLineage] {
        &self.lineage
    }

    /// `(step, perturbation stat)` rows, step-sorted.
    pub fn perturb(&self) -> &[(u64, PerturbStat)] {
        &self.perturb
    }

    /// Render the snapshot as the JSON `predata-report` consumes:
    ///
    /// ```json
    /// {"version":5,
    ///  "counters":[{"name":"…","labels":{…},"value":0}],
    ///  "gauges":[{"name":"…","labels":{…},"value":0,"max":0}],
    ///  "histograms":[{"name":"…","labels":{…},"count":0,"sum":0,
    ///                 "buckets":[[lo,hi,count]]}],
    ///  "steps":[{"step":0,"stages":[{"stage":"pull","rank":0,"count":0,
    ///            "total_ns":0,"max_ns":0,"bytes":0}]}],
    ///  "lineage":[{"src":0,"step":0,"truncated":false,
    ///              "events":[{"stage":"packed","at_ns":0,
    ///                         "bytes":0,"wait_ns":0}]}],
    ///  "perturb":[{"step":0,"compute_ns":0,"blocked_ns":0,
    ///              "pull_bytes":0,"pulls":0}]}
    /// ```
    ///
    /// A stage row's `rank` is absent for rank-less events, a lineage
    /// event's `bytes` / `wait_ns` when the site didn't measure them.
    /// There is one version: a change to this shape bumps
    /// [`SNAPSHOT_VERSION`], and the reader takes no other.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("{{\"version\":{SNAPSHOT_VERSION},\"counters\":["));
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, k);
            out.push_str(&format!("\"value\":{v}}}"));
        }
        out.push_str("],\"gauges\":[");
        for (i, (k, (v, max))) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, k);
            out.push_str(&format!("\"value\":{v},\"max\":{max}}}"));
        }
        out.push_str("],\"histograms\":[");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, k);
            out.push_str(&format!(
                "\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            ));
            for (j, (lo, hi, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{lo},{hi},{c}]"));
            }
            out.push_str("]}");
        }
        out.push_str("],\"steps\":[");
        let mut by_step: BTreeMap<u64, Vec<&SpanRow>> = BTreeMap::new();
        for row in &self.spans {
            by_step.entry(row.step).or_default().push(row);
        }
        for (i, (step, rows)) in by_step.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"step\":{step},\"stages\":["));
            for (j, row) in rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"stage\":{}", json_str(row.stage)));
                if let Some(rank) = row.rank {
                    out.push_str(&format!(",\"rank\":{rank}"));
                }
                out.push_str(&format!(
                    ",\"count\":{},\"total_ns\":{},\"max_ns\":{},\"bytes\":{}}}",
                    row.stat.count, row.stat.total_ns, row.stat.max_ns, row.stat.bytes
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"lineage\":[");
        for (i, chunk) in self.lineage.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"src\":{},\"step\":{},\"truncated\":{},\"events\":[",
                chunk.src_rank,
                chunk.step,
                chunk.is_truncated()
            ));
            for (j, (stage, mark)) in chunk.events().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"stage\":{},\"at_ns\":{}",
                    json_str(stage.name()),
                    mark.at_ns
                ));
                if let Some(b) = mark.bytes {
                    out.push_str(&format!(",\"bytes\":{b}"));
                }
                if let Some(w) = mark.wait_ns {
                    out.push_str(&format!(",\"wait_ns\":{w}"));
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("],\"perturb\":[");
        for (i, (step, stat)) in self.perturb.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"step\":{step},\"compute_ns\":{},\"blocked_ns\":{},\
                 \"pull_bytes\":{},\"pulls\":{}}}",
                stat.compute_ns, stat.blocked_ns, stat.pull_bytes, stat.pulls
            ));
        }
        out.push_str("]}");
        out
    }
}

fn push_key(out: &mut String, k: &MetricKey) {
    out.push_str(&format!("{{\"name\":{},\"labels\":{{", json_str(&k.name)));
    for (i, (lk, lv)) in k.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_str(lk), json_str(lv)));
    }
    out.push_str("},");
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_partition_u64() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
        assert_eq!(log2_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counter_handles_share_one_cell() {
        let reg = Registry::new();
        let a = reg.counter("hits", &[]);
        let b = reg.counter("hits", &[]);
        a.add(2);
        b.inc();
        assert_eq!(reg.snapshot().counter("hits", &[]), Some(3));
    }

    #[test]
    fn labels_distinguish_metrics() {
        let reg = Registry::new();
        reg.counter("n", &[("stage", "pull")]).add(1);
        reg.counter("n", &[("stage", "map")]).add(2);
        // Label order must not matter.
        reg.counter("m", &[("a", "1"), ("b", "2")]).add(5);
        reg.counter("m", &[("b", "2"), ("a", "1")]).add(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("n", &[("stage", "pull")]), Some(1));
        assert_eq!(snap.counter("n", &[("stage", "map")]), Some(2));
        assert_eq!(snap.counter("m", &[("b", "2"), ("a", "1")]), Some(10));
    }

    #[test]
    fn gauge_tracks_high_water() {
        let reg = Registry::new();
        let g = reg.gauge("depth", &[]);
        g.set(3);
        g.set(9);
        g.set(1);
        g.record_max(5); // below current max: no effect
        assert_eq!(reg.snapshot().gauge("depth", &[]), Some((1, 9)));
    }

    #[test]
    fn histogram_counts_land_in_log2_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[]);
        for v in [0, 1, 1, 5, 1000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat", &[]).unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1007);
        assert_eq!(
            hs.buckets,
            vec![(0, 0, 1), (1, 1, 2), (4, 7, 1), (512, 1023, 1)]
        );
    }

    #[test]
    fn events_fold_per_stage_step_and_rank() {
        let reg = Registry::new();
        reg.record(Event::new("pull", 0).rank(0).at(0, 100).bytes(8));
        reg.record(Event::new("pull", 0).rank(0).at(100, 150).bytes(8));
        reg.record(Event::new("pull", 0).rank(1).at(0, 30));
        reg.record(Event::new("pull", 1).at(0, 7));
        reg.record(Event::new("map", 0).at(5, 14));
        let snap = reg.snapshot();
        assert_eq!(
            snap.span_rows()[1..3],
            [
                SpanRow {
                    stage: "pull",
                    step: 0,
                    rank: Some(0),
                    stat: SpanStat {
                        count: 2,
                        total_ns: 150,
                        max_ns: 100,
                        bytes: 16
                    }
                },
                SpanRow {
                    stage: "pull",
                    step: 0,
                    rank: Some(1),
                    stat: SpanStat {
                        count: 1,
                        total_ns: 30,
                        max_ns: 30,
                        bytes: 0
                    }
                },
            ]
        );
        let all = snap.span("pull", 0).unwrap();
        assert_eq!((all.count, all.total_ns, all.max_ns), (3, 180, 100));
        assert_eq!(snap.span("pull", 2), None);
        assert_eq!(snap.steps(), vec![0, 1]);
        assert_eq!(snap.span_rows().iter().filter(|r| r.step == 1).count(), 1);
    }

    /// Threads folding one key at once lose nothing.
    #[test]
    fn concurrent_events_fold_into_one_row() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        reg.record(Event::new("map", 3).rank(1).at(0, 2));
                    }
                });
            }
        });
        let stat = reg.snapshot().span("map", 3).unwrap();
        assert_eq!((stat.count, stat.total_ns, stat.max_ns), (400, 800, 2));
    }

    /// Of a stage (and rank) the fold keeps the newest `FOLD_STEPS`
    /// steps, whatever another stage's clock reads, and drops what
    /// arrives behind them.
    #[test]
    fn fold_is_bounded_to_the_newest_steps_of_each_stage() {
        let reg = Registry::new();
        reg.record(Event::new("slow", 1));
        reg.record(Event::new("pull", 1).rank(1));
        for step in 0..crate::FOLD_STEPS + 10 {
            reg.record(Event::new("pull", step));
        }
        reg.record(Event::new("pull", 3));
        let snap = reg.snapshot();
        let pulls: Vec<u64> = snap
            .span_rows()
            .iter()
            .filter(|r| r.stage == "pull" && r.rank.is_none())
            .map(|r| r.step)
            .collect();
        assert_eq!(pulls.len() as u64, crate::FOLD_STEPS);
        assert_eq!(
            pulls[0], 10,
            "steps 0..10 fell off, late step 3 was dropped"
        );
        assert!(snap.span("slow", 1).is_some(), "stages age independently");
        let ranked = snap.span_rows().iter().find(|r| r.rank == Some(1));
        assert_eq!(ranked.map(|r| r.step), Some(1), "and so do ranks");
    }

    /// The gates are the registry's own: turning one registry off (or
    /// its detail on) says nothing about another.
    #[test]
    fn gates_are_per_registry() {
        let (off, on) = (Registry::new(), Registry::new());
        off.set_enabled(false);
        on.set_detail(true);
        for reg in [&off, &on] {
            drop(crate::span_in(reg, "work", 0));
            crate::mark_in(reg, "routed", 0).chunk(4);
            reg.record(Event::new("direct", 0));
        }
        assert!(off.snapshot().span_rows().is_empty());
        assert_eq!(off.lineage().snapshot(), vec![]);
        assert!(!off.detail() && on.enabled());
        assert_eq!(on.snapshot().span_rows().len(), 3);
        assert_eq!(on.lineage().snapshot().len(), 1);
    }

    #[test]
    fn guards_time_cancel_and_mark() {
        let reg = Registry::new();
        {
            let _g = crate::span_in(&reg, "work", 3).bytes(64);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        crate::span_in(&reg, "abandoned", 3).cancel();
        crate::mark_in(&reg, "truncated", 3).rank(1);
        let snap = reg.snapshot();
        let work = snap.span("work", 3).unwrap();
        assert_eq!((work.count, work.bytes), (1, 64));
        assert!(work.total_ns >= 1_000_000, "slept ≥ 1 ms: {work:?}");
        assert_eq!(snap.span("abandoned", 3), None);
        let mark = snap.span("truncated", 3).unwrap();
        assert_eq!((mark.count, mark.total_ns), (1, 0), "a mark has no length");
    }

    /// Worker busy time is a view of the `decode` and `map` rows — with
    /// recording off it is absent along with them, not a counter that
    /// silently reads zero.
    #[test]
    fn worker_busy_time_is_the_decode_and_map_rows() {
        let reg = Registry::new();
        reg.record(Event::new("decode", 2).rank(0).at(0, 40));
        reg.record(Event::new("map", 2).rank(0).at(40, 100));
        reg.record(Event::new("map", 2).rank(1).at(0, 25));
        reg.record(Event::new("pull", 2).rank(0).at(0, 1000));
        assert_eq!(reg.snapshot().worker_busy_ns(2), 125);
        reg.set_enabled(false);
        reg.record(Event::new("map", 3).at(0, 25));
        let snap = reg.snapshot();
        assert_eq!((snap.span("map", 3), snap.worker_busy_ns(3)), (None, 0));
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let reg = Registry::new();
        reg.set_detail(true);
        reg.counter("c", &[("k", "v")]).add(1);
        reg.gauge("g", &[]).set(-2);
        reg.histogram("h", &[]).record(3);
        reg.record(
            Event::new("pull", 0)
                .rank(1)
                .chunk(3)
                .at(10, 52)
                .bytes(4096),
        );
        reg.record(Event::new("finalize", 0).at(60, 61));
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"version\":5,"));
        assert!(
            json.contains("\"counters\":[{\"name\":\"c\",\"labels\":{\"k\":\"v\"},\"value\":1}]")
        );
        assert!(
            json.contains("\"gauges\":[{\"name\":\"g\",\"labels\":{},\"value\":-2,\"max\":-2}]")
        );
        assert!(json.contains("\"buckets\":[[2,3,1]]"));
        assert!(json.contains(
            "\"steps\":[{\"step\":0,\"stages\":[\
             {\"stage\":\"finalize\",\"count\":1,\"total_ns\":1,\"max_ns\":1,\"bytes\":0},\
             {\"stage\":\"pull\",\"rank\":1,\"count\":1,\"total_ns\":42,\"max_ns\":42,\"bytes\":4096}]}]"
        ));
        assert!(json.contains(
            "\"lineage\":[{\"src\":3,\"step\":0,\"truncated\":false,\"events\":[\
             {\"stage\":\"rdma_done\",\"at_ns\":52,\"bytes\":4096,\"wait_ns\":42}]}]"
        ));
        assert!(json.ends_with(
            "\"perturb\":[{\"step\":0,\"compute_ns\":0,\"blocked_ns\":0,\
             \"pull_bytes\":4096,\"pulls\":1}]}"
        ));
    }

    #[test]
    fn quantiles_over_log2_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[]);
        // Empty histogram and out-of-range q: no estimate.
        assert_eq!(h.quantile(0.5), None);
        h.record(5);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        // Single bucket: every quantile is its upper bound.
        h.record(5);
        h.record(6);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7), "q={q}");
        }
        // Spread: p50 stays in the low bucket, p99 climbs to the top
        // recorded one.
        for _ in 0..97 {
            h.record(1);
        }
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.99), Some(7));
        assert_eq!(h.quantile(1.0), Some((1 << 21) - 1));
        // Snapshot view agrees.
        let snap = reg.snapshot();
        let hs = snap.histogram("lat", &[]).unwrap();
        assert_eq!(hs.quantile(0.5), Some(1));
        assert_eq!(hs.quantile(1.0), Some((1 << 21) - 1));

        // Zero values land in bucket 0 (quantile 0), and the saturated
        // top bucket reports u64::MAX — it has no tighter bound.
        let h = reg.histogram("edge", &[]);
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(0));
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn hot_path_is_concurrent() {
        let reg = Registry::new();
        let c = reg.counter("n", &[]);
        let h = reg.histogram("h", &[]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
    }
}
