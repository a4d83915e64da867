//! `obs` — the unified metrics + span-tracing subsystem.
//!
//! The paper's headline claims are all *measurements*: per-stage timing
//! breakdowns (Fig. 7–9), staged-I/O bandwidth, and the "<6% worst-case
//! interference" bound from scheduled RDMA. This crate is the substrate
//! that produces those numbers from the running middleware, at a cost
//! low enough to leave on in production (the in-transit monitoring
//! requirement of the ADIOS streaming line of work).
//!
//! # Pieces
//!
//! * [`Registry`] — a lock-light metrics registry: [`Counter`]s,
//!   [`Gauge`]s, and [`Histogram`]s with fixed log₂ buckets. The hot
//!   path is a relaxed atomic add — no locks, no allocation. Handles
//!   are resolved once (registration takes a short-lived lock) and then
//!   shared freely across threads.
//! * Spans — [`span!`]`("decode", step)` returns a [`SpanGuard`] whose
//!   drop records the elapsed time under `(stage, step, thread)` labels
//!   into the owning registry's span table, and (when tracing is on)
//!   emits a Chrome-trace complete event.
//! * Exporters — [`Registry::snapshot`] → [`Snapshot`] →
//!   [`Snapshot::to_json`] renders the per-step stage tables that
//!   reproduce the paper's Fig. 7–9 breakdowns; [`trace`] collects
//!   Chrome-trace events loadable by `chrome://tracing` or Perfetto.
//!
//! # Environment contract
//!
//! * `PREDATA_METRICS` — `0` / `off` / `false` disables span recording
//!   at the source (counters stay exact: they are cheaper than the
//!   branch that would gate them). A *path* value asks the middleware
//!   (e.g. `predata_core::StagingArea::join`) to write a JSON snapshot
//!   there on shutdown. Anything else (or unset) means "enabled, no
//!   auto-export".
//! * `PREDATA_TRACE=path` — enables the Chrome-trace collector; the
//!   middleware flushes the event stream to `path` on shutdown (or call
//!   [`trace::flush`] yourself).
//! * `PREDATA_LINEAGE` — off by default; any value other than ``""`` /
//!   `0` / `off` / `false` enables the per-chunk [`lineage`] log and the
//!   [`perturb`]ation monitor. Their records ride the same snapshot
//!   (schema version 2) and, when tracing is on, appear as per-chunk
//!   flow arrows in the Chrome trace.
//! * `PREDATA_LIVE` — off by default; `1` / `on` / `true` or a
//!   `window=64,period_steps=1` spec enables the [`live`] telemetry
//!   plane: windowed per-step series, cross-rank [`live::TelemetryFrame`]
//!   exchange, and [`live::HealthReport`] evaluation, exported in the
//!   snapshot (schema version 3) and — with `PREDATA_LIVE_PATH=path` —
//!   as a rolling JSONL stream a dashboard can tail mid-run. Disabled,
//!   every entry point is one relaxed atomic load.
//!
//! The full `PREDATA_*` reference — including the transport fault/retry
//! and client degradation knobs whose counters land in this registry —
//! is `docs/OPERATIONS.md` at the repository root. The structured knobs
//! (`k=v,k=v` specs) of every crate share one parser, [`spec`].
//!
//! All variables are read once, lazily; tests use the programmatic
//! overrides ([`set_enabled`], [`set_metrics_export_path`],
//! [`lineage::set_enabled`], [`live::configure`], [`trace::install`])
//! instead of the process environment.
//!
//! # Example
//!
//! ```
//! let reg = obs::Registry::new();
//! let pulled = reg.counter("transport.bytes_pulled", &[]);
//! pulled.add(4096);
//! {
//!     let _s = obs::span_in(&reg, "decode", 0);
//!     // ... work ...
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("transport.bytes_pulled", &[]), Some(4096));
//! assert!(snap.to_json().contains("\"decode\""));
//! ```

pub mod lineage;
pub mod live;
mod metrics;
pub mod perturb;
mod span;
pub mod spec;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, SpanStat, HIST_BUCKETS,
};
pub use span::{span, span_in, SpanGuard};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The process-wide registry every instrumented crate records into, so
/// compute-side (minimpi) and staging-side (transport, staging, bpio)
/// numbers land in one report.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process epoch all span/trace timestamps are relative to.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

const STATE_UNSET: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;

static ENABLED_OVERRIDE: AtomicU8 = AtomicU8::new(STATE_UNSET);
static ENV_DISABLED: OnceLock<bool> = OnceLock::new();

fn env_disabled() -> bool {
    *ENV_DISABLED.get_or_init(|| {
        matches!(
            std::env::var("PREDATA_METRICS").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

/// Whether span recording is on. Counters and gauges are always live.
pub fn enabled() -> bool {
    match ENABLED_OVERRIDE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => !env_disabled(),
    }
}

/// Programmatic override of [`enabled`] (wins over `PREDATA_METRICS`).
pub fn set_enabled(on: bool) {
    ENABLED_OVERRIDE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Programmatic override for [`metrics_export_path`]. `PREDATA_METRICS`
/// does double duty (span toggle *and* export path) and is cached in a
/// `OnceLock`, so tests that need different export behaviour can't race
/// on the process-global environment — they set an explicit override
/// instead: `Some(path)` forces auto-export there, `None` disables
/// auto-export. The override wins over the environment until replaced.
pub fn set_metrics_export_path(path: Option<std::path::PathBuf>) {
    *export_override()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(path);
}

fn export_override() -> &'static Mutex<Option<Option<std::path::PathBuf>>> {
    static OVERRIDE: OnceLock<Mutex<Option<Option<std::path::PathBuf>>>> = OnceLock::new();
    OVERRIDE.get_or_init(|| Mutex::new(None))
}

/// The snapshot auto-export path: the [`set_metrics_export_path`]
/// override when one is installed, else `PREDATA_METRICS` when it holds
/// a path rather than an on/off word.
pub fn metrics_export_path() -> Option<std::path::PathBuf> {
    if let Some(overridden) = export_override()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_ref()
    {
        return overridden.clone();
    }
    static PATH: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();
    PATH.get_or_init(|| match std::env::var("PREDATA_METRICS") {
        Ok(v) if !matches!(v.as_str(), "" | "0" | "1" | "on" | "off" | "true" | "false") => {
            Some(std::path::PathBuf::from(v))
        }
        _ => None,
    })
    .clone()
}

pub(crate) static TRACE_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Record a span duration + emit a trace event: the [`SpanGuard`] drop
/// path, callable directly when the start/stop points don't nest.
pub fn record_span(registry: &Registry, stage: &'static str, step: u64, start: Instant) {
    let dur = start.elapsed();
    registry.record_span(stage, step, dur.as_nanos() as u64);
    // `trace::active()` (not a bare TRACE_ACTIVE load) so the first span
    // of a run initializes the collector from `PREDATA_TRACE` — a raw
    // flag read would stay false until something else touched it.
    if trace::active() {
        trace::record_complete(stage, step, start, dur);
    }
}

/// Start a span in the [`global`] registry. Prefer the [`span!`] macro.
#[macro_export]
macro_rules! span {
    ($stage:expr, $step:expr) => {
        $crate::span($stage, $step)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_override_round_trips() {
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn export_path_override_wins_over_env() {
        let p = std::path::PathBuf::from("/tmp/override-snapshot.json");
        set_metrics_export_path(Some(p.clone()));
        assert_eq!(metrics_export_path(), Some(p));
        set_metrics_export_path(None);
        assert_eq!(metrics_export_path(), None);
    }

    #[test]
    fn span_macro_records_into_global() {
        set_enabled(true);
        {
            let _g = span!("unit-test-stage", 7);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = global().snapshot();
        let stat = snap
            .span("unit-test-stage", 7)
            .expect("span recorded in global registry");
        assert!(stat.count >= 1);
        assert!(stat.total_ns > 0);
    }
}
