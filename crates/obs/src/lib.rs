//! `obs` — one event, two sinks, views.
//!
//! The paper's headline claims are all *measurements*: per-stage timing
//! breakdowns (Fig. 7–9), staged-I/O bandwidth, and the "<6% worst-case
//! interference" bound from scheduled RDMA. This crate is the substrate
//! that produces those numbers from the running middleware, at a cost
//! low enough to leave on in production (the in-transit monitoring
//! requirement of the ADIOS streaming line of work).
//!
//! # The model
//!
//! * **One record.** Everything timed is an [`Event`]: stage, step, the
//!   staging rank that did the work, the source chunk it was done for,
//!   start, end, bytes. It enters through [`Registry::record`] — in
//!   practice through the guard [`span!`]`("decode", step)` returns
//!   (`.rank(r)`, `.chunk(src)`, `.bytes(n)` say the rest; it records
//!   when it drops) or through [`mark`] for a zero-length transition.
//! * **Two sinks.** Always: a fold into `(stage, step, rank) →`
//!   [`SpanStat`], sharded by stage and rank and bounded to the newest
//!   [`FOLD_STEPS`] steps of each, in rings allocated once. Only while
//!   *detail* is requested: an append to the registry's one event log.
//! * **Views.** Nothing else is stored. The per-step stage tables of
//!   the paper's Fig. 7–9 are the fold; [`perturb`] is three of its rows;
//!   [`lineage`] is the log's events that carry a chunk,
//!   first-write-wins per stage; the Chrome trace ([`trace`]) is the log
//!   rendered. [`Registry::snapshot`] → [`Snapshot::to_json`] exports
//!   all of them in one schema ([`SNAPSHOT_VERSION`]) for
//!   `predata-report`.
//!
//! Beside the events the [`Registry`] is a lock-light metrics registry:
//! [`Counter`]s, [`Gauge`]s and [`Histogram`]s with fixed log₂ buckets,
//! whose hot path is a relaxed atomic add.
//!
//! # Environment contract
//!
//! [`Config::from_env`] is the one place this crate reads the
//! environment for itself, once, when the [`global`] registry is first
//! used ([`spec::from_env`] reads it for the structured knobs of the
//! crates above):
//!
//! * `PREDATA_METRICS` — `0` / `off` / `false` turns event recording off
//!   at the source: no fold rows, no log, and nothing derived from them
//!   (counters, gauges and histograms stay exact — they are cheaper than
//!   the branch that would gate them). A *path* value asks the
//!   middleware (`predata_core::StagingArea::join`, through
//!   [`Registry::export`]) to write a JSON snapshot there on shutdown.
//!   Anything else (or unset) means "recording, no auto-export".
//! * `PREDATA_LINEAGE` — any value other than ``""`` / `0` / `off` /
//!   `false` turns detail on: events are logged, so the snapshot carries
//!   per-chunk [`lineage`].
//! * `PREDATA_TRACE=path` — turns detail on too, and has
//!   [`Registry::export`] write the log there as a Chrome trace.
//!
//! The full `PREDATA_*` reference — including the transport fault/retry
//! knobs whose counters land in this registry — is `docs/OPERATIONS.md`
//! at the repository root. The structured knobs (`k=v,k=v` specs) share
//! one parser, [`spec`].
//!
//! The gates live on the [`Registry`], so a test builds its own
//! ([`Registry::new`], [`Registry::set_detail`], …) and races nobody;
//! [`set_enabled`], [`lineage::set_enabled`] and [`trace::install`] set
//! the global registry's for whole-pipeline tests.
//!
//! # Example
//!
//! ```
//! let reg = obs::Registry::new();
//! let pulled = reg.counter("transport.bytes_pulled", &[]);
//! pulled.add(4096);
//! {
//!     let _s = obs::span_in(&reg, "decode", 0).rank(1).chunk(7);
//!     // ... work ...
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("transport.bytes_pulled", &[]), Some(4096));
//! assert_eq!(snap.span("decode", 0).unwrap().count, 1);
//! assert!(snap.to_json().contains("\"decode\""));
//! ```

mod event;
pub mod lineage;
mod metrics;
pub mod perturb;
pub mod spec;
pub mod trace;

pub use event::{mark, mark_in, span, span_in, Event, SpanGuard, SpanRow, SpanStat, FOLD_STEPS};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, LineageView, Registry, Snapshot, HIST_BUCKETS,
    SNAPSHOT_VERSION,
};

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// What the observability variables ask for; [`Registry::with_config`]
/// builds a registry that does it. The default is what an empty
/// environment means: recording on, everything else off.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Record events at all (`PREDATA_METRICS` not an off-word).
    pub spans: bool,
    /// Snapshot destination at export (`PREDATA_METRICS` as a path).
    pub export_path: Option<PathBuf>,
    /// Log events for the lineage view (`PREDATA_LINEAGE`).
    pub lineage: bool,
    /// Chrome-trace destination at export (`PREDATA_TRACE`); logs too.
    pub trace_path: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config::from_lookup(|_| None)
    }
}

impl Config {
    /// The process environment's configuration.
    pub fn from_env() -> Config {
        Config::from_lookup(|name| std::env::var(name).ok())
    }

    /// [`from_env`](Config::from_env) over any variable lookup, so the
    /// grammar is testable without touching the process environment.
    pub fn from_lookup(var: impl Fn(&str) -> Option<String>) -> Config {
        let metrics = var("PREDATA_METRICS").unwrap_or_default();
        let is_word = matches!(
            metrics.as_str(),
            "" | "0" | "1" | "on" | "off" | "true" | "false"
        );
        Config {
            spans: !matches!(metrics.as_str(), "0" | "off" | "false"),
            export_path: (!is_word).then(|| PathBuf::from(&metrics)),
            lineage: var("PREDATA_LINEAGE")
                .is_some_and(|v| !matches!(v.as_str(), "" | "0" | "off" | "false")),
            trace_path: var("PREDATA_TRACE")
                .filter(|p| !p.is_empty())
                .map(PathBuf::from),
        }
    }
}

/// The process-wide registry every instrumented crate records into, so
/// compute-side (minimpi) and staging-side (transport, staging, bpio)
/// numbers land in one report. Configured from the environment on first
/// use.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry::with_config(Config::from_env()))
}

/// The process epoch all event timestamps are relative to.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whether the [`global`] registry records events.
pub fn enabled() -> bool {
    global().enabled()
}

/// Turn the [`global`] registry's event recording on or off (wins over
/// `PREDATA_METRICS`).
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Start a span in the [`global`] registry.
#[macro_export]
macro_rules! span {
    ($stage:expr, $step:expr) => {
        $crate::span($stage, $step)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(vars: &[(&str, &str)]) -> Config {
        Config::from_lookup(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn empty_environment_records_and_nothing_else() {
        let cfg = config(&[]);
        assert_eq!(cfg, Config::default());
        assert!(cfg.spans && !cfg.lineage);
        assert_eq!((cfg.export_path, cfg.trace_path), (None, None));
    }

    #[test]
    fn metrics_is_a_switch_or_a_path() {
        for off in ["0", "off", "false"] {
            let cfg = config(&[("PREDATA_METRICS", off)]);
            assert!(!cfg.spans && cfg.export_path.is_none(), "{off}");
        }
        for on in ["", "1", "on", "true"] {
            let cfg = config(&[("PREDATA_METRICS", on)]);
            assert!(cfg.spans && cfg.export_path.is_none(), "{on:?}");
        }
        let cfg = config(&[("PREDATA_METRICS", "/tmp/snap.json")]);
        assert!(cfg.spans);
        assert_eq!(cfg.export_path, Some(PathBuf::from("/tmp/snap.json")));
    }

    #[test]
    fn detail_variables() {
        assert!(config(&[("PREDATA_LINEAGE", "1")]).lineage);
        assert!(!config(&[("PREDATA_LINEAGE", "off")]).lineage);
        assert_eq!(config(&[("PREDATA_TRACE", "")]).trace_path, None);
        let cfg = config(&[("PREDATA_TRACE", "/tmp/t.json")]);
        assert_eq!(cfg.trace_path, Some(PathBuf::from("/tmp/t.json")));
        let reg = Registry::with_config(cfg);
        assert!(reg.detail(), "a trace destination needs the log");
    }

    #[test]
    fn span_macro_records_into_global() {
        // No other unit test touches the global gate: they build their
        // own registries.
        set_enabled(true);
        {
            let _g = span!("unit-test-stage", 7);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stat = global()
            .snapshot()
            .span("unit-test-stage", 7)
            .expect("span recorded in global registry");
        assert!(stat.count >= 1);
        assert!(stat.total_ns > 0);
    }
}
