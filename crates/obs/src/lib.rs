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
//!   practice through the guard [`span_in`]`(&reg, "decode", step)`
//!   returns (`.rank(r)`, `.chunk(src)`, `.bytes(n)` say the rest; it
//!   records when it drops) or through [`mark_in`] for a zero-length
//!   transition.
//! * **Two sinks.** Always: a fold into `(stage, step, rank) →`
//!   [`SpanStat`], sharded by stage and rank and bounded to the newest
//!   `FOLD_STEPS` steps of each, in rings allocated once. Only while
//!   *detail* is requested: an append to the registry's one event log.
//! * **Views.** Nothing else is stored. The per-step stage tables of
//!   the paper's Fig. 7–9 are the fold; [`perturb`] is three of its rows;
//!   [`lineage`] is the log's events that carry a chunk,
//!   first-write-wins per stage; the Chrome trace (`trace`) is the log
//!   rendered. [`Registry::snapshot`] → [`Snapshot::to_json`] exports
//!   all of them in one schema ([`SNAPSHOT_VERSION`]) for
//!   `predata-report`.
//!
//! Beside the events the [`Registry`] is a lock-light metrics registry:
//! [`Counter`]s and [`Histogram`]s with fixed log₂ buckets,
//! whose hot path is a relaxed atomic add.
//!
//! # One registry per run
//!
//! A [`Registry`] is a value, not a static: a cheap-`Clone` handle that
//! the things being measured are built with. `transport::Fabric` and
//! `dataspaces::DataSpaces` take one in their full constructors
//! (`with_faults`), and everything built from them reads it from there:
//! the endpoints and what wraps them (the client, the staging rank), the
//! staging rank's `minimpi` communicator and through it the operators'
//! context, the query service over a space. Values built without a
//! fabric — a fault plan, a retry policy, a pull policy, a BP writer —
//! hold no registry: their caller passes its own, or records for them.
//! So a test, or one block of a larger run, builds its own registry
//! ([`Registry::new`], [`Registry::set_detail`], …), reads absolute
//! values from it and races nobody.
//!
//! The default constructors (`Fabric::new`, `DataSpaces::new`, a
//! `minimpi` world's communicators) pass [`global`]: the process-wide
//! registry, configured from the environment on first use.
//!
//! # Environment contract
//!
//! `Config::from_env` is the one place the workspace reads the
//! environment, once, when the [`global`] registry is first used; a
//! registry built with `Registry::with_config` reads none:
//!
//! * `PREDATA_METRICS` — `0` / `off` / `false` turns event recording off
//!   at the source: no fold rows, no log, and nothing derived from them
//!   (counters and histograms stay exact — they are cheaper than
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
//! The full `PREDATA_*` reference is `docs/OPERATIONS.md` at the
//! repository root. Fault plans and retry policies are not knobs: they
//! are arguments of the constructors they fault, and their counters land
//! in the registry of whoever runs them.
//!
//! The gates live on the [`Registry`]: [`Registry::set_enabled`],
//! [`Registry::set_detail`] and [`Registry::set_trace_path`] set one
//! registry's, and [`set_enabled`] the global one's.
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

#![warn(unreachable_pub)]

mod event;
pub mod lineage;
mod metrics;
pub mod perturb;
mod trace;

pub use event::{mark_in, span_in, Event, SpanGuard, SpanRow, SpanStat};
pub use metrics::{Counter, Histogram, LineageView, Registry, Snapshot, SNAPSHOT_VERSION};

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// What the observability variables ask for; [`Registry::with_config`]
/// builds a registry that does it. The default is what an empty
/// environment means: recording on, everything else off.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Config {
    /// Record events at all (`PREDATA_METRICS` not an off-word).
    pub(crate) spans: bool,
    /// Snapshot destination at export (`PREDATA_METRICS` as a path).
    pub(crate) export_path: Option<PathBuf>,
    /// Log events for the lineage view (`PREDATA_LINEAGE`).
    pub(crate) lineage: bool,
    /// Chrome-trace destination at export (`PREDATA_TRACE`); logs too.
    pub(crate) trace_path: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config::from_lookup(|_| None)
    }
}

impl Config {
    /// The process environment's configuration.
    pub(crate) fn from_env() -> Config {
        Config::from_lookup(|name| std::env::var(name).ok())
    }

    /// [`from_env`](Config::from_env) over any variable lookup, so the
    /// grammar is testable without touching the process environment.
    pub(crate) fn from_lookup(var: impl Fn(&str) -> Option<String>) -> Config {
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

/// The process-wide registry: what the default constructors pass, so a
/// run that names no registry still lands every number in one report.
/// Configured from the environment on first use.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry::with_config(Config::from_env()))
}

/// The process epoch all event timestamps are relative to.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn the [`global`] registry's event recording on or off (wins over
/// `PREDATA_METRICS`).
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
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
}
