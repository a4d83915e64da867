//! Overload admission control — degradation-ladder rung 4.
//!
//! Rungs 1–3 (retry, truncate, fall back to in-compute) react to
//! *failures*. This rung reacts to *load*: when a staging rank is
//! overloaded — its gathered chunk backlog for a step exceeds
//! `queue_hwm`, or the simulation's prior-step blocked-in-output
//! fraction exceeds `blocked` — the rank sheds work by **deferring**
//! the named non-critical operators for that step instead of
//! back-pressuring the simulation. A deferred operator still runs its
//! collective phases (skipping them unilaterally would deadlock the
//! other ranks), but its chunk mappers are replaced by no-ops, so the
//! decode+map stage does none of its work and its step output is
//! truncated — computed over no data — rather than late.
//!
//! Configured by `PREDATA_ADMIT` (see `docs/OPERATIONS.md`):
//!
//! ```text
//! PREDATA_ADMIT=queue_hwm=64,defer=histogram+bitmap
//! PREDATA_ADMIT=blocked=0.3,defer=space_index
//! ```
//!
//! | field       | meaning                                               |
//! |-------------|-------------------------------------------------------|
//! | `queue_hwm` | shed when a step gathers more than this many chunks   |
//! | `blocked`   | shed when the prior step's simulation blocked-fraction exceeds this (the application must record its `compute` span) |
//! | `defer`     | `+`-separated [`crate::op::StreamOp::name`]s to shed  |
//!
//! At least one trigger (`queue_hwm` or `blocked`) is required; `defer`
//! is required and non-empty — admission control that sheds nothing is
//! a misconfiguration, not a plan. Empty spec, `0`, or `off` means no
//! admission control. Sheds are visible as `staging.admission_triggers`
//! / `staging.admission_deferred_ops` in the resilience view and in
//! [`crate::staging::StepReport::deferred`].

use std::sync::{Arc, OnceLock};

use obs::spec::Spec;

/// Parsed `PREDATA_ADMIT` plan. See the module docs for grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitControl {
    /// Shed when a step's gathered chunk backlog exceeds this.
    pub queue_hwm: Option<usize>,
    /// Shed when the prior step's simulation blocked-fraction exceeds
    /// this (`obs::perturb`: the `blocked` and `compute` rows of the
    /// fold).
    pub blocked: Option<f64>,
    /// Operator names deferred while overloaded.
    pub defer: Vec<String>,
}

impl AdmitControl {
    /// Parse a `PREDATA_ADMIT` spec. `Ok(None)` means "no admission
    /// control" (empty, `0`, or `off`); `Err` describes the malformed
    /// field.
    pub fn parse(spec: &str) -> Result<Option<AdmitControl>, String> {
        let fields = match obs::spec::parse("admit", spec)? {
            Spec::Unset | Spec::Off => return Ok(None),
            Spec::On => return Err(obs::spec::no_defaults("admit")),
            Spec::Fields(fields) => fields,
        };
        let mut queue_hwm = None;
        let mut blocked = None;
        let mut defer = Vec::new();
        for f in &fields {
            match f.key {
                "queue_hwm" => queue_hwm = Some(f.num()?),
                "blocked" => blocked = Some(f.num()?),
                "defer" => {
                    defer = f
                        .value
                        .split('+')
                        .map(str::trim)
                        .filter(|n| !n.is_empty())
                        .map(String::from)
                        .collect();
                }
                _ => return Err(f.unknown()),
            }
        }
        if queue_hwm.is_none() && blocked.is_none() {
            return Err("admission control needs a trigger: queue_hwm= or blocked=".into());
        }
        if defer.is_empty() {
            return Err("admission control needs defer=op1+op2 (what to shed)".into());
        }
        Ok(Some(AdmitControl {
            queue_hwm,
            blocked,
            defer,
        }))
    }

    /// The process-wide plan from `PREDATA_ADMIT`, read once. A
    /// malformed spec aborts loudly — silently ignored admission control
    /// would fake surviving an overload test.
    pub fn from_env() -> Option<Arc<AdmitControl>> {
        static PLAN: OnceLock<Option<Arc<AdmitControl>>> = OnceLock::new();
        PLAN.get_or_init(|| obs::spec::from_env("PREDATA_ADMIT", AdmitControl::parse).map(Arc::new))
            .clone()
    }

    /// Is a rank that gathered `backlog` chunks, under a simulation
    /// that spent `blocked` of its prior step blocked in output (`None`
    /// when that is not known), overloaded? This is the one decision
    /// point, and the staging runtime's `shed` stage calls it. The
    /// thresholds are strict and apply only when configured.
    pub fn overloaded(&self, backlog: usize, blocked: Option<f64>) -> bool {
        self.queue_hwm.is_some_and(|hwm| backlog > hwm)
            || self
                .blocked
                .zip(blocked)
                .is_some_and(|(threshold, fraction)| fraction > threshold)
    }

    /// Whether `op` is shed while overloaded.
    pub fn defers(&self, op: &str) -> bool {
        self.defer.iter().any(|d| d == op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar_and_off() {
        for off in ["", "0", "off", "false", "  "] {
            assert_eq!(AdmitControl::parse(off).unwrap(), None, "{off:?}");
        }
        let a = AdmitControl::parse("queue_hwm=64, blocked=0.3, defer=histogram+bitmap")
            .unwrap()
            .unwrap();
        assert_eq!(a.queue_hwm, Some(64));
        assert_eq!(a.blocked, Some(0.3));
        assert_eq!(a.defer, vec!["histogram", "bitmap"]);
        assert!(a.defers("bitmap") && !a.defers("sort"));
    }

    #[test]
    fn parse_rejects_triggerless_and_shedless_plans() {
        assert!(AdmitControl::parse("defer=histogram").is_err());
        assert!(AdmitControl::parse("queue_hwm=8").is_err());
        assert!(AdmitControl::parse("queue_hwm=8,defer=").is_err());
        assert!(AdmitControl::parse("hwm=8").is_err());
        assert!(AdmitControl::parse("queue_hwm=lots,defer=x").is_err());
    }

    /// The thresholds are strict (`>`) and apply only when configured.
    #[test]
    fn overload_triggers() {
        let a = AdmitControl::parse("queue_hwm=4,defer=x").unwrap().unwrap();
        assert!(!a.overloaded(4, None), "at the mark is not over");
        assert!(a.overloaded(5, None));
        assert!(
            !a.overloaded(0, Some(0.9)),
            "no blocked threshold configured"
        );

        let a = AdmitControl::parse("blocked=0.25,defer=x")
            .unwrap()
            .unwrap();
        assert!(!a.overloaded(1000, None), "no backlog threshold");
        assert!(!a.overloaded(0, Some(0.25)));
        assert!(a.overloaded(0, Some(0.26)));

        let a = AdmitControl::parse("queue_hwm=4,blocked=0.25,defer=x")
            .unwrap()
            .unwrap();
        assert!(!a.overloaded(4, Some(0.25)));
        assert!(a.overloaded(4, Some(0.26)));
        assert!(a.overloaded(5, Some(0.25)));
    }
}
