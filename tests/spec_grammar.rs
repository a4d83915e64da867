//! The structured `PREDATA_*` knobs share one `k=v,k=v` parser
//! (`obs::spec`); each knob keeps its keys and its validation. This is
//! the table of what every one of them accepts (the forms
//! `docs/OPERATIONS.md` documents) and how each refuses a malformed
//! spec: with an `Err` that names the knob and the offending field.

use predata::core::AdmitControl;
use predata::obs::live::LiveConfig;
use predata::transport::{FaultPlan, MembershipPlan, RetryPolicy};
use proptest::prelude::*;

struct Knob {
    /// What error messages call the knob.
    name: &'static str,
    /// The knob's parser, its output discarded.
    parse: fn(&str) -> Result<(), String>,
    /// Whether a bare `1` / `on` / `true` switches defaults on.
    has_on: bool,
    /// A key that takes a number.
    number_key: &'static str,
    /// Complete specs from `docs/OPERATIONS.md` and the module docs.
    accepted: &'static [&'static str],
}

const KNOBS: [Knob; 5] = [
    Knob {
        name: "fault",
        parse: |s| FaultPlan::parse(s).map(drop),
        has_on: false,
        number_key: "seed",
        accepted: &[
            "seed=20100419,drop=1,max_injections=1",
            "seed=7,drop=1,steps=10..12,delay_ms=5",
            "seed=7, drop=0.5, stale=0.25, pin=0.1, delay=0.5, delay_ms=3, steps=1..4",
        ],
    },
    Knob {
        name: "retry",
        parse: |s| RetryPolicy::parse(s).map(drop),
        has_on: false,
        number_key: "attempts",
        accepted: &[
            "attempts=4,base_ms=1,max_ms=100,deadline_ms=10000",
            "attempts=3,base_ms=1,max_ms=20,deadline_ms=2000",
            "attempts=1",
        ],
    },
    Knob {
        name: "membership",
        parse: |s| MembershipPlan::parse(s).map(drop),
        has_on: false,
        number_key: "base",
        accepted: &["base=2", "base=2,leave=1@2,join=2@2", "base=3, evict=0@5"],
    },
    Knob {
        name: "admit",
        parse: |s| AdmitControl::parse(s).map(drop),
        has_on: false,
        number_key: "queue_hwm",
        accepted: &[
            "queue_hwm=64,defer=histogram+bitmap",
            "blocked=0.3,defer=space_index",
            "queue_hwm=8, blocked=0.25, defer=sort",
        ],
    },
    Knob {
        name: "live",
        parse: |s| LiveConfig::parse(s).map(drop),
        has_on: true,
        number_key: "window",
        accepted: &["window=64", "window=16"],
    },
];

#[test]
fn every_documented_form_parses() {
    for knob in &KNOBS {
        for spec in ["", "  ", "0", "off", "false", " off "] {
            (knob.parse)(spec).unwrap_or_else(|e| panic!("{} {spec:?}: {e}", knob.name));
        }
        for spec in knob.accepted {
            (knob.parse)(spec).unwrap_or_else(|e| panic!("{} {spec:?}: {e}", knob.name));
            // Stray commas and padding are not fields.
            let padded = format!(" ,{spec}, ");
            (knob.parse)(&padded).unwrap_or_else(|e| panic!("{} {padded:?}: {e}", knob.name));
        }
        for spec in ["1", "on", "true"] {
            assert_eq!(
                (knob.parse)(spec).is_ok(),
                knob.has_on,
                "{} {spec:?}: only a knob with defaults to switch on takes a bare on-word",
                knob.name
            );
        }
    }
}

#[test]
fn malformed_specs_are_errors_that_name_the_field() {
    for knob in &KNOBS {
        let refused = |spec: &str, names: &str| {
            let err = (knob.parse)(spec).expect_err(spec);
            assert!(
                err.contains(knob.name) && err.contains(names),
                "{} {spec:?}: {err:?} should name `{names}`",
                knob.name
            );
        };
        let good = knob.accepted[0];
        let key = knob.number_key;
        refused("frob=1", "frob");
        refused(&format!("{good},frob=1"), "frob");
        refused("bogus", "`bogus` is not key=value");
        refused(
            &format!("{good},{key}"),
            &format!("`{key}` is not key=value"),
        );
        refused(&format!("{key}=x"), &format!("`{key}=x`"));
        refused(&format!("{key}=-1"), &format!("`{key}=-1`"));
        refused(&format!("{key}="), &format!("`{key}=`"));
    }
    // Compound values name their field too.
    let err = FaultPlan::parse("steps=3").unwrap_err();
    assert!(err.contains("`steps=3`") && err.contains("a..b"), "{err}");
    let err = FaultPlan::parse("steps=1..x").unwrap_err();
    assert!(err.contains("`steps=1..x`"), "{err}");
    let err = MembershipPlan::parse("base=2,join=3").unwrap_err();
    assert!(err.contains("`join=3`") && err.contains("R@S"), "{err}");
}

/// How a knob meets the environment (`obs::spec::from_env`, here over a
/// lookup that stands in for it): an unset variable is `None`, an
/// off-word is the knob's own off value, and a malformed spec aborts
/// with the variable's name first.
#[test]
fn knobs_read_through_the_one_lookup() {
    use predata::obs::spec::from_lookup;
    let set = |value: &'static str| move |_: &str| Some(value.to_string());
    let unset = |_: &str| None;

    assert!(from_lookup(unset, "PREDATA_FAULTS", FaultPlan::parse).is_none());
    assert!(from_lookup(unset, "PREDATA_RETRY", RetryPolicy::parse).is_none());
    assert!(from_lookup(unset, "PREDATA_ADMIT", AdmitControl::parse).is_none());

    assert!(from_lookup(set(" off "), "PREDATA_FAULTS", FaultPlan::parse).is_none());
    assert!(from_lookup(set("0"), "PREDATA_ADMIT", AdmitControl::parse).is_none());
    let no_retry = from_lookup(set("off"), "PREDATA_RETRY", RetryPolicy::parse);
    assert_eq!(no_retry.map(|p| p.max_attempts()), Some(1));
    let plan = from_lookup(set(" seed=7,drop=1 "), "PREDATA_FAULTS", FaultPlan::parse);
    assert_eq!(plan.map(|p| p.seed()), Some(7));

    let malformed: [(&str, fn()); 3] = [
        ("PREDATA_FAULTS", || {
            from_lookup(
                |_| Some("drop=x".into()),
                "PREDATA_FAULTS",
                FaultPlan::parse,
            );
        }),
        ("PREDATA_RETRY", || {
            from_lookup(|_| Some("on".into()), "PREDATA_RETRY", RetryPolicy::parse);
        }),
        ("PREDATA_ADMIT", || {
            from_lookup(
                |_| Some("queue_hwm=8".into()),
                "PREDATA_ADMIT",
                AdmitControl::parse,
            );
        }),
    ];
    for (name, read) in malformed {
        let panic = std::panic::catch_unwind(read).expect_err(name);
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.starts_with(&format!("{name}: ")), "{message}");
    }
}

/// Spec-shaped fragments: concatenated at random they reach every arm
/// of every parser (keys, separators, numbers that overflow or do not
/// parse, on/off words, non-ASCII).
fn fragments() -> Vec<&'static str> {
    let words = "= = , , .. @ + - . 0 1 7 0.5 1e400 99999999999999999999 x é on off true false \
        seed drop delay_ms steps max_injections attempts deadline_ms \
        base join leave evict queue_hwm blocked defer window";
    let mut all: Vec<_> = words.split(' ').collect();
    all.push(" ");
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_specs_never_panic(
        pieces in prop::collection::vec(prop::sample::select(fragments()), 0..12)
    ) {
        let spec = pieces.concat();
        for knob in &KNOBS {
            let _ = (knob.parse)(&spec);
        }
    }
}
