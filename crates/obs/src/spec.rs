//! The one `k=v,k=v` parser behind every structured `PREDATA_*` knob.
//!
//! `PREDATA_FAULTS`, `PREDATA_RETRY`, `PREDATA_ADMIT` and `PREDATA_LIVE`
//! (and `MembershipPlan::parse`, whose spec an application hands over
//! itself) share one grammar: surrounding whitespace is ignored; the
//! empty string is *unset*; `0` / `off` / `false` are the off-words;
//! `1` / `on` / `true` the on-words; anything else is a comma-separated
//! list of `key=value` fields (empty fields skipped, each trimmed). What
//! unset, off and on *mean* is the knob's business — `PREDATA_RETRY=off`
//! is "one attempt", `PREDATA_ADMIT=off` is "never shed", most knobs have
//! no defaults for a bare on-word to switch on — so [`parse`] only
//! classifies, and each knob's parser keeps its `match key` and its own
//! validation. It lives here because `obs` is the lowest crate all of
//! those parsers depend on — and so does [`from_env`], the one function
//! through which a knob's parser meets the process environment.
//!
//! ```
//! use obs::spec::{parse, Spec};
//!
//! let Spec::Fields(fields) = parse("retry", " attempts=6, base_ms=2 ").unwrap() else {
//!     unreachable!()
//! };
//! assert_eq!((fields[0].key, fields[0].num::<u32>()), ("attempts", Ok(6)));
//! assert!(matches!(parse("retry", "off"), Ok(Spec::Off)));
//! assert_eq!(
//!     parse("retry", "attempts").err().unwrap(),
//!     "retry field `attempts` is not key=value"
//! );
//! ```

use std::fmt::Display;
use std::str::FromStr;

/// What a knob's spec string says, before the knob interprets it.
#[derive(Debug)]
pub enum Spec<'a> {
    /// Empty (or all whitespace).
    Unset,
    /// `0`, `off` or `false`.
    Off,
    /// `1`, `on` or `true`.
    On,
    /// The `key=value` fields, in spec order.
    Fields(Vec<Field<'a>>),
}

/// One `key=value` field of the spec of `knob`; its errors name it.
#[derive(Debug)]
pub struct Field<'a> {
    knob: &'static str,
    text: &'a str,
    pub key: &'a str,
    pub value: &'a str,
}

/// Classify `spec`; `knob` is the word error messages call it by
/// (`"retry field `x`: …"`). `Err` is a field without an `=`.
pub fn parse<'a>(knob: &'static str, spec: &'a str) -> Result<Spec<'a>, String> {
    match spec.trim() {
        "" => Ok(Spec::Unset),
        "0" | "off" | "false" => Ok(Spec::Off),
        "1" | "on" | "true" => Ok(Spec::On),
        spec => spec
            .split(',')
            .map(str::trim)
            .filter(|text| !text.is_empty())
            .map(|text| {
                let (key, value) = text
                    .split_once('=')
                    .ok_or_else(|| format!("{knob} field `{text}` is not key=value"))?;
                Ok(Field {
                    knob,
                    text,
                    key,
                    value,
                })
            })
            .collect::<Result<_, _>>()
            .map(Spec::Fields),
    }
}

/// The error of a knob that has no defaults for a bare on-word
/// (`1` / `on` / `true`) to switch on.
pub fn no_defaults(knob: &str) -> String {
    format!("{knob} has no defaults to switch on: give key=value fields")
}

/// The value of the knob in environment variable `name`, through the
/// knob's own `parse`: `None` when the variable is unset (or not
/// unicode), else whatever `parse` makes of its text — its off value
/// for an off-word. A malformed spec aborts, naming the variable: a
/// silently ignored fault plan or admission rule would fake a passing
/// resilience run.
pub fn from_env<T>(name: &str, parse: impl FnOnce(&str) -> Result<Option<T>, String>) -> Option<T> {
    from_lookup(|name| std::env::var(name).ok(), name, parse)
}

/// [`from_env`] over any variable lookup, so what unset, off and
/// malformed mean is testable without touching the process environment.
pub fn from_lookup<T>(
    var: impl FnOnce(&str) -> Option<String>,
    name: &str,
    parse: impl FnOnce(&str) -> Result<Option<T>, String>,
) -> Option<T> {
    parse(var(name)?.trim()).unwrap_or_else(|e| panic!("{name}: {e}"))
}

impl Field<'_> {
    /// The value as a `T` (a number, usually).
    pub fn num<T: FromStr<Err: Display>>(&self) -> Result<T, String> {
        self.num_of(self.value)
    }

    /// `part` of a compound value (`a..b`, `R@S`) as a `T`.
    pub fn num_of<T: FromStr<Err: Display>>(&self, part: &str) -> Result<T, String> {
        part.parse().map_err(|e| self.err(e))
    }

    /// An error about this field's value.
    pub fn err(&self, why: impl Display) -> String {
        format!("{} field `{}`: {why}", self.knob, self.text)
    }

    /// The error for a key the knob does not have.
    pub fn unknown(&self) -> String {
        format!("unknown {} field `{}`", self.knob, self.key)
    }
}
