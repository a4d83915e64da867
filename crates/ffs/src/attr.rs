//! Small out-of-band attributes, carried apart from records.
//!
//! PreDatA's compute-node pass (`partial_calculate`) attaches small partial
//! results — local min/max, chunk sizes, prefix-sum inputs — to the
//! data-fetch *request* rather than the bulk payload, so staging nodes can
//! aggregate them before any bulk data moves. `AttrList` is the container
//! for those attachments: an ordered name → scalar/small-array map with a
//! hard size budget, since requests must stay tiny. A record carries no
//! attribute list of its own.

use crate::decode::view_value;
use crate::encode::encode_value_payload;
use crate::error::{FfsError, Result};
use crate::types::{BaseType, Value};
use crate::wire::{Reader, Writer};

/// Hard cap on the encoded size of one attribute list, in bytes. Fetch
/// requests are latency-critical control messages; anything bigger belongs
/// in the bulk payload.
pub(crate) const MAX_ENCODED_LEN: usize = 64 * 1024;

/// An ordered collection of named small values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrList {
    entries: Vec<(String, Value)>,
}

impl AttrList {
    pub fn new() -> Self {
        AttrList::default()
    }

    /// Insert or replace an attribute.
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        let name = name.into();
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            e.1 = value;
        } else {
            self.entries.push((name, value));
        }
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name)?.as_f64()
    }

    pub fn get_u64(&self, name: &str) -> Option<u64> {
        self.get(name)?.as_u64()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Serialize: `count:u16`, then per entry `name:str16 base:u8
    /// is_array:u8` and the value's payload. Fails if the encoded size
    /// would exceed its 64 KiB budget.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let payload: usize = self
            .entries
            .iter()
            .map(|(n, v)| 2 + n.len() + 2 + v.wire_size())
            .sum();
        // Within the budget, every name fits its `u16` length and the
        // count its `u16` (an entry takes at least 8 bytes).
        if payload > MAX_ENCODED_LEN {
            return Err(FfsError::Attr("attribute list exceeds 64 KiB budget"));
        }
        let mut buf = Vec::with_capacity(2 + payload);
        let w = &mut Writer::new(&mut buf);
        w.u16(self.entries.len() as u16);
        for (name, value) in &self.entries {
            w.str16(name);
            let (b, arr) = value.shape();
            w.u8(b.tag());
            w.u8(arr as u8);
            encode_value_payload(w, value);
        }
        Ok(buf)
    }

    /// Inverse of [`AttrList::to_bytes`]. A retired base tag, or a shape
    /// no [`Value`] has, is [`FfsError::Corrupt`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        let r = &mut Reader::new(buf);
        let n = r.u16("attr count")? as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str16("attr name")?;
            let base = BaseType::from_tag(r.u8("attr base")?)?;
            let is_arr = match r.u8("attr arr flag")? {
                0 => false,
                1 => true,
                _ => return Err(FfsError::Corrupt("attr array flag")),
            };
            let value = view_value(r, base, is_arr, None)?.to_value()?;
            entries.push((name, value));
        }
        Ok(AttrList { entries })
    }
}

impl FromIterator<(String, Value)> for AttrList {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut a = AttrList::new();
        for (n, v) in iter {
            a.set(n, v);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_replace() {
        let mut a = AttrList::new();
        a.set("min", Value::F64(-3.0));
        a.set("count", Value::U64(10));
        a.set("min", Value::F64(-5.0)); // replace
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.get_f64("min"), Some(-5.0));
        assert_eq!(a.get_u64("count"), Some(10));
        assert_eq!(a.get("absent"), None);
    }

    #[test]
    fn roundtrip() {
        let mut a = AttrList::new();
        a.set("min", Value::F64(-1.25));
        a.set("hist", Value::ArrU64(vec![1, 2, 3]));
        a.set("blob", Value::ArrU8(vec![0, 255]));
        a.set("tag", Value::Str("electrons".into()));
        let back = AttrList::from_bytes(&a.to_bytes().unwrap()).unwrap();
        assert_eq!(a, back);
    }

    /// One entry `a`, of base tag `tag`, array or not, with `payload`.
    fn one_entry(tag: u8, is_array: bool, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![1, 0, 1, 0, b'a', tag, is_array as u8];
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn retired_tags_and_shapes_are_refused() {
        let eight = [0u8; 8];
        for tag in [0, 2, 3, 4, 5, 6, 8] {
            assert_eq!(
                AttrList::from_bytes(&one_entry(tag, false, &eight)),
                Err(FfsError::Corrupt("unknown base-type tag"))
            );
        }
        // A `u8` scalar, and `f64` and `str` arrays of one element.
        let counted = [&1u64.to_le_bytes()[..], &eight].concat();
        for (tag, is_array, payload) in [
            (1, false, &eight[..1]),
            (9, true, &counted),
            (10, true, &counted),
        ] {
            assert_eq!(
                AttrList::from_bytes(&one_entry(tag, is_array, payload)),
                Err(FfsError::Corrupt("value shape with no wire form"))
            );
        }
        // The surviving shapes of the same bytes decode.
        assert_eq!(
            AttrList::from_bytes(&one_entry(7, true, &counted))
                .unwrap()
                .get("a"),
            Some(&Value::ArrU64(vec![0]))
        );
    }

    #[test]
    fn budget_enforced() {
        let mut a = AttrList::new();
        a.set("big", Value::ArrU64(vec![0; MAX_ENCODED_LEN / 8]));
        assert!(matches!(a.to_bytes(), Err(FfsError::Attr(_))));
    }

    #[test]
    fn preserves_insertion_order() {
        let mut a = AttrList::new();
        a.set("z", Value::U64(1));
        a.set("a", Value::U64(2));
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["z", "a"]);
    }
}
