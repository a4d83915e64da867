//! Format interning and lookup by fingerprint.
//!
//! FFS deployments run a *format server* so that communicating peers can
//! exchange compact format handles instead of full schemas. Within one
//! process (or one simulated machine) the equivalent is this thread-safe
//! registry: formats are interned once and every by-reference record
//! resolves through it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::types::FormatDesc;

/// Stable identifier of an interned format (its schema fingerprint).
pub(crate) type FormatId = u64;

/// Thread-safe format store shared across senders and receivers.
#[derive(Debug, Default)]
pub struct FormatRegistry {
    formats: RwLock<HashMap<FormatId, Arc<FormatDesc>>>,
}

impl FormatRegistry {
    /// Register an already-shared format; returns its id. Idempotent.
    /// Only the tests write by-reference records, so only they register.
    #[cfg(test)]
    pub(crate) fn register(&self, fmt: &Arc<FormatDesc>) -> FormatId {
        let id = fmt.fingerprint();
        self.formats
            .write()
            .entry(id)
            .or_insert_with(|| Arc::clone(fmt));
        id
    }

    /// Intern an owned format, returning the canonical shared instance.
    /// If a structurally identical format is already present, that instance
    /// is returned and the argument dropped — so repeated decodes of the
    /// same stream share one `Arc`.
    pub(crate) fn intern(&self, fmt: FormatDesc) -> Arc<FormatDesc> {
        let id = fmt.fingerprint();
        let mut map = self.formats.write();
        Arc::clone(map.entry(id).or_insert_with(|| Arc::new(fmt)))
    }

    pub(crate) fn lookup(&self, id: FormatId) -> Option<Arc<FormatDesc>> {
        self.formats.read().get(&id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BaseType, FieldDesc};

    fn fmt(name: &str) -> Arc<FormatDesc> {
        FormatDesc::new(name)
            .field(FieldDesc::scalar("a", BaseType::I32))
            .build()
            .unwrap()
    }

    #[test]
    fn register_lookup() {
        let reg = FormatRegistry::default();
        let f = fmt("one");
        let id = reg.register(&f);
        assert!(reg.formats.read().contains_key(&id));
        assert_eq!(reg.lookup(id).unwrap().name(), "one");
        assert_eq!(reg.lookup(0xdead), None);
    }

    #[test]
    fn register_idempotent() {
        let reg = FormatRegistry::default();
        let f = fmt("one");
        let id1 = reg.register(&f);
        let id2 = reg.register(&f);
        assert_eq!(id1, id2);
        assert_eq!(reg.formats.read().len(), 1);
    }

    #[test]
    fn intern_canonicalizes() {
        let reg = FormatRegistry::default();
        let a = reg.intern(Arc::try_unwrap(fmt("x")).unwrap());
        let b = reg.intern(Arc::try_unwrap(fmt("x")).unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.formats.read().len(), 1);
    }

    #[test]
    fn concurrent_interning_is_safe() {
        let reg = Arc::new(FormatRegistry::default());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for j in 0..50 {
                        let name = format!("fmt{}", (i + j) % 10);
                        reg.intern(Arc::try_unwrap(fmt(&name)).unwrap());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.formats.read().len(), 10);
    }
}
