//! Offline shim for the `parking_lot` crate.
//!
//! Provides the subset of the parking_lot API this workspace uses —
//! `Mutex`, `RwLock`, and `Condvar` with non-poisoning guards — layered
//! over `std::sync`. Poisoned std locks are recovered transparently
//! (`PoisonError::into_inner`), matching parking_lot's no-poison model.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

/// parking_lot-style mutex: `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]. Holds the inner std guard in an `Option` so a
/// `Condvar` wait can temporarily take ownership of it.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let g = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MutexGuard { inner: Some(g) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// parking_lot-style rwlock: `read()` / `write()` return guards directly.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self
                .inner
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self
                .inner
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed condvar wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// parking_lot-style condvar: waits take `&mut MutexGuard`.
#[derive(Default, Debug)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        let g = self
            .inner
            .wait(g)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.inner = Some(g);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard present");
        let (g, res) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, res)) => (g, res),
            Err(p) => p.into_inner(),
        };
        guard.inner = Some(g);
        WaitTimeoutResult(res.timed_out())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut done = lock.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(res.timed_out());
    }
}
