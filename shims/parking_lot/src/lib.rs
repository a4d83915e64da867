//! Offline shim for the `parking_lot` crate, and the workspace's one
//! lock layer.
//!
//! Every `Mutex`, `RwLock` and `Condvar` under `crates/` comes from
//! here, layered over `std::sync`, so the lock behind every caller is
//! chosen in one place. Two rules hold for all of them:
//!
//! - **Recover from poisoning.** A thread that panics while it holds a
//!   guard leaves the data as it was at the panic, and the next caller
//!   gets the lock (`PoisonError::into_inner`), as in parking_lot's
//!   no-poison model. A lock never turns one thread's panic into
//!   everyone's.
//! - **Every park is a predicate wait.** [`Condvar::wait_while`] and
//!   [`Condvar::wait_while_for`] re-check their condition under the
//!   lock after every wake-up, so no caller writes its own park loop.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
pub use std::sync::{RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// parking_lot-style mutex: `lock()` returns the guard directly.
#[derive(Default, Debug)]
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
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
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
#[derive(Default, Debug)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
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

/// parking_lot-style condvar: waits take `&mut MutexGuard` and a
/// condition, and return only once the condition is false (or, timed,
/// the deadline has passed with it still true).
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

    /// Park while `condition` holds, re-checking it under the lock after
    /// every wake-up. A condition that panics unwinds with the lock held,
    /// and the next caller recovers it.
    pub fn wait_while<T, F>(&self, guard: &mut MutexGuard<'_, T>, mut condition: F)
    where
        F: FnMut(&mut T) -> bool,
    {
        while condition(&mut **guard) {
            self.park(guard, None);
        }
    }

    /// [`wait_while`](Self::wait_while) for at most `timeout`.
    /// `timed_out()` is true only if the condition still held at the
    /// deadline. A timeout too long to state as a deadline (such as
    /// `Duration::MAX`) waits for the condition alone.
    pub fn wait_while_for<T, F>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        mut condition: F,
        timeout: Duration,
    ) -> WaitTimeoutResult
    where
        F: FnMut(&mut T) -> bool,
    {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            self.wait_while(guard, condition);
            return WaitTimeoutResult(false);
        };
        while condition(&mut **guard) {
            let now = Instant::now();
            if now >= deadline {
                return WaitTimeoutResult(true);
            }
            self.park(guard, Some(deadline - now));
        }
        WaitTimeoutResult(false)
    }

    /// One park, recovering a poisoned lock. std's own `wait_while`
    /// returns early on poison, with its condition unchecked.
    fn park<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Option<Duration>) {
        let g = guard.inner.take().expect("guard present");
        let g = match timeout {
            None => self.inner.wait(g).unwrap_or_else(PoisonError::into_inner),
            Some(t) => {
                self.inner
                    .wait_timeout(g, t)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        };
        guard.inner = Some(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn wait_while_parks_until_the_condition_ends() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut done = lock.lock();
            cv.wait_while(&mut done, |done| !*done);
            *done
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(t.join().unwrap());
    }

    #[test]
    fn wait_while_for_times_out_only_while_the_condition_holds() {
        let m = Mutex::new(0);
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv
            .wait_while_for(&mut g, |_| true, Duration::from_millis(5))
            .timed_out());
        assert!(!cv
            .wait_while_for(&mut g, |_| false, Duration::ZERO)
            .timed_out());
        // No deadline overflow: `Duration::MAX` waits for the condition.
        assert!(!cv
            .wait_while_for(&mut g, |_| false, Duration::MAX)
            .timed_out());
    }

    #[test]
    fn a_panic_holding_a_mutex_guard_leaves_the_lock_usable() {
        let m = Mutex::new(vec![1]);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut g = m.lock();
            g.push(2);
            panic!("while holding the guard");
        }));
        assert!(r.is_err());
        assert_eq!(*m.lock(), vec![1, 2]);
        assert_eq!(*m.try_lock().expect("not held"), vec![1, 2]);
    }

    #[test]
    fn a_panic_holding_a_write_guard_leaves_the_lock_usable() {
        let l = RwLock::new(vec![1]);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut g = l.write();
            g.push(2);
            panic!("while holding the write guard");
        }));
        assert!(r.is_err());
        assert_eq!(*l.read(), vec![1, 2]);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    /// A condition that panics poisons the std mutex underneath. The next
    /// caller gets the data, and a later `wait_while` on the same lock
    /// still parks until its own condition ends: a wake-up on a poisoned
    /// lock does not end the wait early.
    #[test]
    fn a_panicking_wait_condition_leaves_the_lock_usable() {
        // (value, times the waiter decided to park)
        let pair = Arc::new((Mutex::new((7, 0)), Condvar::new()));
        let (lock, cv) = &*pair;
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut g = lock.lock();
            cv.wait_while(&mut g, |_| panic!("in the condition"));
        }));
        assert!(r.is_err());
        assert_eq!(*lock.lock(), (7, 0));

        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut g = lock.lock();
            cv.wait_while(&mut g, |s| {
                let park = s.0 != 9;
                s.1 += u32::from(park);
                park
            });
            g.0
        });
        // Wake the waiter once with its condition still true, then end it.
        for (parked, value) in [(1, 8), (2, 9)] {
            while lock.lock().1 < parked && !waiter.is_finished() {
                std::thread::yield_now();
            }
            lock.lock().0 = value;
            cv.notify_all();
        }
        assert_eq!(waiter.join().unwrap(), 9);
    }
}
