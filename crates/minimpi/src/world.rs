//! World creation and rank launching.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::comm::Comm;
use crate::mailbox::Mailbox;
use crate::stats::TrafficStats;

/// Shared state of one message-passing world: the mailboxes of all ranks,
/// its one barrier, and traffic counters.
pub struct World {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) barrier: Barrier,
    pub(crate) stats: TrafficStats,
    pub(crate) dead: DeadRank,
}

/// The first rank whose thread unwound, as world rank + 1; 0 while every
/// rank is alive. A rank about to park reads it while holding the lock
/// of the condvar it parks on, and [`World::poison`] takes that lock
/// between storing and notifying, so the lock orders the two and
/// `Relaxed` is enough: the waiter either sees the store or is already
/// parked when the notification comes.
#[derive(Default)]
pub(crate) struct DeadRank(AtomicUsize);

impl DeadRank {
    pub(crate) fn get(&self) -> Option<usize> {
        self.0.load(Ordering::Relaxed).checked_sub(1)
    }

    /// Record `rank` as dead; false if another rank died first.
    pub(crate) fn set(&self, rank: usize) -> bool {
        self.0
            .compare_exchange(0, rank + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Panic in place of parking on a wait a dead rank will never end;
    /// otherwise true, so a wait condition can end with it. The panic
    /// unwinds through the caller's guard, and the shim's locks recover
    /// from it: the next caller gets the lock with its data intact.
    pub(crate) fn check(&self) -> bool {
        if let Some(rank) = self.get() {
            panic!("rank {rank} died");
        }
        true
    }
}

/// Reusable, generation-counted barrier over a world's ranks. (A
/// `std::sync::Barrier` cannot be woken to see a dead rank, so we roll
/// our own.)
pub(crate) struct Barrier {
    state: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
    parties: usize,
}

impl Barrier {
    pub(crate) fn new(parties: usize) -> Self {
        Barrier {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            parties,
        }
    }

    /// Wake every waiter so it re-checks `dead` (see
    /// [`crate::mailbox::Mailbox::wake_all`]).
    fn wake_all(&self) {
        drop(self.state.lock());
        self.cv.notify_all();
    }

    /// Panics with "rank N died" instead of waiting for a dead rank.
    pub(crate) fn wait(&self, dead: &DeadRank) {
        let mut s = self.state.lock();
        let gen = s.1;
        s.0 += 1;
        if s.0 == self.parties {
            s.0 = 0;
            s.1 = s.1.wrapping_add(1);
            self.cv.notify_all();
        } else {
            self.cv.wait_while(&mut s, |s| s.1 == gen && dead.check());
        }
    }
}

/// Held by the thread that runs rank `.1` of world `.0`:
/// [`World::poison`]s the world when that thread unwinds, so the rank's
/// peers panic out of their waits instead of parking for ever.
/// [`World::run`] gives every thread it launches one; a caller that
/// drives the ranks of a [`World::with_size`] world on its own threads
/// (the staging area) does the same, or nothing observes a rank's death.
pub struct PoisonOnUnwind(pub Arc<World>, pub usize);

impl Drop for PoisonOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison(self.1);
        }
    }
}

impl World {
    /// Create a world of `size` ranks without launching threads; used when
    /// the caller manages its own threads (e.g. a staging area embedded in
    /// a larger harness); the returned communicators are handed to those
    /// threads, each of which should hold a [`PoisonOnUnwind`].
    pub fn with_size(size: usize) -> (Arc<World>, Vec<Comm>) {
        assert!(size > 0, "world must have at least one rank");
        let world = Arc::new(World {
            mailboxes: (0..size).map(|_| Mailbox::new(size)).collect(),
            barrier: Barrier::new(size),
            stats: TrafficStats::default(),
            dead: DeadRank::default(),
        });
        let comms = (0..size)
            .map(|r| Comm::new(Arc::clone(&world), r))
            .collect();
        (world, comms)
    }

    /// Launch `size` ranks, run `f` on each with its world communicator,
    /// and return the per-rank results ordered by rank.
    ///
    /// A panic in any rank aborts the world — peers blocked in `recv` or
    /// `barrier` panic with "rank N died" instead of waiting for ever —
    /// and propagates (after all threads are joined), so test failures
    /// inside ranks surface normally.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Comm) -> T + Send + Sync + 'static,
    {
        World::run_with_stats(size, f).0
    }

    /// Like [`World::run`] but also returns the world so the caller can
    /// read [`TrafficStats`] after completion.
    pub fn run_with_stats<T, F>(size: usize, f: F) -> (Vec<T>, Arc<World>)
    where
        T: Send + 'static,
        F: Fn(Comm) -> T + Send + Sync + 'static,
    {
        let (world, comms) = World::with_size(size);
        let f = Arc::new(f);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let f = Arc::clone(&f);
                let guard = PoisonOnUnwind(Arc::clone(&world), comm.rank());
                std::thread::Builder::new()
                    .name(format!("rank{}", comm.rank()))
                    .spawn(move || {
                        let _guard = guard;
                        f(comm)
                    })
                    .expect("spawn rank thread")
            })
            .collect();
        let mut joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        // The first death is the cause; the peers' "rank N died" panics
        // are its echo.
        if let Some(rank) = world.dead.get() {
            match joined.swap_remove(rank) {
                Err(cause) => std::panic::resume_unwind(cause),
                Ok(_) => unreachable!("rank {rank} poisoned the world while unwinding"),
            }
        }
        let out = joined
            .into_iter()
            .map(|r| r.expect("no rank died"))
            .collect();
        (out, world)
    }

    /// Mark `rank` dead and wake every rank parked in a `recv` or a
    /// barrier, which then panics. The first call wins; later deaths are
    /// consequences of it and find everyone already awake. For a rank
    /// that gives up without unwinding (it returns an error and runs no
    /// further collective), which [`PoisonOnUnwind`] cannot see.
    pub fn poison(&self, rank: usize) {
        if !self.dead.set(rank) {
            return;
        }
        for mailbox in &self.mailboxes {
            mailbox.wake_all();
        }
        self.barrier.wake_all();
    }

    pub(crate) fn size(&self) -> usize {
        self.mailboxes.len()
    }

    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_returns_results_in_rank_order() {
        let out = World::run(6, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = World::run(0, |_| ());
    }

    #[test]
    fn rank_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            World::run(3, |c| {
                if c.rank() == 1 {
                    panic!("boom in rank 1");
                }
            })
        });
        assert!(r.is_err());
    }

    /// Run `f` on a 3-rank world in which rank 1 panics where `f` calls
    /// `die_if_rank_1`, and check that `World::run` comes back with that
    /// panic. Whether a peer is parked when rank 1 dies or arrives
    /// afterwards is up to the scheduler, so every case runs many times.
    fn aborts_with_rank_1s_panic(f: fn(Comm)) {
        for _ in 0..20 {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                tx.send(std::panic::catch_unwind(|| World::run(3, f))).ok();
            });
            let cause = rx
                .recv_timeout(std::time::Duration::from_secs(1))
                .expect("the world is still parked 1 s after rank 1 died")
                .expect_err("the panic propagates");
            assert_eq!(cause.downcast_ref::<&str>(), Some(&"boom in rank 1"));
        }
    }

    fn die_if_rank_1(c: &Comm) {
        if c.rank() == 1 {
            panic!("boom in rank 1");
        }
    }

    #[test]
    fn dead_rank_aborts_a_barrier() {
        aborts_with_rank_1s_panic(|c| {
            die_if_rank_1(&c);
            c.barrier()
        });
    }

    #[test]
    fn dead_rank_aborts_a_recv() {
        aborts_with_rank_1s_panic(|c| {
            die_if_rank_1(&c);
            c.recv::<u8>(1);
        });
    }

    #[test]
    fn barrier_reusable() {
        let b = Arc::new(Barrier::new(4));
        let counter = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let alive = DeadRank::default();
                    for round in 0..100u64 {
                        c.fetch_add(1, Ordering::SeqCst);
                        b.wait(&alive);
                        // After each barrier, all 4 increments of this
                        // round must be visible.
                        assert!(c.load(Ordering::SeqCst) >= (round + 1) * 4);
                        b.wait(&alive);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 400);
    }
}
