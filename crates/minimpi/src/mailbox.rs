//! Mailboxes: a rank's incoming messages, one FIFO queue per source.

use std::any::Any;
use std::collections::VecDeque;

use parking_lot::{Condvar, Mutex};

use crate::world::DeadRank;

/// One in-flight payload; its type is checked where it is received.
pub(crate) type Payload = Box<dyn Any + Send>;

/// A rank's incoming messages, one FIFO queue per source rank.
///
/// Every message belongs to a collective, and every rank enters its
/// world's collectives in the same order, so a receive names its source
/// and takes the oldest message from it: MPI's non-overtaking rule
/// between two ranks is all the matching the collectives need.
pub(crate) struct Mailbox {
    queues: Mutex<Vec<VecDeque<Payload>>>,
    arrived: Condvar,
}

impl Mailbox {
    /// A mailbox of a world of `size` ranks.
    pub(crate) fn new(size: usize) -> Self {
        Mailbox {
            queues: Mutex::new((0..size).map(|_| VecDeque::new()).collect()),
            arrived: Condvar::new(),
        }
    }

    pub(crate) fn push(&self, src: usize, payload: Payload) {
        self.queues.lock()[src].push_back(payload);
        self.arrived.notify_all();
    }

    /// Wake every waiter so it re-checks `dead`. Taking the lock first
    /// means a waiter that read `dead` before the store is parked by now.
    pub(crate) fn wake_all(&self) {
        drop(self.queues.lock());
        self.arrived.notify_all();
    }

    /// Block until a message from `src` is queued and remove the oldest.
    /// Panics with "rank N died" instead of waiting on a dead world.
    pub(crate) fn take(&self, src: usize, dead: &DeadRank) -> Payload {
        let mut queues = self.queues.lock();
        self.arrived
            .wait_while(&mut queues, |q| q[src].is_empty() && dead.check());
        queues[src]
            .pop_front()
            .expect("the wait ends on a queued message")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn take_u8(mb: &Mailbox, src: usize) -> u8 {
        *mb.take(src, &DeadRank::default()).downcast::<u8>().unwrap()
    }

    #[test]
    fn fifo_per_source_and_sources_do_not_mix() {
        let mb = Mailbox::new(3);
        for i in 0..3u8 {
            mb.push(1, Box::new(i));
            mb.push(2, Box::new(10 + i));
        }
        // Source 2 first: source 1's older messages do not match it.
        for expect in 0..3u8 {
            assert_eq!(take_u8(&mb, 2), 10 + expect);
        }
        for expect in 0..3u8 {
            assert_eq!(take_u8(&mb, 1), expect);
        }
    }

    #[test]
    fn cross_thread_wakeup() {
        let mb = Arc::new(Mailbox::new(2));
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || take_u8(&mb2, 1));
        std::thread::sleep(Duration::from_millis(10));
        mb.push(0, Box::new(0u8));
        mb.push(1, Box::new(7u8));
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn dead_world_panics_in_place_of_parking() {
        let mb = Mailbox::new(2);
        let dead = DeadRank::default();
        assert!(dead.set(1));
        mb.push(0, Box::new(0u8));
        // A queued message is still delivered ...
        mb.take(0, &dead);
        // ... a wait panics, and leaves the lock usable.
        let cause = std::panic::catch_unwind(|| drop(mb.take(0, &dead)))
            .expect_err("a wait on a dead world panics");
        assert_eq!(cause.downcast_ref::<String>().unwrap(), "rank 1 died");
        mb.push(0, Box::new(3u8));
        assert_eq!(*mb.take(0, &dead).downcast::<u8>().unwrap(), 3);
    }
}
