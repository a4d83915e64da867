//! Mailboxes: per-rank matching queues for point-to-point traffic.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::world::DeadRank;
use crate::{ANY_SOURCE, ANY_TAG};

/// One in-flight message.
pub(crate) struct Envelope {
    pub src: usize,
    /// Communicator id, so split communicators never cross-match.
    pub comm_id: u64,
    pub tag: u64,
    /// Payload size estimate; carried for observability in debugging and
    /// future per-message accounting.
    #[allow(dead_code)]
    pub bytes: usize,
    pub payload: Box<dyn Any + Send>,
}

/// A rank's incoming queue with MPI-style (source, tag) matching.
///
/// Matching is first-match-in-queue-order, which preserves the MPI
/// non-overtaking guarantee for messages with identical (src, tag).
#[derive(Default)]
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    arrived: Condvar,
}

impl Mailbox {
    pub fn new() -> Self {
        Mailbox::default()
    }

    pub fn push(&self, env: Envelope) {
        self.queue.lock().expect("mailbox poisoned").push_back(env);
        self.arrived.notify_all();
    }

    /// Wake every waiter so it re-checks `dead`. Taking the lock first
    /// means a waiter that read `dead` before the store is parked by now.
    pub fn wake_all(&self) {
        drop(self.queue.lock());
        self.arrived.notify_all();
    }

    /// Block until a message matching (comm, src, tag) is available and
    /// remove it. `deadline` bounds the wait; `None` waits forever.
    /// Panics with "rank N died" instead of waiting on a dead world.
    pub fn take_match(
        &self,
        comm_id: u64,
        src: usize,
        tag: u64,
        deadline: Option<Instant>,
        dead: &DeadRank,
    ) -> Option<Envelope> {
        let mut q = self.queue.lock().expect("mailbox poisoned");
        loop {
            if let Some(pos) = q.iter().position(|e| {
                e.comm_id == comm_id
                    && (src == ANY_SOURCE || e.src == src)
                    && (tag == ANY_TAG || e.tag == tag)
            }) {
                return q.remove(pos);
            }
            q = dead.check(q);
            match deadline {
                None => q = self.arrived.wait(q).expect("mailbox poisoned"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (guard, timeout) = self
                        .arrived
                        .wait_timeout(q, d.saturating_duration_since(now))
                        .expect("mailbox poisoned");
                    q = guard;
                    if timeout.timed_out()
                        && !q.iter().any(|e| {
                            e.comm_id == comm_id
                                && (src == ANY_SOURCE || e.src == src)
                                && (tag == ANY_TAG || e.tag == tag)
                        })
                    {
                        return None;
                    }
                }
            }
        }
    }

    /// Non-destructively test whether a matching message is queued.
    pub fn probe(&self, comm_id: u64, src: usize, tag: u64) -> bool {
        self.queue
            .lock()
            .expect("mailbox poisoned")
            .iter()
            .any(|e| {
                e.comm_id == comm_id
                    && (src == ANY_SOURCE || e.src == src)
                    && (tag == ANY_TAG || e.tag == tag)
            })
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.queue.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// An untimed `take_match` on a world with every rank alive.
    fn take(mb: &Mailbox, comm: u64, src: usize, tag: u64) -> Option<Envelope> {
        mb.take_match(comm, src, tag, None, &DeadRank::default())
    }

    fn env(src: usize, comm: u64, tag: u64) -> Envelope {
        Envelope {
            src,
            comm_id: comm,
            tag,
            bytes: 0,
            payload: Box::new(0u8),
        }
    }

    #[test]
    fn fifo_within_matching_class() {
        let mb = Mailbox::new();
        for i in 0..3u8 {
            mb.push(Envelope {
                src: 1,
                comm_id: 0,
                tag: 5,
                bytes: 1,
                payload: Box::new(i),
            });
        }
        for expect in 0..3u8 {
            let e = take(&mb, 0, 1, 5).unwrap();
            assert_eq!(*e.payload.downcast::<u8>().unwrap(), expect);
        }
    }

    #[test]
    fn matching_skips_other_tags_and_comms() {
        let mb = Mailbox::new();
        mb.push(env(0, 0, 1));
        mb.push(env(0, 7, 2)); // other communicator
        mb.push(env(2, 0, 2));
        let e = take(&mb, 0, ANY_SOURCE, 2).unwrap();
        assert_eq!((e.src, e.comm_id), (2, 0));
        assert_eq!(mb.len(), 2);
    }

    #[test]
    fn wildcard_source_and_tag() {
        let mb = Mailbox::new();
        mb.push(env(3, 0, 9));
        assert!(take(&mb, 0, ANY_SOURCE, ANY_TAG).is_some());
    }

    #[test]
    fn timeout_expires() {
        let mb = Mailbox::new();
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        let got = mb.take_match(0, 0, 0, deadline, &DeadRank::default());
        assert!(got.is_none());
    }

    #[test]
    fn cross_thread_wakeup() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || take(&mb2, 0, 0, 1).map(|e| e.tag));
        std::thread::sleep(Duration::from_millis(10));
        mb.push(env(0, 0, 1));
        assert_eq!(h.join().unwrap(), Some(1));
    }

    #[test]
    fn dead_world_panics_in_place_of_parking() {
        let mb = Mailbox::new();
        let dead = DeadRank::default();
        assert!(dead.set(1));
        mb.push(env(0, 0, 1));
        // A queued match is still delivered ...
        assert!(mb.take_match(0, 0, 1, None, &dead).is_some());
        // ... a wait panics, timed or not, and leaves the lock usable.
        for deadline in [None, Some(Instant::now() + Duration::from_secs(60))] {
            let r = std::panic::catch_unwind(|| mb.take_match(0, 0, 1, deadline, &dead));
            let cause = r.err().expect("a wait on a dead world panics");
            assert_eq!(cause.downcast_ref::<String>().unwrap(), "rank 1 died");
        }
        assert_eq!(mb.len(), 0);
    }

    #[test]
    fn probe_is_nondestructive() {
        let mb = Mailbox::new();
        mb.push(env(1, 0, 4));
        assert!(mb.probe(0, 1, 4));
        assert!(!mb.probe(0, 1, 5));
        assert_eq!(mb.len(), 1);
    }
}
