//! Communicators and point-to-point operations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::data::MpiData;
use crate::envelope::Envelope;
use crate::world::{SubsetBarrier, World};
use crate::{ANY_SOURCE, ANY_TAG};

/// Receive failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// `recv_timeout` deadline passed with no matching message.
    Timeout,
    /// A matching message arrived but its payload type was not `T`.
    TypeMismatch,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::TypeMismatch => write!(f, "payload type mismatch"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A hook invoked at the entry of every data-moving collective
/// (bcast/reduce/gather/scatter/alltoall/scan/…), *before* the first
/// message moves, with `(op, comm_rank, collective_seq)`. The
/// fault-injection layer installs one to exercise collective retries
/// without this crate depending on the transport: the gate may sleep
/// or count, but it always returns — a collective, once entered, runs
/// to completion, because abandoning it unilaterally would deadlock
/// every peer.
pub type CollectiveGate = dyn Fn(&'static str, u64, u64) + Send + Sync;

/// A rank's handle within one communicator: its rank, the member list
/// (communicator rank → world rank), and a subset barrier.
///
/// `Comm` is `Send` so a rank closure can move it into helper threads,
/// but each instance belongs to exactly one rank.
pub struct Comm {
    world: Arc<World>,
    comm_id: u64,
    rank: usize,
    members: Arc<[usize]>,
    barrier: Arc<SubsetBarrier>,
    /// Optional per-rank collective-entry hook; see [`CollectiveGate`].
    gate: Option<Arc<CollectiveGate>>,
    /// Collectives this rank has entered on this communicator — the
    /// deterministic sequence number handed to the gate.
    coll_seq: AtomicU64,
}

impl Comm {
    pub(crate) fn world_comm(
        world: Arc<World>,
        rank: usize,
        members: Arc<[usize]>,
        barrier: Arc<SubsetBarrier>,
    ) -> Self {
        Comm {
            world,
            comm_id: 0,
            rank,
            members,
            barrier,
            gate: None,
            coll_seq: AtomicU64::new(0),
        }
    }

    /// Install a [`CollectiveGate`] invoked at every data-moving
    /// collective's entry on this rank. `split` propagates the gate to
    /// sub-communicators (with a fresh sequence counter, so schedules
    /// stay deterministic per communicator).
    pub fn set_collective_gate(&mut self, gate: Arc<CollectiveGate>) {
        self.gate = Some(gate);
    }

    /// Run the installed gate, if any, for one collective entry.
    pub(crate) fn gate_collective(&self, op: &'static str) {
        if let Some(gate) = &self.gate {
            let seq = self.coll_seq.fetch_add(1, Ordering::Relaxed);
            gate(op, self.rank as u64, seq);
        }
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Translate a communicator rank to its world rank.
    pub fn world_rank(&self, comm_rank: usize) -> usize {
        self.members[comm_rank]
    }

    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// Send `value` to communicator rank `dst` with `tag`. Asynchronous
    /// (buffered): never blocks. Tags at and above
    /// [`crate::RESERVED_TAGS`] belong to collective/split plumbing and
    /// are rejected.
    pub fn send<T: MpiData>(&self, dst: usize, tag: u64, value: T) {
        assert!(
            tag < crate::RESERVED_TAGS,
            "tag {tag} is in the reserved range (collective/split plumbing)"
        );
        self.send_raw(dst, tag, value)
    }

    /// Internal send without the reserved-tag check (collectives use it).
    pub(crate) fn send_raw<T: MpiData>(&self, dst: usize, tag: u64, value: T) {
        assert!(
            dst < self.size(),
            "send: rank {dst} out of range 0..{}",
            self.size()
        );
        assert!(tag != ANY_TAG, "ANY_TAG is receive-only");
        let bytes = value.byte_len();
        self.world.stats.record_send(bytes);
        self.world.mailboxes[self.members[dst]].push(Envelope {
            src: self.rank,
            comm_id: self.comm_id,
            tag,
            bytes,
            payload: Box::new(value),
        });
    }

    /// Blocking receive from communicator rank `src` (or [`ANY_SOURCE`])
    /// with `tag` (or [`ANY_TAG`]). Returns the payload and its source.
    ///
    /// Panics if the matched payload is not a `T` — that is a programming
    /// error in lockstep code, equivalent to an MPI datatype mismatch.
    pub fn recv<T: MpiData>(&self, src: usize, tag: u64) -> (T, usize) {
        if src != ANY_SOURCE {
            assert!(
                src < self.size(),
                "recv: rank {src} out of range 0..{}",
                self.size()
            );
        }
        let env = self.world.mailboxes[self.members[self.rank]]
            .take_match(self.comm_id, src, tag, None, &self.world.dead)
            .expect("untimed take_match never returns None");
        let src = env.src;
        match env.payload.downcast::<T>() {
            Ok(v) => (*v, src),
            Err(_) => panic!(
                "recv type mismatch: rank {} tag {tag} expected {}",
                self.rank,
                std::any::type_name::<T>()
            ),
        }
    }

    /// Receive with a deadline.
    pub fn recv_timeout<T: MpiData>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<(T, usize), RecvError> {
        let env = self.world.mailboxes[self.members[self.rank]]
            .take_match(
                self.comm_id,
                src,
                tag,
                Some(Instant::now() + timeout),
                &self.world.dead,
            )
            .ok_or(RecvError::Timeout)?;
        let s = env.src;
        env.payload
            .downcast::<T>()
            .map(|v| (*v, s))
            .map_err(|_| RecvError::TypeMismatch)
    }

    /// Non-blocking test for a matching queued message.
    pub fn probe(&self, src: usize, tag: u64) -> bool {
        self.world.mailboxes[self.members[self.rank]].probe(self.comm_id, src, tag)
    }

    /// Synchronize all ranks of this communicator.
    pub fn barrier(&self) {
        self.world.stats.record_collective();
        self.barrier.wait(&self.world.dead);
    }

    /// Split into disjoint sub-communicators by `color`; ranks within each
    /// colour are ordered by `key` (ties broken by parent rank), exactly
    /// like `MPI_Comm_split`. Collective: every rank must call it.
    pub fn split(&self, color: u64, key: u64) -> Comm {
        // Gather (color, key) from everyone via the parent communicator,
        // deterministically derive member lists on every rank, then have
        // colour-leader (lowest parent rank) allocate the new comm id and
        // share it — ids must be identical across members.
        let pairs: Vec<(u64, u64)> = self.allgather((color, key));
        let mut mine: Vec<(u64, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| *c == color)
            .map(|(r, (_, k))| (*k, r))
            .collect();
        mine.sort_unstable();
        let member_parent_ranks: Vec<usize> = mine.iter().map(|&(_, r)| r).collect();
        let my_new_rank = member_parent_ranks
            .iter()
            .position(|&r| r == self.rank)
            .expect("caller is in its own colour class");

        // Leader allocates id + barrier, distributes over parent comm.
        let leader = member_parent_ranks[0];
        const SPLIT_TAG: u64 = u64::MAX - 1;
        let (comm_id, barrier) = if self.rank == leader {
            let id = self.world.alloc_comm_id();
            let barrier = self.world.new_barrier(member_parent_ranks.len());
            for &m in &member_parent_ranks[1..] {
                self.send_raw(
                    m,
                    SPLIT_TAG,
                    SplitInfo {
                        id,
                        barrier: Arc::clone(&barrier),
                    },
                );
            }
            (id, barrier)
        } else {
            let (info, _) = self.recv::<SplitInfo>(leader, SPLIT_TAG);
            (info.id, info.barrier)
        };

        let members: Arc<[usize]> = member_parent_ranks
            .iter()
            .map(|&r| self.members[r])
            .collect();
        Comm {
            world: Arc::clone(&self.world),
            comm_id,
            rank: my_new_rank,
            members,
            barrier,
            gate: self.gate.clone(),
            coll_seq: AtomicU64::new(0),
        }
    }
}

/// Payload used internally by `split`.
#[derive(Clone)]
struct SplitInfo {
    id: u64,
    barrier: Arc<SubsetBarrier>,
}

impl MpiData for SplitInfo {
    fn byte_len(&self) -> usize {
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn p2p_ring() {
        let out = World::run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 0, c.rank() as u64);
            let (v, src) = c.recv::<u64>(prev, 0);
            assert_eq!(src, prev);
            v
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn tags_demultiplex() {
        World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, 70u32);
                c.send(1, 8, 80u32);
            } else {
                // Receive in reverse tag order; matching must not confuse them.
                let (b, _) = c.recv::<u32>(0, 8);
                let (a, _) = c.recv::<u32>(0, 7);
                assert_eq!((a, b), (70, 80));
            }
        });
    }

    #[test]
    fn any_source_any_tag() {
        World::run(3, |c| {
            if c.rank() != 0 {
                c.send(0, c.rank() as u64, c.rank() as u64 * 100);
            } else {
                let mut got = vec![];
                for _ in 0..2 {
                    let (v, src) = c.recv::<u64>(ANY_SOURCE, ANY_TAG);
                    got.push((src, v));
                }
                got.sort_unstable();
                assert_eq!(got, vec![(1, 100), (2, 200)]);
            }
        });
    }

    #[test]
    fn recv_timeout_expires() {
        World::run(1, |c| {
            let r = c.recv_timeout::<u8>(0, 1, Duration::from_millis(10));
            assert_eq!(r.unwrap_err(), RecvError::Timeout);
        });
    }

    #[test]
    fn probe_sees_pending() {
        World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 3, 1u8);
                c.barrier();
            } else {
                c.barrier();
                assert!(c.probe(0, 3));
                assert!(!c.probe(0, 4));
                let _ = c.recv::<u8>(0, 3);
            }
        });
    }

    #[test]
    fn split_even_odd() {
        let out = World::run(6, |c| {
            let sub = c.split((c.rank() % 2) as u64, c.rank() as u64);
            // Sub-communicator traffic must be isolated from parent.
            let peer = (sub.rank() + 1) % sub.size();
            sub.send(peer, 0, c.rank() as u64);
            let (from, _) = sub.recv::<u64>(ANY_SOURCE, 0);
            (sub.rank(), sub.size(), from % 2 == (c.rank() % 2) as u64)
        });
        for (i, (r, s, same_parity)) in out.iter().enumerate() {
            assert_eq!(*s, 3);
            assert_eq!(*r, i / 2);
            assert!(same_parity);
        }
    }

    #[test]
    fn split_by_key_reorders() {
        let out = World::run(4, |c| {
            // All same colour; key = reverse of rank → ranks flip.
            let sub = c.split(0, (c.size() - c.rank()) as u64);
            sub.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn traffic_stats_count_bytes() {
        let (_, world) = World::run_with_stats(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0u64; 1000]);
            } else {
                let _ = c.recv::<Vec<u64>>(0, 0);
            }
        });
        assert_eq!(world.stats().bytes(), 8000);
        assert_eq!(world.stats().messages(), 1);
    }
}
