//! A rank's communicator, and the point-to-point messages the
//! collectives are built from.

use std::sync::Arc;

use crate::data::MpiData;
use crate::world::World;

/// A rank's handle on its world. A world has one communicator, spanning
/// all of its ranks: a rank's communicator rank is its world rank.
///
/// `Comm` is `Send` so a rank closure can move it into helper threads,
/// but each instance belongs to exactly one rank.
pub struct Comm {
    world: Arc<World>,
    rank: usize,
    /// The registry what runs on this rank records into; see
    /// [`set_obs`](Comm::set_obs).
    obs: obs::Registry,
}

impl Comm {
    /// A communicator of `world`'s rank `rank`, recording into the
    /// [global registry](obs::global) until [`set_obs`](Comm::set_obs)
    /// says otherwise.
    pub(crate) fn new(world: Arc<World>, rank: usize) -> Self {
        Comm {
            world,
            rank,
            obs: obs::global().clone(),
        }
    }

    /// Record what runs on this rank (the operators, through their
    /// context) into `obs`: the staging rank binds its fabric's registry
    /// here.
    pub fn set_obs(&mut self, obs: obs::Registry) {
        self.obs = obs;
    }

    /// The registry this rank records into.
    pub fn obs(&self) -> &obs::Registry {
        &self.obs
    }

    /// This rank's index within the world.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// Send `value` to rank `dst`. Buffered: never blocks.
    pub(crate) fn send<T: MpiData>(&self, dst: usize, value: T) {
        self.world.stats.record_send(value.byte_len());
        self.world.mailboxes[dst].push(self.rank, Box::new(value));
    }

    /// Blocking receive of the oldest message from rank `src`.
    ///
    /// Panics if that message is not a `T` — two ranks that disagree on
    /// the order of their collectives, the equivalent of an MPI datatype
    /// mismatch.
    pub(crate) fn recv<T: MpiData>(&self, src: usize) -> T {
        let payload = self.world.mailboxes[self.rank].take(src, &self.world.dead);
        match payload.downcast::<T>() {
            Ok(v) => *v,
            Err(_) => panic!(
                "recv type mismatch: rank {} from rank {src} expected {}",
                self.rank,
                std::any::type_name::<T>()
            ),
        }
    }

    /// Synchronize all ranks of the world.
    pub fn barrier(&self) {
        self.world.stats.record_collective();
        self.world.barrier.wait(&self.world.dead);
    }
}

#[cfg(test)]
mod tests {
    use crate::World;

    #[test]
    fn p2p_ring() {
        let out = World::run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, c.rank() as u64);
            c.recv::<u64>(prev)
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn messages_from_one_source_arrive_in_send_order() {
        World::run(3, |c| {
            if c.rank() != 2 {
                for i in 0..50u32 {
                    c.send(2, c.rank() as u32 * 100 + i);
                }
            } else {
                // Drain rank 1 before rank 0: neither source's queue is
                // disturbed by the other's.
                for src in [1, 0] {
                    let got: Vec<u32> = (0..50).map(|_| c.recv::<u32>(src)).collect();
                    let sent: Vec<u32> = (0..50).map(|i| src as u32 * 100 + i).collect();
                    assert_eq!(got, sent);
                }
            }
        });
    }

    #[test]
    fn type_mismatch_on_recv_panics() {
        let r = std::panic::catch_unwind(|| {
            World::run(2, |c| {
                if c.rank() == 0 {
                    c.send(1, 42u64);
                } else {
                    let _ = c.recv::<f32>(0);
                }
            })
        });
        let cause = r.expect_err("a mistyped recv panics");
        let msg = cause.downcast_ref::<String>().unwrap();
        assert!(
            msg.starts_with("recv type mismatch: rank 1 from rank 0"),
            "{msg}"
        );
    }

    #[test]
    fn traffic_stats_count_bytes() {
        let (_, world) = World::run_with_stats(2, |c| {
            if c.rank() == 0 {
                c.send(1, vec![0u64; 1000]);
            } else {
                let _ = c.recv::<Vec<u64>>(0);
            }
        });
        assert_eq!(world.stats().bytes(), 8000);
        assert_eq!(world.stats().messages(), 1);
    }
}
