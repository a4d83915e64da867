//! Collective operations, built from point-to-point messages.
//!
//! Algorithms are deliberately simple (linear fan-in/out around a root):
//! functional semantics are what the middleware needs from this layer;
//! collective *cost* at scale is modelled analytically in `simhec`.
//! All collectives must be entered by every rank of the world in the
//! same order, exactly as in MPI.

use crate::comm::Comm;
use crate::data::MpiData;

/// Internal wrapper giving composite payloads an explicit byte size, so
/// collective plumbing can ship `Vec<T>` for any `T: MpiData`.
#[derive(Clone)]
struct WithSize<T> {
    value: T,
    bytes: usize,
}

impl<T: Send + 'static> MpiData for WithSize<T> {
    fn byte_len(&self) -> usize {
        self.bytes
    }
}

impl Comm {
    /// Gather per-rank values to `root`, ordered by rank.
    pub fn gather<T: MpiData + Clone>(&self, root: usize, value: T) -> Option<Vec<T>> {
        self.world().stats().record_collective();
        if self.rank() == root {
            let mut value = Some(value);
            Some(
                (0..self.size())
                    .map(|r| {
                        if r == root {
                            value.take().expect("root's own slot")
                        } else {
                            self.recv::<T>(r)
                        }
                    })
                    .collect(),
            )
        } else {
            self.send(root, value);
            None
        }
    }

    /// Gather to every rank.
    pub fn allgather<T: MpiData + Clone>(&self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.world().stats().record_collective();
        if self.rank() == 0 {
            let v = gathered.expect("rank 0 gathered");
            let bytes = v.iter().map(MpiData::byte_len).sum();
            let wrapped = WithSize { value: v, bytes };
            for r in 1..self.size() {
                self.send(r, wrapped.clone());
            }
            wrapped.value
        } else {
            self.recv::<WithSize<Vec<T>>>(0).value
        }
    }

    /// Personalized all-to-all: element `i` of `values` goes to rank `i`;
    /// the result's element `j` came from rank `j`. This is the shuffle
    /// behind PreDatA's `partition()` phase; element sizes may differ.
    pub fn alltoall<T: MpiData + Clone>(&self, values: Vec<T>) -> Vec<T> {
        assert_eq!(
            values.len(),
            self.size(),
            "alltoall: need one value per rank"
        );
        self.world().stats().record_collective();
        let mut mine = None;
        for (r, v) in values.into_iter().enumerate() {
            if r == self.rank() {
                mine = Some(v);
            } else {
                self.send(r, v);
            }
        }
        (0..self.size())
            .map(|r| {
                if r == self.rank() {
                    mine.take().expect("own slot")
                } else {
                    self.recv::<T>(r)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::World;

    #[test]
    fn gather_and_allgather_ordered() {
        let out = World::run(4, |c| c.gather(1, (c.rank() as u32) * 2));
        assert_eq!(out[1], Some(vec![0, 2, 4, 6]));
        let out = World::run(4, |c| c.allgather(c.rank() as u32));
        for v in out {
            assert_eq!(v, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        let out = World::run(3, |c| {
            // Send (my_rank, dst) to each dst.
            let send: Vec<(u64, u64)> = (0..3).map(|d| (c.rank() as u64, d as u64)).collect();
            c.alltoall(send)
        });
        for (me, row) in out.iter().enumerate() {
            for (src, pair) in row.iter().enumerate() {
                assert_eq!(*pair, (src as u64, me as u64));
            }
        }
    }

    #[test]
    fn alltoall_ragged() {
        let out = World::run(3, |c| {
            // Rank r sends r copies of its rank to everyone.
            let send: Vec<Vec<u8>> = (0..3).map(|_| vec![c.rank() as u8; c.rank()]).collect();
            c.alltoall(send)
        });
        for row in out {
            assert_eq!(row, vec![vec![], vec![1], vec![2, 2]]);
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        let out = World::run(4, |c| {
            let t1 = c.alltoall(vec![1u64; 4]);
            c.barrier(); // moves no data between the two
            let g = c.allgather(c.rank() as u64);
            let t2 = c.alltoall(vec![10u64 * c.rank() as u64; 4]);
            (t1, g, t2)
        });
        for (t1, g, t2) in out {
            assert_eq!(t1, vec![1; 4]);
            assert_eq!(g, vec![0, 1, 2, 3]);
            assert_eq!(t2, vec![0, 10, 20, 30]);
        }
    }

    /// With no tags, a collective's messages are told apart from the next
    /// one's by order alone. A `gather` lets every rank but the root send
    /// and leave, so many rounds queue up between one pair of ranks; each
    /// still lands in its own round.
    #[test]
    fn senders_running_ahead_stay_in_their_own_round() {
        let out = World::run(4, |c| {
            let mut seen = Vec::new();
            for round in 0..200u64 {
                let root = round as usize % c.size();
                if let Some(all) = c.gather(root, round * 10 + c.rank() as u64) {
                    seen.push((round, all));
                }
            }
            seen
        });
        for (rank, seen) in out.into_iter().enumerate() {
            assert_eq!(seen.len(), 50);
            for (round, all) in seen {
                assert_eq!(round as usize % 4, rank);
                assert_eq!(all, (0..4).map(|r| round * 10 + r).collect::<Vec<_>>());
            }
        }
    }
}
