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
    /// Broadcast from `root`. `value` must be `Some` on the root and is
    /// ignored elsewhere.
    pub(crate) fn bcast<T: MpiData + Clone>(&self, root: usize, value: Option<T>) -> T {
        self.world().stats().record_collective();
        self.gate_collective("bcast");
        if self.rank() == root {
            let v = value.expect("bcast: root must supply a value");
            for r in 0..self.size() {
                if r != root {
                    self.send(r, v.clone());
                }
            }
            v
        } else {
            self.recv::<T>(root)
        }
    }

    /// Reduce to `root` with an associative `op`. Returns `Some` on root.
    pub(crate) fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Option<T>
    where
        T: MpiData + Clone,
        F: Fn(T, T) -> T,
    {
        self.world().stats().record_collective();
        self.gate_collective("reduce");
        if self.rank() == root {
            let mut acc = value;
            // Deterministic order: fold ranks 0..size skipping root, so
            // floating-point reductions are reproducible run to run.
            for r in 0..self.size() {
                if r != root {
                    acc = op(acc, self.recv::<T>(r));
                }
            }
            Some(acc)
        } else {
            self.send(root, value);
            None
        }
    }

    /// Reduce + broadcast: every rank gets the reduction result.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: MpiData + Clone,
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce(0, value, op);
        self.bcast(0, reduced)
    }

    /// Gather per-rank values to `root`, ordered by rank.
    pub fn gather<T: MpiData + Clone>(&self, root: usize, value: T) -> Option<Vec<T>> {
        self.world().stats().record_collective();
        self.gate_collective("gather");
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
        self.gate_collective("allgather");
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
        self.gate_collective("alltoall");
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

    /// Exclusive prefix reduction: rank i gets op(identity, v0, …, v(i-1)).
    /// PreDatA's staging aggregation uses this to assign global array
    /// offsets from per-chunk sizes.
    pub fn exscan<T, F>(&self, value: T, identity: T, op: F) -> T
    where
        T: MpiData + Clone,
        F: Fn(T, T) -> T,
    {
        self.world().stats().record_collective();
        self.gate_collective("exscan");
        let inclusive_prev = if self.rank() == 0 {
            identity
        } else {
            self.recv::<T>(self.rank() - 1)
        };
        if self.rank() + 1 < self.size() {
            self.send(self.rank() + 1, op(inclusive_prev.clone(), value));
        }
        inclusive_prev
    }
}

#[cfg(test)]
mod tests {
    use crate::World;

    #[test]
    fn bcast_from_each_root() {
        for root in 0..3 {
            let out = World::run(3, move |c| {
                let v = if c.rank() == root {
                    Some(root as u64 * 7)
                } else {
                    None
                };
                c.bcast(root, v)
            });
            assert_eq!(out, vec![root as u64 * 7; 3]);
        }
    }

    #[test]
    fn reduce_sum_and_max() {
        let out = World::run(5, |c| c.reduce(2, c.rank() as u64, |a, b| a + b));
        assert_eq!(out[2], Some(10));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.is_some(), i == 2);
        }
        let out = World::run(5, |c| c.allreduce(c.rank() as i64 - 2, i64::max));
        assert_eq!(out, vec![2; 5]);
    }

    #[test]
    fn reduce_is_deterministic_for_floats() {
        let a = World::run(7, |c| c.allreduce(0.1f64 * c.rank() as f64, |x, y| x + y));
        let b = World::run(7, |c| c.allreduce(0.1f64 * c.rank() as f64, |x, y| x + y));
        assert_eq!(a, b); // bitwise equal, same fold order
    }

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
    fn exscan_prefixes() {
        let exc = World::run(5, |c| c.exscan((c.rank() + 1) as u64, 0, |a, b| a + b));
        assert_eq!(exc, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn exscan_assigns_chunk_offsets() {
        // The staging-aggregation use case: ranks own chunks of sizes
        // 10, 0, 5, 7; offsets must be 0, 10, 10, 15.
        let sizes = [10u64, 0, 5, 7];
        let out = World::run(4, move |c| c.exscan(sizes[c.rank()], 0, |a, b| a + b));
        assert_eq!(out, vec![0, 10, 10, 15]);
    }

    #[test]
    fn collective_gate_fires_at_every_data_moving_entry() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let entries = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&entries);
        let out = World::run(4, move |mut c| {
            let counted = Arc::clone(&counted);
            c.set_collective_gate(Arc::new(move |_op, _rank, _seq| {
                counted.fetch_add(1, Ordering::Relaxed);
            }));
            let s = c.allreduce(1u64, |a, b| a + b); // reduce + bcast: 2 entries
            c.barrier(); // moves no data: no entry
            let g = c.allgather(c.rank() as u64); // gather + allgather: 2 entries
            (s, g)
        });
        for (s, g) in out {
            assert_eq!(s, 4);
            assert_eq!(g, vec![0, 1, 2, 3]);
        }
        // 4 ranks × (allreduce 2 + allgather 2) = 16 entries.
        assert_eq!(entries.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn gate_sequence_numbers_are_deterministic_per_rank() {
        use parking_lot::Mutex;
        use std::sync::Arc;
        let run = || {
            let log = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&log);
            World::run(2, move |mut c| {
                let sink = Arc::clone(&sink);
                c.set_collective_gate(Arc::new(move |op, rank, seq| {
                    sink.lock().push((op, rank, seq));
                }));
                c.allreduce(c.rank() as u64, |a, b| a + b);
                c.allgather(c.rank() as u64);
            });
            let mut entries = log.lock().clone();
            entries.sort_unstable();
            entries
        };
        let a = run();
        assert_eq!(a, run(), "same program, same gate schedule");
        // Per rank: reduce(0) bcast(1) gather(2) allgather(3).
        for rank in 0..2u64 {
            let seqs: Vec<_> = a.iter().filter(|e| e.1 == rank).map(|e| e.2).collect();
            assert_eq!(seqs.len(), 4);
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        let out = World::run(4, |c| {
            let s1 = c.allreduce(1u64, |a, b| a + b);
            let g = c.allgather(c.rank() as u64);
            let s2 = c.allreduce(10u64, |a, b| a + b);
            (s1, g, s2)
        });
        for (s1, g, s2) in out {
            assert_eq!(s1, 4);
            assert_eq!(g, vec![0, 1, 2, 3]);
            assert_eq!(s2, 40);
        }
    }

    /// With no tags, a collective's messages are told apart from the next
    /// one's by order alone. An `exscan` and a `bcast` let senders run
    /// ahead of their receivers, so many rounds queue up between one pair
    /// of ranks; each still lands in its own round.
    #[test]
    fn senders_running_ahead_stay_in_their_own_round() {
        let out = World::run(4, |c| {
            let mut seen = Vec::new();
            for round in 0..200u64 {
                let prefix = c.exscan(round, 0, |a, b| a + b);
                let root = round as usize % c.size();
                let b = c.bcast(root, (c.rank() == root).then_some(round * 1000));
                seen.push((prefix, b));
            }
            seen
        });
        for (rank, seen) in out.into_iter().enumerate() {
            for (round, (prefix, b)) in seen.into_iter().enumerate() {
                assert_eq!(prefix, round as u64 * rank as u64);
                assert_eq!(b, round as u64 * 1000);
            }
        }
    }
}
