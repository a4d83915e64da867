//! Stage-2 aggregation of attached partial results.
//!
//! Before any bulk data moves, each staging rank holds the fetch requests
//! of the compute ranks it serves, each carrying a small `AttrList` from
//! the compute-side pass. `Aggregates::build` makes that knowledge
//! *global*: the per-rank attribute lists are exchanged among all staging
//! ranks (one allgather of a few KB), so every operator can ask for global
//! sums, extrema, and the prefix sums that turn local chunk sizes into
//! global array offsets — the paper's "global array sizes and offsets,
//! prefix sums, and global min/max values".

use std::collections::BTreeMap;

use ffs::{AttrList, Value};
use minimpi::Comm;

/// Globally-aggregated per-rank attributes for one I/O step.
#[derive(Debug, Clone, Default)]
pub struct Aggregates {
    /// compute rank → its attached attributes, for *all* compute ranks.
    per_rank: BTreeMap<usize, AttrList>,
}

impl Aggregates {
    /// Exchange locally-gathered `(compute_rank, attrs)` pairs across the
    /// staging communicator so every rank sees all of them. Collective.
    /// The attribute lists are only read (encoded for the exchange), so
    /// they are borrowed from wherever the caller keeps them.
    pub fn build<'a>(
        local: impl IntoIterator<Item = (usize, &'a AttrList)>,
        comm: &Comm,
    ) -> Aggregates {
        // Encode local pairs: [rank u64][len u32][attr bytes] …, into an
        // exact-sized buffer (encode the attr lists first, then sum).
        let encoded: Vec<(usize, Vec<u8>)> = local
            .into_iter()
            .map(|(rank, attrs)| {
                let bytes = attrs.to_bytes().expect("request attrs fit the budget");
                (rank, bytes)
            })
            .collect();
        let total: usize = encoded.iter().map(|(_, b)| 12 + b.len()).sum();
        let mut buf = Vec::with_capacity(total);
        for (rank, bytes) in &encoded {
            buf.extend_from_slice(&(*rank as u64).to_le_bytes());
            buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            buf.extend_from_slice(bytes);
        }
        let all = comm.allgather(buf);
        let mut per_rank = BTreeMap::new();
        for blob in all {
            let mut pos = 0;
            while pos + 12 <= blob.len() {
                let rank = u64::from_le_bytes(blob[pos..pos + 8].try_into().unwrap()) as usize;
                let len = u32::from_le_bytes(blob[pos + 8..pos + 12].try_into().unwrap()) as usize;
                pos += 12;
                let attrs = AttrList::from_bytes(&blob[pos..pos + len])
                    .expect("peer staging rank encoded attrs");
                pos += len;
                per_rank.insert(rank, attrs);
            }
        }
        Aggregates { per_rank }
    }

    /// Build without a communicator (single staging rank, or tests).
    pub fn local_only(local: &[(usize, AttrList)]) -> Aggregates {
        Aggregates {
            per_rank: local.iter().map(|(r, a)| (*r, a.clone())).collect(),
        }
    }

    fn values_of<'a>(&'a self, key: &'a str) -> impl Iterator<Item = (usize, &'a Value)> + 'a {
        self.per_rank
            .iter()
            .filter_map(move |(r, a)| a.get(key).map(|v| (*r, v)))
    }

    /// Global minimum of a numeric attribute.
    pub(crate) fn min_f64(&self, key: &str) -> Option<f64> {
        self.values_of(key)
            .filter_map(|(_, v)| v.as_f64())
            .fold(None, |m, x| {
                Some(match m {
                    None => x,
                    Some(m) => m.min(x),
                })
            })
    }

    /// Global maximum of a numeric attribute.
    pub(crate) fn max_f64(&self, key: &str) -> Option<f64> {
        self.values_of(key)
            .filter_map(|(_, v)| v.as_f64())
            .fold(None, |m, x| {
                Some(match m {
                    None => x,
                    Some(m) => m.max(x),
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimpi::World;

    /// Sum of an integer attribute over all ranks.
    fn sum_u64(agg: &Aggregates, key: &str) -> u64 {
        agg.values_of(key).filter_map(|(_, v)| v.as_u64()).sum()
    }

    fn attrs(np: u64, lo: f64, hi: f64) -> AttrList {
        let mut a = AttrList::new();
        a.set("np", Value::U64(np));
        a.set("min_x", Value::F64(lo));
        a.set("max_x", Value::F64(hi));
        a
    }

    #[test]
    fn local_queries() {
        let agg = Aggregates::local_only(&[
            (0, attrs(10, -1.0, 2.0)),
            (1, attrs(0, 5.0, 5.0)),
            (2, attrs(7, -3.0, 0.0)),
        ]);
        assert_eq!(agg.per_rank.len(), 3);
        assert_eq!(sum_u64(&agg, "np"), 17);
        assert_eq!(agg.min_f64("min_x"), Some(-3.0));
        assert_eq!(agg.max_f64("max_x"), Some(5.0));
        assert_eq!(agg.min_f64("absent"), None);
    }

    #[test]
    fn build_is_global_across_staging_ranks() {
        // 3 staging ranks, each serving 2 compute ranks.
        let out = World::run(3, |comm| {
            let me = comm.rank();
            let local: Vec<(usize, AttrList)> = (0..2)
                .map(|i| {
                    let cr = me * 2 + i;
                    (cr, attrs(cr as u64 + 1, cr as f64, cr as f64 * 10.0))
                })
                .collect();
            let agg = Aggregates::build(local.iter().map(|(r, a)| (*r, a)), &comm);
            (agg.per_rank.len(), sum_u64(&agg, "np"))
        });
        for (n, total) in out {
            assert_eq!(n, 6);
            assert_eq!(total, 1 + 2 + 3 + 4 + 5 + 6);
        }
    }
}
