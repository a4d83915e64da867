//! Property tests: collective semantics hold for arbitrary inputs and
//! world sizes.

use minimpi::World;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn allgather_matches_input(vals in prop::collection::vec(any::<u32>(), 1..9)) {
        let n = vals.len();
        let vals2 = vals.clone();
        let out = World::run(n, move |c| c.allgather(vals2[c.rank()]));
        for row in out {
            prop_assert_eq!(&row, &vals);
        }
    }

    #[test]
    fn alltoall_transposes_ragged_buckets(matrix in prop::collection::vec(
        prop::collection::vec(prop::collection::vec(any::<u16>(), 0..6), 4..5), 4..5)
    ) {
        // 4 ranks, each with 4 outgoing buckets.
        let m = matrix.clone();
        let out = World::run(4, move |c| c.alltoall(m[c.rank()].clone()));
        // out[dst][src] must equal matrix[src][dst]
        for (dst, row) in out.iter().enumerate() {
            for (src, bucket) in row.iter().enumerate() {
                prop_assert_eq!(bucket, &matrix[src][dst]);
            }
        }
    }
}
