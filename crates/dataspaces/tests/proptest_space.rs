//! Property tests: the shared space behaves like an idealized global
//! array under arbitrary tilings, and queries agree with naive
//! evaluation.

use std::time::Duration;

use bpio::DataArray;
use dataspaces::{DataSpaces, DsConfig, Reduction, Region};
use proptest::prelude::*;

const DOM: [u64; 2] = [48, 24];

fn ramp(region: &Region) -> DataArray {
    let mut v = Vec::with_capacity(region.volume() as usize);
    for i in 0..region.extent[0] {
        for j in 0..region.extent[1] {
            v.push(((region.corner[0] + i) * DOM[1] + region.corner[1] + j) as f64);
        }
    }
    DataArray::F64(v)
}

fn arb_region() -> impl Strategy<Value = Region> {
    (0..DOM[0], 0..DOM[1]).prop_flat_map(|(ci, cj)| {
        (1..=DOM[0] - ci, 1..=DOM[1] - cj)
            .prop_map(move |(ei, ej)| Region::new(vec![ci, cj], vec![ei, ej]))
    })
}

fn arb_block() -> impl Strategy<Value = Vec<u64>> {
    (1u64..=16, 1u64..=16).prop_map(|(a, b)| vec![a, b])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever block size and shard count, a whole-domain put followed
    /// by any get returns exactly the stored values.
    #[test]
    fn put_whole_get_any(block in arb_block(), shards in 1usize..9, q in arb_region()) {
        let ds = DataSpaces::new(DsConfig::new(DOM.to_vec(), block, shards));
        let whole = Region::whole(&DOM);
        ds.put("f", 0, &whole, ramp(&whole)).unwrap();
        ds.commit("f", 0);
        let got = ds.get("f", 0, &q, Duration::from_secs(5)).unwrap();
        prop_assert_eq!(got, ramp(&q));
    }

    /// Arbitrary (possibly overlapping) puts that jointly cover a query
    /// region reconstruct it; last-write order is irrelevant here because
    /// every put writes position-determined values.
    #[test]
    fn tiled_puts_reconstruct(
        block in arb_block(),
        tiles in prop::collection::vec(arb_region(), 1..8),
    ) {
        let ds = DataSpaces::new(DsConfig::new(DOM.to_vec(), block, 4));
        for t in &tiles {
            ds.put("f", 0, t, ramp(t)).unwrap();
        }
        ds.commit("f", 0);
        // Query each tile back: fully covered by construction.
        for t in &tiles {
            let got = ds.get("f", 0, t, Duration::from_secs(5)).unwrap();
            prop_assert_eq!(got, ramp(t));
        }
    }

    /// Holes are always detected: a get strictly larger than the single
    /// put region must error (never return fabricated data).
    #[test]
    fn holes_detected(block in arb_block(), r in arb_region()) {
        prop_assume!(r.extent[0] < DOM[0] || r.extent[1] < DOM[1]);
        let ds = DataSpaces::new(DsConfig::new(DOM.to_vec(), block, 4));
        ds.put("f", 0, &r, ramp(&r)).unwrap();
        ds.commit("f", 0);
        let whole = Region::whole(&DOM);
        prop_assert!(ds.get("f", 0, &whole, Duration::from_secs(5)).is_err());
    }

    /// Reduction queries agree with a naive scan of the same region.
    #[test]
    fn reductions_match_naive(block in arb_block(), q in arb_region()) {
        let ds = DataSpaces::new(DsConfig::new(DOM.to_vec(), block, 4));
        let whole = Region::whole(&DOM);
        ds.put("f", 0, &whole, ramp(&whole)).unwrap();
        ds.commit("f", 0);
        let vals = match ramp(&q) { DataArray::F64(v) => v, _ => unreachable!() };
        let naive_min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let naive_max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let naive_sum: f64 = vals.iter().sum();
        let t = Duration::from_secs(5);
        prop_assert_eq!(ds.reduce("f", 0, &q, Reduction::Min, t).unwrap(), naive_min);
        prop_assert_eq!(ds.reduce("f", 0, &q, Reduction::Max, t).unwrap(), naive_max);
        prop_assert!((ds.reduce("f", 0, &q, Reduction::Sum, t).unwrap() - naive_sum).abs()
            < 1e-6 * naive_sum.abs().max(1.0));
        prop_assert_eq!(
            ds.reduce("f", 0, &q, Reduction::Count, t).unwrap() as u64,
            q.volume()
        );
    }
}
