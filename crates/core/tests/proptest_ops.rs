//! Property tests: every operator's pipeline output matches a naive
//! serial computation over the same randomly-generated particle dumps,
//! for arbitrary pipeline widths and chunk distributions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ffs::{AttrList, Value};
use minimpi::World;
use predata_core::agg::Aggregates;
use predata_core::op::{complete_pipeline, OpCtx, StreamOp};
use predata_core::ops::{HistogramOp, SortOp};
use predata_core::schema::{make_particle_pg, particle_key, PARTICLE_WIDTH};
use predata_core::PackedChunk;
use proptest::prelude::*;

/// A generated dump: per-chunk particle rows (n × 8 each).
#[derive(Debug, Clone)]
struct Dump {
    chunks: Vec<Vec<f64>>,
}

impl Dump {
    fn all_rows(&self) -> Vec<[f64; PARTICLE_WIDTH]> {
        self.chunks
            .iter()
            .flat_map(|c| {
                c.chunks_exact(PARTICLE_WIDTH)
                    .map(|r| r.try_into().unwrap())
            })
            .collect()
    }
}

fn arb_dump(max_chunks: usize, max_rows: usize) -> impl Strategy<Value = Dump> {
    prop::collection::vec(
        prop::collection::vec(
            (
                -10.0f64..10.0,
                -10.0f64..10.0,
                -1.0f64..1.0,
                -5.0f64..5.0,
                0.0f64..5.0,
                0.5f64..1.5,
                0u32..16,
                0u32..1000,
            ),
            0..max_rows,
        ),
        1..=max_chunks,
    )
    .prop_map(|chunks| Dump {
        chunks: chunks
            .into_iter()
            .map(|rows| {
                rows.into_iter()
                    .flat_map(|(x, y, z, vp, vq, w, r, id)| {
                        vec![x, y, z, vp, vq, w, r as f64, id as f64]
                    })
                    .collect()
            })
            .collect(),
    })
}

/// Distribute the dump's chunks round-robin over `n` pipeline ranks and
/// run `make_op()` through the full pipeline on each; collect results.
fn run_pipeline<T, F, G>(dump: &Dump, n_ranks: usize, make_op: F, extract: G) -> Vec<T>
where
    T: Send + 'static,
    F: Fn() -> Box<dyn StreamOp> + Send + Sync + 'static,
    G: Fn(&predata_core::OpResult, &OpCtx) -> T + Send + Sync + 'static,
{
    // One scratch directory per call: the property tests run on
    // parallel threads of one process and each removes its directory.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dump = Arc::new(dump.clone());
    let make_op = Arc::new(make_op);
    let extract = Arc::new(extract);
    World::run(n_ranks, move |comm| {
        let mut op = make_op();
        let dir = std::env::temp_dir().join(format!(
            "prop-ops-{}-{call}-{}",
            std::process::id(),
            comm.rank()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // Aggregates: min/max over the whole dump, plus per-rank np.
        let mut attrs = AttrList::new();
        for (c, name) in predata_core::schema::PARTICLE_ATTRS.iter().enumerate() {
            let vals: Vec<f64> = dump.all_rows().iter().map(|r| r[c]).collect();
            if !vals.is_empty() {
                let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                attrs.set(format!("min_{name}"), Value::F64(lo));
                attrs.set(format!("max_{name}"), Value::F64(hi));
            }
        }
        attrs.set("np", Value::U64(dump.all_rows().len() as u64));
        let agg = Aggregates::local_only(&[(0, attrs)]);
        let ctx = OpCtx {
            comm: &comm,
            out_dir: &dir,
            step: 0,
            n_compute: 16,
            agg: Some(&agg),
        };
        op.initialize(&agg, &ctx);
        let mut mapped = Vec::new();
        for (i, rows) in dump.chunks.iter().enumerate() {
            if i % comm.size() == comm.rank() {
                let chunk = PackedChunk::new(make_particle_pg(i as u64, 0, rows.clone()));
                mapped.extend(op.map(&chunk, &ctx));
            }
        }
        let res = complete_pipeline(op.as_mut(), mapped, &ctx);
        let out = extract(&res, &ctx);
        std::fs::remove_dir_all(&dir).ok();
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Histogram totals equal the particle count and match a naive
    /// binning, for any pipeline width.
    #[test]
    fn histogram_matches_naive(dump in arb_dump(6, 40), n_ranks in 1usize..5) {
        let rows = dump.all_rows();
        prop_assume!(!rows.is_empty());
        let lo = rows.iter().map(|r| r[0]).fold(f64::INFINITY, f64::min);
        let hi = rows.iter().map(|r| r[0]).fold(f64::NEG_INFINITY, f64::max);
        let bins = 8usize;
        let mut naive = vec![0u64; bins];
        for r in &rows {
            let b = if hi <= lo {
                0
            } else {
                (((r[0] - lo) / (hi - lo) * bins as f64) as usize).min(bins - 1)
            };
            naive[b] += 1;
        }
        let outs = run_pipeline(
            &dump,
            n_ranks,
            move || Box::new(HistogramOp::new(vec![0], 8)),
            |res, _| res.values.get("hist_x").cloned(),
        );
        let got: Vec<Vec<u64>> = outs
            .into_iter()
            .flatten()
            .filter_map(|v| match v { Value::ArrU64(b) => Some(b), _ => None })
            .collect();
        prop_assert_eq!(got.len(), 1, "exactly one rank owns the histogram");
        prop_assert_eq!(&got[0], &naive);
    }

    /// Sort produces a permutation of the input in global key order.
    #[test]
    fn sort_is_ordered_permutation(dump in arb_dump(5, 30), n_ranks in 1usize..4) {
        let rows = dump.all_rows();
        let mut expect: Vec<u64> = rows.iter().map(|r| particle_key(r)).collect();
        expect.sort_unstable();
        let slices = run_pipeline(
            &dump,
            n_ranks,
            || Box::new(SortOp::new()),
            |res, ctx| {
                let Some(path) = res.files.first() else {
                    return (0u64, Vec::new());
                };
                let mut r = bpio::BpReader::open(path).unwrap();
                let off = r
                    .read_local("offset", 0, ctx.my_rank() as u64)
                    .unwrap()
                    .as_u64()
                    .unwrap()[0];
                let idx = r.index().chunks_of("particles", 0)[0].clone();
                let data =
                    r.read_box("particles", 0, &idx.offset_in_global, &idx.local).unwrap();
                let keys: Vec<u64> = data
                    .as_f64()
                    .unwrap()
                    .chunks_exact(PARTICLE_WIDTH)
                    .map(particle_key)
                    .collect();
                (off, keys)
            },
        );
        let mut slices = slices;
        slices.sort_by_key(|(o, _)| *o);
        let got: Vec<u64> = slices.into_iter().flat_map(|(_, k)| k).collect();
        prop_assert_eq!(got, expect);
    }
}
