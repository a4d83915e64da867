//! What the operators share: the bin formula, the global-range look-up,
//! the compute-side particle statistics, and the one writer every
//! `finalize` hands its output to.

use std::fmt::Display;
use std::path::PathBuf;

use ffs::{AttrList, Value};

use crate::agg::Aggregates;
use crate::op::{OpCtx, OpResult};
use crate::schema::{particles_of, PARTICLE_ATTRS, PARTICLE_WIDTH};

/// Which of the `bins` equal cuts of `[lo, hi]` holds `v`. Values outside
/// the range land in the nearest end bin, NaN in bin 0, and a range with
/// no width has only bin 0.
///
/// The cut is taken through a signed cast: `as i64` saturates and sends
/// NaN to 0 as `as usize` does, and the clamp puts negatives in bin 0,
/// where `as usize` put them — the same bin for every input, but one
/// conversion instruction where the unsigned one needs a branch.
/// `#[inline]` because the callers' row loops are generic: they are
/// compiled in whichever crate names `HistogramOp`, a crate away from
/// this body.
#[inline]
pub(crate) fn bin_index(lo: f64, hi: f64, bins: usize, v: f64) -> usize {
    if hi <= lo {
        return 0;
    }
    (((v - lo) / (hi - lo) * bins as f64) as i64).clamp(0, bins as i64 - 1) as usize
}

/// Global (min, max) of particle attribute `column`, from what
/// [`attach_particle_stats`] attached on the compute ranks; `(0, 1)`
/// where no rank reported one.
pub(crate) fn global_range(agg: &Aggregates, column: usize) -> (f64, f64) {
    let name = PARTICLE_ATTRS[column];
    (
        agg.min_f64(&format!("min_{name}")).unwrap_or(0.0),
        agg.max_f64(&format!("max_{name}")).unwrap_or(1.0),
    )
}

/// The compute-side pass of every operator that needs global ranges:
/// attach the local particle count (`np`) and per-attribute
/// `min_{name}` / `max_{name}`.
///
/// One row-major pass with eight running (min, max) lanes, updated by
/// strict compares: `lo = if x < lo { x } else { lo }`. A lane starts at
/// ±∞ and a strict compare never stores a NaN, so the lane is never NaN,
/// and for a non-NaN `lo` that update is exactly `lo.min(x)`: a NaN `x`
/// compares false and is dropped, and a ±0 tie keeps the lane, i.e. the
/// first-seen zero. The attached bits are therefore those of a
/// column-at-a-time `f64::min`/`max` scan. The compares matter for speed:
/// `f64::min` must also handle a NaN in its first operand, which costs a
/// fix-up on every element, while this form compiles to one bare
/// `minpd`/`maxpd` per two lanes.
pub fn attach_particle_stats(pg: &bpio::ProcessGroup, out: &mut AttrList) {
    let Some(rows) = particles_of(pg) else { return };
    out.set("np", Value::U64((rows.len() / PARTICLE_WIDTH) as u64));
    let mut lo = [f64::INFINITY; PARTICLE_WIDTH];
    let mut hi = [f64::NEG_INFINITY; PARTICLE_WIDTH];
    for row in rows.chunks_exact(PARTICLE_WIDTH) {
        for c in 0..PARTICLE_WIDTH {
            lo[c] = if row[c] < lo[c] { row[c] } else { lo[c] };
            hi[c] = if row[c] > hi[c] { row[c] } else { hi[c] };
        }
    }
    for (c, name) in PARTICLE_ATTRS.iter().enumerate() {
        if lo[c] <= hi[c] {
            out.set(format!("min_{name}"), Value::F64(lo[c]));
            out.set(format!("max_{name}"), Value::F64(hi[c]));
        }
    }
}

/// Write `pg` as the one process group of a new BP file at `path`, under
/// the given footer annotations, and list the file in `result.files`.
pub(crate) fn write_output(
    ctx: &OpCtx,
    result: &mut OpResult,
    path: PathBuf,
    annotations: &[(&str, &str)],
    pg: &bpio::ProcessGroup,
) {
    let written = bpio::BpWriter::create(&path).and_then(|mut w| {
        for (name, value) in annotations {
            w.annotate(*name, *value);
        }
        append_pg(ctx.comm.obs(), &mut w, pg)?;
        w.finish().map(drop)
    });
    record_output(ctx, result, path, written);
}

/// `w.append_pg(pg)`, recorded in `obs`: the `write` row and
/// `bpio.bytes_written`. The row is rank- and chunk-less — `writer_rank`
/// is a staging rank for a merged output and a compute rank for an
/// in-compute one.
pub(crate) fn append_pg(
    obs: &obs::Registry,
    w: &mut bpio::BpWriter,
    pg: &bpio::ProcessGroup,
) -> bpio::Result<()> {
    let span = obs::span_in(obs, "write", pg.step);
    let before = w.bytes_written();
    w.append_pg(pg)?;
    let block = w.bytes_written() - before;
    drop(span.bytes(block));
    obs.counter("bpio.bytes_written", &[]).add(block);
    Ok(())
}

/// List `path` in `result.files` if it was written. If it was not, the
/// step still completes — the operator's values and its peers' files are
/// good — so the loss is reported, not raised: the path stays out of
/// `files`, `staging.output_errors{op}` ticks and one warning says why.
pub(crate) fn record_output(
    ctx: &OpCtx,
    result: &mut OpResult,
    path: PathBuf,
    written: Result<(), impl Display>,
) {
    match written {
        Ok(()) => result.files.push(path),
        Err(e) => {
            let op = result.op.as_str();
            ctx.comm
                .obs()
                .counter("staging.output_errors", &[("op", op)])
                .inc();
            eprintln!(
                "warning: op '{op}' could not write {}: {e}; the step goes on without it",
                path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::PackedChunk;
    use crate::op::{complete_pipeline, OpCtx, StreamOp};
    use crate::ops::{BitmapIndexOp, HistogramOp, SortOp};
    use crate::schema::make_particle_pg;
    use minimpi::World;
    use proptest::prelude::*;

    /// The eight-pass reference: one strided pass per attribute.
    fn stats_by_column(rows: &[f64], out: &mut AttrList) {
        out.set("np", Value::U64((rows.len() / PARTICLE_WIDTH) as u64));
        for (c, name) in PARTICLE_ATTRS.iter().enumerate() {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for v in rows.chunks_exact(PARTICLE_WIDTH).map(|r| r[c]) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if lo <= hi {
                out.set(format!("min_{name}"), Value::F64(lo));
                out.set(format!("max_{name}"), Value::F64(hi));
            }
        }
    }

    #[test]
    fn particle_stats_match_the_per_column_passes() {
        const NAN: f64 = f64::NAN;
        let chunks: [Vec<f64>; 5] = [
            vec![],
            vec![3.0, -0.0, NAN, 1e300, -1e-300, 0.0, 2.0, 7.0],
            // A NaN first, last and alone in a column; -0.0 against 0.0.
            [
                [NAN, 1.0, NAN, -0.0, 0.0, 5.0, 0.0, 0.0],
                [2.0, NAN, NAN, 0.0, -0.0, 5.0, 1.0, 1.0],
                [-2.0, 3.0, NAN, -0.0, 0.0, NAN, 1.0, 2.0],
            ]
            .concat(),
            vec![NAN; 8],
            (0..800).map(|i| ((i * 37) % 101) as f64 - 50.0).collect(),
        ];
        for rows in chunks {
            let (mut got, mut expect) = (AttrList::new(), AttrList::new());
            attach_particle_stats(&make_particle_pg(0, 0, rows.clone()), &mut got);
            stats_by_column(&rows, &mut expect);
            // Encoded form: same keys in the same order, values to the bit.
            assert_eq!(got.to_bytes().unwrap(), expect.to_bytes().unwrap());
        }
    }

    /// The attached `min_{name}` / `max_{name}` of every column, as bits,
    /// where the pass attached them.
    fn attached_bits(rows: Vec<f64>) -> Vec<(Option<u64>, Option<u64>)> {
        let mut got = AttrList::new();
        attach_particle_stats(&make_particle_pg(0, 0, rows), &mut got);
        let bits = |key: String| match got.get(&key) {
            Some(Value::F64(v)) => Some(v.to_bits()),
            _ => None,
        };
        PARTICLE_ATTRS
            .iter()
            .map(|name| (bits(format!("min_{name}")), bits(format!("max_{name}"))))
            .collect()
    }

    /// A ±0 tie keeps the first-seen zero, for `min_*` and `max_*` alike,
    /// whatever rows of NaN come between — pinned here on its own, since
    /// `f64::min(0.0, -0.0)` is documented as either zero.
    #[test]
    fn particle_stats_signed_zero_ties() {
        const NAN: f64 = f64::NAN;
        for (first, second) in [(0.0f64, -0.0f64), (-0.0, 0.0)] {
            let chunks = [
                vec![first, second],
                vec![first, NAN, second],
                vec![NAN, first, NAN, second, NAN],
            ];
            for column_values in chunks {
                let rows = column_values
                    .iter()
                    .flat_map(|&v| [v; PARTICLE_WIDTH])
                    .collect();
                let want = Some(first.to_bits());
                assert_eq!(
                    attached_bits(rows),
                    vec![(want, want); PARTICLE_WIDTH],
                    "first seen {first:?}, then {column_values:?}"
                );
            }
        }
    }

    /// The in-order scalar reference of the fold: per column, a value
    /// replaces the running extreme only if it compares strictly past it.
    fn stats_by_strict_compares(rows: &[f64], out: &mut AttrList) {
        out.set("np", Value::U64((rows.len() / PARTICLE_WIDTH) as u64));
        for (c, name) in PARTICLE_ATTRS.iter().enumerate() {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for row in rows.chunks_exact(PARTICLE_WIDTH) {
                if row[c] < lo {
                    lo = row[c];
                }
                if row[c] > hi {
                    hi = row[c];
                }
            }
            if lo <= hi {
                out.set(format!("min_{name}"), Value::F64(lo));
                out.set(format!("max_{name}"), Value::F64(hi));
            }
        }
    }

    /// Chunks of 0–33 rows and of 16 384 (a GTC dump's), drawn from NaN,
    /// ±∞, ±0, subnormals and ordinary values.
    fn arb_particle_rows() -> impl Strategy<Value = Vec<f64>> {
        let n = prop_oneof![0usize..=33, Just(16_384)];
        let v = || {
            prop_oneof![
                prop::sample::select(vec![
                    f64::NAN,
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::from_bits(1),
                    -f64::from_bits(1),
                    f64::MIN_POSITIVE / 3.0,
                    -f64::MIN_POSITIVE / 3.0,
                ]),
                -1e3f64..1e3,
            ]
        };
        n.prop_flat_map(move |n| prop::collection::vec(v(), n * PARTICLE_WIDTH))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn particle_stats_fold_is_both_references(rows in arb_particle_rows()) {
            let mut got = AttrList::new();
            attach_particle_stats(&make_particle_pg(0, 0, rows.clone()), &mut got);
            let (mut by_column, mut by_compares) = (AttrList::new(), AttrList::new());
            stats_by_column(&rows, &mut by_column);
            stats_by_strict_compares(&rows, &mut by_compares);
            let got = got.to_bytes().unwrap();
            prop_assert_eq!(&got, &by_column.to_bytes().unwrap());
            prop_assert_eq!(&got, &by_compares.to_bytes().unwrap());
        }

        /// The signed-cast bin is the unsigned cast's, `⌊x⌋ as usize`
        /// capped at the top bin, for every value, range and bin count.
        #[test]
        fn signed_cast_bin_index_is_the_unsigned_one(
            v in odd_or_plain(),
            lo in odd_or_plain(),
            hi in odd_or_plain(),
            bins in prop_oneof![1usize..=1024, Just(1usize), Just(1024usize)],
        ) {
            let unsigned = if hi <= lo {
                0
            } else {
                (((v - lo) / (hi - lo) * bins as f64) as usize).min(bins - 1)
            };
            prop_assert_eq!(bin_index(lo, hi, bins, v), unsigned);
            prop_assert_eq!(bin_index(lo, lo, bins, v), 0);
        }
    }

    /// NaN, ±∞, ±0, subnormals, huge and tiny magnitudes, and plain values
    /// on either side of 0.
    fn odd_or_plain() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop::sample::select(vec![
                f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::from_bits(1),
                -f64::from_bits(1),
                f64::MAX,
                f64::MIN,
                1e300,
                -1e300,
                9.3e18,
                1.9e19,
                1.0,
            ]),
            -1e3f64..1e3,
            -1e20f64..1e20,
        ]
    }

    /// A regular file where the output directory should be: every create
    /// under it fails.
    fn broken_out_dir(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("kit-{tag}-{}", std::process::id()));
        std::fs::write(&path, b"not a directory").unwrap();
        path
    }

    /// Run `make_op()` on `out_dirs.len()` ranks, one four-row chunk each,
    /// rank `r` writing under `out_dirs[r]`; each rank's result, and the
    /// `staging.output_errors` of the operator, from the ranks' registry.
    fn run_with_out_dirs(
        make_op: fn() -> Box<dyn StreamOp>,
        out_dirs: Vec<PathBuf>,
    ) -> (Vec<OpResult>, u64) {
        let obs = obs::Registry::new();
        let ranks = obs.clone();
        let results = World::run(out_dirs.len(), move |mut comm| {
            comm.set_obs(ranks.clone());
            let mut op = make_op();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &out_dirs[comm.rank()],
                step: 0,
                n_compute: comm.size(),
                agg: None,
            };
            op.initialize(&Aggregates::local_only(&[]), &ctx);
            let rows = (0..4).flat_map(|i| [0.25 * i as f64, 0., 0., 0., 0., 0., 0., i as f64]);
            let chunk = PackedChunk::new(make_particle_pg(comm.rank() as u64, 0, rows.collect()));
            let mapped = op.map(&chunk, &ctx);
            complete_pipeline(op.as_mut(), mapped, &ctx)
        });
        let labels = [("op", results[0].op.as_str())];
        let errors = obs.counter("staging.output_errors", &labels).get();
        (results, errors)
    }

    #[test]
    fn a_bp_output_that_cannot_be_written_is_counted_not_raised() {
        let dir = broken_out_dir("bp");
        let (results, errors) =
            run_with_out_dirs(|| Box::new(HistogramOp::new(vec![0], 4)), vec![dir.clone()]);
        assert!(results[0].files.is_empty());
        assert_eq!(
            results[0].values.get("hist_x"),
            Some(&Value::ArrU64(vec![1, 1, 1, 1]))
        );
        assert_eq!(errors, 1);
        std::fs::remove_file(dir).unwrap();
    }

    #[test]
    fn an_index_blob_that_cannot_be_written_is_counted_not_raised() {
        let dir = broken_out_dir("idx");
        let (results, errors) =
            run_with_out_dirs(|| Box::new(BitmapIndexOp::new(0, 4)), vec![dir.clone()]);
        assert!(results[0].files.is_empty());
        assert_eq!(results[0].values.get_u64("indexed_chunks"), Some(1));
        assert_eq!(results[0].values.get_u64("indexed_rows"), Some(4));
        assert!(results[0].values.get_u64("index_bytes").is_some());
        assert_eq!(errors, 1);
        std::fs::remove_file(dir).unwrap();
    }

    /// Only rank 1's directory is broken: `SortOp::finalize` takes its
    /// offsets from the counts the exchange delivered, so neither rank
    /// waits on the other around the write.
    #[test]
    fn one_rank_s_broken_directory_strands_no_peer() {
        let broken = broken_out_dir("sort");
        let good = std::env::temp_dir().join(format!("kit-sort-ok-{}", std::process::id()));
        std::fs::create_dir_all(&good).unwrap();
        let dirs = vec![good.clone(), broken.clone()];
        let (results, errors) = run_with_out_dirs(|| Box::new(SortOp::new()), dirs);
        assert_eq!(results[0].files.len(), 1);
        assert!(results[1].files.is_empty());
        for r in &results {
            assert_eq!(r.values.get_u64("np_total"), Some(8));
            assert!(
                r.values.get_u64("np_sorted").is_some() && r.values.get_u64("offset").is_some()
            );
        }
        assert_eq!(errors, 1);
        std::fs::remove_file(broken).unwrap();
        std::fs::remove_dir_all(good).unwrap();
    }
}
