//! Global particle sort by the (rank, id) label (GTC task 1).
//!
//! Particles migrate between processes as the simulation runs, so each
//! dump's two particle arrays are out of label order. Tracking a particle
//! across hundreds of 260 GB files needs label-sorted data. The operation
//! is communication-intensive — an all-to-all key-range exchange — with
//! minimal computation, the profile that makes its *placement* the
//! interesting question of paper Fig. 7(a)/(d).
//!
//! Pipeline: `map` range-partitions rows by sort key — one bucket per
//! (destination rank, label range) — and sends every rank the chunk's
//! row count per destination; the shuffle moves each bucket to its
//! owner; `reduce`, called in ascending tag order, first sums the
//! counts (this rank's share and every offset follow from them), then
//! sorts one label range at a time onto the end of the output; and
//! `finalize` writes each rank's slice of the global sorted array as one
//! contiguous BP chunk, entering no collective.

use std::sync::Arc;

use bytes::Bytes;
use ffs::Value;

use crate::agg::Aggregates;
use crate::chunk::PackedChunk;
use crate::op::{ChunkMapper, ComputeSideOp, MapCtx, OpCtx, OpResult, StageRows, StreamOp, Tagged};
use crate::schema::{label_key, particle_key, COL_ID, COL_RANK, PARTICLE_WIDTH};

/// Bytes of one particle row on the wire (eight little-endian f64).
const ROW_BYTES: usize = 8 * PARTICLE_WIDTH;

/// Attribute `col` of a wire-format row.
fn le_f64(row: &[u8], col: usize) -> f64 {
    f64::from_le_bytes(row[8 * col..8 * col + 8].try_into().expect("8-byte window"))
}

/// Global sort of particle rows by label key.
pub struct SortOp {
    /// Number of compute ranks (key-space upper bound), from `initialize`.
    n_compute_hint: u64,
    /// Rows received for this rank's key range, sorted in `reduce`.
    /// `finalize` lends it to the output process group and, where
    /// [`keeps_buffers`], takes it back empty, so a warm step allocates no
    /// output.
    sorted: Vec<f64>,
    /// Rows bound for each pipeline rank this step, summed from every
    /// mapped chunk's counts by `reduce`: this rank's share, its offset
    /// and the total.
    dest_rows: Vec<u64>,
    /// `reduce`'s `(key, blob, row)` triples and the radix sort's second
    /// vector, kept for their capacity where [`keeps_buffers`].
    slots: [Vec<Slot>; 2],
}

impl SortOp {
    pub fn new() -> Self {
        SortOp {
            n_compute_hint: 1,
            sorted: Vec::new(),
            dest_rows: Vec::new(),
            slots: [Vec::new(), Vec::new()],
        }
    }
}

/// Whether the operator's buffers outlive the step: only on a staging
/// partition, which has fewer ranks than there are compute ranks. There
/// a rank sorts several compute ranks' rows, a buffer of megabytes that
/// the allocator would map, and fault in, afresh every step, and the
/// node's memory is the operators'. Where the pipeline runs on the
/// compute ranks themselves, a rank's share is small enough to come from
/// memory the allocator already holds, and a kept buffer only takes
/// memory from the simulation: eight ranks keeping theirs raised the
/// in-compute GTC benchmark's peak RSS by 13 % and bought no speed.
fn keeps_buffers(ctx: &OpCtx) -> bool {
    ctx.n_ranks() < ctx.n_compute
}

/// A row's place in `reduce`'s input: its sort key, then the blob and
/// the row within it that hold it.
type Slot = (u64, u32, u32);

/// Bits per radix digit: four digits span a `u64` key.
const DIGIT_BITS: u32 = 16;

/// Stable sort of `slots` by key: an LSD radix sort over the 16-bit
/// digits that differ somewhere among the keys, ping-ponging between
/// `slots` and `spare` and leaving the result in `slots`. A digit every
/// key shares orders nothing, so it costs no pass — within one GTC label
/// range the keys vary in bits 0–13 (id) only, which leaves one pass of
/// four. A pass buckets by the digit's varying bits alone (the rest are
/// the same in every key, so the order is the digit's): 2^14 buckets for
/// the id pass, where the whole digit would need 2^16.
fn radix_sort_by_key(slots: &mut Vec<Slot>, spare: &mut Vec<Slot>) {
    let Some(&(first, ..)) = slots.first() else {
        return;
    };
    let varying = slots.iter().fold(0, |acc, &(key, ..)| acc | (key ^ first));
    let digit_mask = (1u64 << DIGIT_BITS) - 1;
    // Exact growth, as for every buffer `SortOp` keeps (see `reduce`).
    spare.reserve_exact(slots.len().saturating_sub(spare.len()));
    for shift in (0..u64::BITS).step_by(DIGIT_BITS as usize) {
        let bits = (varying >> shift) & digit_mask;
        if bits == 0 {
            continue;
        }
        let bucket = |key: u64| ((key >> shift) & bits) as usize;
        let mut starts = vec![0usize; bits as usize + 1];
        for &(key, ..) in slots.iter() {
            starts[bucket(key)] += 1;
        }
        let mut next = 0;
        for start in &mut starts {
            (*start, next) = (next, next + *start);
        }
        spare.resize(slots.len(), (0, 0, 0));
        for &slot in slots.iter() {
            let b = bucket(slot.0);
            spare[starts[b]] = slot;
            starts[b] += 1;
        }
        std::mem::swap(slots, spare);
    }
}

/// Pipeline rank for a sort key: an equal split of the `n_compute << 32`
/// key space over `n_ranks`, keys at or above it going to the last rank.
/// `⌊k·n / (c·2³²)⌋` without a wide division, as `⌊⌊k·n / 2³²⌋ / c⌋`
/// (the same integer, since `⌊⌊a / b⌋ / c⌋ = ⌊a / (b·c)⌋`). While
/// `n_compute · n_ranks ≤ 2³²`, which [`SortMapper::map_chunk`] asserts,
/// `k·n` fits `u64` and `⌊k·n / 2³²⌋ < c·n` fits `u32`, so the division
/// is a 32-bit one, which took ≈ 30 % off the sort's map of a 1 MiB
/// chunk against the same division in 64 bits on a 2-vCPU x86-64 Xeon.
fn bucket_of(key: u64, n_compute_hint: u64, n_ranks: usize) -> usize {
    let key_max = n_compute_hint << 32;
    let fine = (key.min(key_max - 1) * n_ranks as u64) >> 32;
    (fine as u32 / n_compute_hint as u32) as usize
}

/// Label range of a sort key: its label's rank (`key >> 32`), with every
/// key at or above the `n_compute << 32` bound in one range, `n_compute`.
/// Ascending with the key, like [`bucket_of`], so equal keys share both.
fn label_range(key: u64, n_compute_hint: u64) -> u64 {
    (key >> 32).min(n_compute_hint)
}

/// Tag of one chunk's row counts sent to `dest`: `dest`'s lowest tag, so
/// its `reduce` sums every count before the first row arrives.
fn counts_tag(dest: usize) -> u64 {
    (dest as u64) << 32
}

/// Tag of the rows of label range `label` bound for `dest`: above
/// `dest`'s counts, ascending with the range.
fn rows_tag(dest: usize, label: u64) -> u64 {
    counts_tag(dest) | (label + 1)
}

/// Per-chunk range-partitioning half of [`SortOp`]: snapshots the
/// key-space bound frozen by `initialize`.
struct SortMapper {
    n_compute_hint: u64,
}

impl ChunkMapper for SortMapper {
    fn map_chunk(&self, chunk: &PackedChunk, ctx: &MapCtx) -> Vec<Tagged> {
        let Some(particles) = chunk.pg.var("particles").map(|v| &v.data) else {
            return Vec::new();
        };
        let Some(rows) = particles.as_f64() else {
            return Vec::new();
        };
        // No row: nothing to route, and no count to send.
        if rows.len() < PARTICLE_WIDTH {
            return Vec::new();
        }
        let n_ranks = ctx.n_ranks();
        let n_compute = self.n_compute_hint;
        assert!(
            n_compute <= u32::MAX as u64 && n_compute * n_ranks as u64 <= 1 << 32,
            "bucket_of's product fits u64 and its quotient's operands u32"
        );
        // Buckets are (destination, label range) pairs, row-major.
        let n_labels = n_compute as usize + 1;
        // Key pass: each row's bucket, computed once, and the row count
        // per bucket — one exact reservation each, no doubling growth
        // while rows stream in.
        let mut row_counts = vec![0usize; n_ranks * n_labels];
        let of_row: Vec<u32> = rows
            .chunks_exact(PARTICLE_WIDTH)
            .map(|row| {
                let key = particle_key(row);
                let b = bucket_of(key, n_compute, n_ranks) * n_labels
                    + label_range(key, n_compute) as usize;
                row_counts[b] += 1;
                b as u32
            })
            .collect();
        // A row moves as one slice of the array's little-endian view.
        let mut buckets: Vec<Vec<u8>> = row_counts
            .iter()
            .map(|&n| Vec::with_capacity(n * ROW_BYTES))
            .collect();
        let le = particles.as_le_bytes();
        for (row, &b) in le.chunks_exact(ROW_BYTES).zip(&of_row) {
            buckets[b as usize].extend_from_slice(row);
        }
        // Every rank gets the rows per destination: one shared buffer.
        let counts: Bytes = row_counts
            .chunks_exact(n_labels)
            .flat_map(|dest| (dest.iter().sum::<usize>() as u64).to_le_bytes())
            .collect::<Vec<u8>>()
            .into();
        let mut out: Vec<Tagged> = (0..n_ranks)
            .map(|dest| Tagged {
                tag: counts_tag(dest),
                bytes: counts.clone(),
            })
            .collect();
        out.extend(
            buckets
                .into_iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty())
                .map(|(i, b)| Tagged::new(rows_tag(i / n_labels, (i % n_labels) as u64), b)),
        );
        out
    }
}

impl Default for SortOp {
    fn default() -> Self {
        Self::new()
    }
}

impl ComputeSideOp for SortOp {
    fn partial_calculate(&self, pg: &bpio::ProcessGroup, out: &mut ffs::AttrList) {
        if let Some(np) = crate::schema::particle_count(pg) {
            out.set("np", Value::U64(np));
        }
    }
}

impl StreamOp for SortOp {
    fn name(&self) -> &str {
        "sort"
    }

    fn stage_rows(&self) -> StageRows {
        crate::stage_rows!("sort")
    }

    fn initialize(&mut self, _agg: &Aggregates, ctx: &OpCtx) {
        self.n_compute_hint = (ctx.n_compute as u64).max(1);
        self.sorted.clear();
        self.dest_rows.clear();
    }

    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        Arc::new(SortMapper {
            n_compute_hint: self.n_compute_hint,
        })
    }

    /// A tag's high half is its destination rank.
    fn partition(&self, tag: u64, _n_ranks: usize) -> usize {
        (tag >> 32) as usize
    }

    /// The counts tag comes first: sum every chunk's rows per
    /// destination and reserve the output once, exactly. Each later tag
    /// is one label range: radix-sort its `(key, blob, row)` triples by
    /// key and gather each row once onto the end of the kept output
    /// buffer `finalize` lends to the writer. A range is ≈ 1 MiB of rows
    /// in GTC, so the gather reads from cache. The triples are built in
    /// arrival order — blob order (the shuffle delivers blobs in
    /// source-rank order), then row order within a blob — and the sort
    /// is stable, so equal keys, which always share a range, keep it; the
    /// ranges arrive in key order. The result is the stable sort of the
    /// concatenated blobs.
    fn reduce(&mut self, tag: u64, items: Vec<Bytes>, ctx: &OpCtx) {
        if tag == counts_tag(ctx.my_rank()) {
            self.dest_rows.resize(ctx.n_ranks(), 0);
            for counts in &items {
                for (sum, n) in self.dest_rows.iter_mut().zip(counts.chunks_exact(8)) {
                    *sum += u64::from_le_bytes(n.try_into().expect("8-byte count"));
                }
            }
            // Kept buffers grow to exactly what the step needs:
            // `reserve`'s doubling would leave a step with a few more rows
            // than the last holding twice the memory, resident on every
            // rank for good.
            let mine = self.dest_rows[ctx.my_rank()] as usize;
            self.sorted.reserve_exact(mine * PARTICLE_WIDTH);
            return;
        }
        assert!(items.len() <= u32::MAX as usize, "blob index fits u32");
        let range_rows: usize = items.iter().map(|b| b.len() / ROW_BYTES).sum();
        let [order, spare] = &mut self.slots;
        order.clear();
        order.reserve_exact(range_rows);
        for (b, blob) in items.iter().enumerate() {
            assert!(
                blob.len() / ROW_BYTES <= u32::MAX as usize,
                "row index fits u32"
            );
            for (r, row) in blob.chunks_exact(ROW_BYTES).enumerate() {
                let key = label_key(le_f64(row, COL_RANK), le_f64(row, COL_ID));
                order.push((key, b as u32, r as u32));
            }
        }
        radix_sort_by_key(order, spare);
        for &(_, b, r) in order.iter() {
            let row = &items[b as usize][r as usize * ROW_BYTES..][..ROW_BYTES];
            self.sorted
                .extend((0..PARTICLE_WIDTH).map(|c| le_f64(row, c)));
        }
    }

    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        let my_rows = (self.sorted.len() / PARTICLE_WIDTH) as u64;
        // Global offsets from the counts every rank summed alike: no
        // chunk mapped anywhere leaves them empty, and every slice 0.
        self.dest_rows.resize(ctx.n_ranks(), 0);
        assert_eq!(
            self.dest_rows[ctx.my_rank()],
            my_rows,
            "the rows counted for this rank are the rows it sorted"
        );
        let offset: u64 = self.dest_rows[..ctx.my_rank()].iter().sum();
        let total: u64 = self.dest_rows.iter().sum();
        self.dest_rows.clear();
        if !keeps_buffers(ctx) {
            self.slots = Default::default();
        }

        let mut result = OpResult::new("sort");
        result.values.set("np_sorted", Value::U64(my_rows));
        result.values.set("np_total", Value::U64(total));
        result.values.set("offset", Value::U64(offset));

        // Write this rank's contiguous slice of the global sorted array.
        let path = ctx
            .out_dir
            .join(format!("sorted_step{}_rank{}.bp", ctx.step, ctx.my_rank()));
        let def = bpio::GroupDef::new(vec![
            bpio::VarDef::scalar("np", bpio::Dtype::U64),
            bpio::VarDef::scalar("total", bpio::Dtype::U64),
            bpio::VarDef::scalar("offset", bpio::Dtype::U64),
            bpio::VarDef::global_chunk(
                "particles",
                bpio::Dtype::F64,
                vec![bpio::Dim::r("total"), bpio::Dim::c(8)],
                vec![bpio::Dim::r("np"), bpio::Dim::c(8)],
                vec![bpio::Dim::r("offset"), bpio::Dim::c(0)],
            ),
        ])
        .expect("static group");
        let mut pg = bpio::ProcessGroup::new("sorted_particles", ctx.my_rank() as u64, ctx.step);
        for (name, val) in [("np", my_rows), ("total", total), ("offset", offset)] {
            pg.write(&def, name, bpio::DataArray::U64(vec![val]))
                .unwrap();
        }
        // The rows are lent to the PG for the write and, where kept, taken
        // back empty for the next step's `reduce` to fill.
        pg.write(
            &def,
            "particles",
            bpio::DataArray::F64(std::mem::take(&mut self.sorted)),
        )
        .unwrap();
        let annotations = [("sorted_by", "label"), ("prepared_by", "predata/sort")];
        super::kit::write_output(ctx, &mut result, path, &annotations, &pg);
        if let Some(bpio::DataArray::F64(mut rows)) = pg.vars.pop().map(|v| v.data) {
            if keeps_buffers(ctx) {
                rows.clear();
                self.sorted = rows;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{complete_pipeline, exchange};
    use crate::schema::make_particle_pg;
    use ffs::AttrList;
    use minimpi::World;
    use proptest::prelude::*;

    /// A particle row with the given label, other attrs derived.
    fn row(rank: u64, id: u64) -> Vec<f64> {
        vec![
            rank as f64 * 0.5,
            id as f64,
            0.,
            0.,
            0.,
            1.0,
            rank as f64,
            id as f64,
        ]
    }

    /// Rows whose label columns collide often (also across blobs and at
    /// and above the `n_compute << 32` key bound) and whose other columns
    /// carry the values a careless copy would change: NaN, -0.0.
    fn arb_rows(max_rows: usize) -> impl Strategy<Value = Vec<f64>> {
        let odd = prop::sample::select(vec![f64::NAN, -0.0, 0.0, -1.5, f64::INFINITY]);
        let id = prop::sample::select(vec![0.0, 1.0, 2.0, 4294967295.0, 8589934592.0]);
        let n = prop_oneof![Just(0usize), 0usize..=max_rows];
        n.prop_flat_map(move |n| {
            prop::collection::vec((-9.0f64..9.0, odd.clone(), 0u32..6, id.clone()), n..=n)
        })
        .prop_map(|rows| {
            rows.into_iter()
                .flat_map(|(x, odd, rank, id)| [x, odd, -0.0, odd, f64::NAN, x, rank as f64, id])
                .collect()
        })
    }

    /// Blobs of rows keyed so that each of the four 16-bit key digits is,
    /// per case, either one value for every row or drawn over its whole
    /// range: `free` bit `d` frees digit `d`. The label is the key split
    /// into its rank (high 32 bits) and id (low 32 bits); column 0 numbers
    /// the rows, so a tie broken out of order shows in the output.
    fn arb_keyed_blobs() -> impl Strategy<Value = Vec<Vec<f64>>> {
        let base = prop_oneof![Just(u64::MAX), Just(u64::MAX - 1), Just(0u64), any::<u64>()];
        (0u32..16, base, any::<bool>()).prop_flat_map(|(free, base, repeat)| {
            let free: u64 = (0..4)
                .filter(|d| free >> d & 1 == 1)
                .map(|d| 0xffff << (16 * d))
                .sum();
            let key = move || any::<u64>().prop_map(move |r| (base & !free) | (r & free));
            let n_rows = prop_oneof![Just(0usize), Just(1usize), 0usize..=300];
            let blob = n_rows.prop_flat_map(move |n| prop::collection::vec(key(), n..=n));
            (
                prop::collection::vec(blob, 0..=5),
                prop::collection::vec(key(), 1..=3),
            )
                .prop_map(move |(blobs, pool)| {
                    let mut seq = 0.0;
                    blobs
                        .into_iter()
                        .map(|keys| {
                            keys.into_iter()
                                .flat_map(|k| {
                                    let k = if repeat {
                                        pool[k as usize % pool.len()]
                                    } else {
                                        k
                                    };
                                    seq += 1.0;
                                    let (rank, id) = ((k >> 32) as f64, (k & 0xffff_ffff) as f64);
                                    [seq, -0.0, f64::NAN, 0.0, 0.0, 0.0, rank, id]
                                })
                                .collect()
                        })
                        .collect()
                })
        })
    }

    /// A fresh directory under the system temp dir for one test case.
    fn case_dir(tag: &str) -> std::path::PathBuf {
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sort-radix-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn le_bytes(rows: &[f64]) -> Vec<u8> {
        rows.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn bits(rows: &[f64]) -> Vec<u64> {
        rows.iter().map(|v| v.to_bits()).collect()
    }

    /// The bucket formula the sort used to route by, in 128-bit
    /// arithmetic: `⌊min(k, c·2³² − 1)·n / (c·2³²)⌋`.
    fn bucket_by_division(key: u64, n_compute: u64, n_ranks: usize) -> usize {
        let key_max = n_compute << 32;
        ((key.min(key_max - 1) as u128 * n_ranks as u128 / key_max as u128) as usize)
            .min(n_ranks - 1)
    }

    /// What one pipeline rank's `finalize` reported and wrote.
    #[derive(Debug)]
    struct Slice {
        np: u64,
        offset: u64,
        total: u64,
        rows: Vec<f64>,
        file: Vec<u8>,
    }

    /// `chunks` through one step of a fresh `SortOp` on `n_ranks`
    /// pipeline ranks serving `n_compute` compute ranks — `initialize`,
    /// `map` of chunk `i` on rank `i % n_ranks` in order, one
    /// [`exchange`] — and each rank's slice read back from its file.
    fn sort_step(
        n_ranks: usize,
        n_compute: usize,
        chunks: &[Vec<f64>],
        dir: &std::path::Path,
    ) -> Vec<Slice> {
        let (chunks, dir) = (chunks.to_vec(), dir.to_path_buf());
        World::run(n_ranks, move |comm| {
            let mut op = SortOp::new();
            step_on(&comm, &mut op, n_compute, &chunks, &dir, 0)
        })
    }

    /// One step of `op` on this rank; see [`sort_step`].
    fn step_on(
        comm: &minimpi::Comm,
        op: &mut SortOp,
        n_compute: usize,
        chunks: &[Vec<f64>],
        dir: &std::path::Path,
        step: u64,
    ) -> Slice {
        let ctx = OpCtx {
            comm,
            out_dir: dir,
            step,
            n_compute,
            agg: None,
        };
        op.initialize(&Aggregates::local_only(&[]), &ctx);
        let mapped = chunks
            .iter()
            .enumerate()
            .filter(|(i, _)| i % comm.size() == comm.rank())
            .flat_map(|(i, rows)| {
                op.map(
                    &PackedChunk::new(make_particle_pg(i as u64, step, rows.clone())),
                    &ctx,
                )
            })
            .collect();
        let result = exchange(&mut [op], vec![mapped], &ctx, &[]).remove(0);
        let value = |name| result.values.get_u64(name).unwrap();
        let path = &result.files[0];
        let rows = bpio::BpReader::open(path)
            .unwrap()
            .read_local("particles", step, comm.rank() as u64)
            .unwrap();
        Slice {
            np: value("np_sorted"),
            offset: value("offset"),
            total: value("np_total"),
            rows: rows.as_f64().unwrap().to_vec(),
            file: std::fs::read(path).unwrap(),
        }
    }

    /// The reference for [`sort_step`]: the rows in the order the
    /// shuffle delivers them — mapping rank, then chunk — stable-sorted
    /// by key; each rank's share, by the old division; and the offsets
    /// and total an `exscan` and an `allreduce` of the shares gave.
    fn check_slices(
        slices: &[Slice],
        n_compute: usize,
        chunks: &[Vec<f64>],
    ) -> Result<(), TestCaseError> {
        let n_ranks = slices.len();
        let mut rows: Vec<[f64; PARTICLE_WIDTH]> = (0..n_ranks)
            .flat_map(|r| chunks.iter().skip(r).step_by(n_ranks))
            .flat_map(|c| c.chunks_exact(PARTICLE_WIDTH))
            .map(|r| r.try_into().unwrap())
            .collect();
        rows.sort_by_key(|r| particle_key(r));
        let share = |rank| {
            rows.iter()
                .filter(|r| bucket_by_division(particle_key(*r), n_compute as u64, n_ranks) == rank)
                .count() as u64
        };
        let expect: Vec<f64> = rows.iter().flatten().copied().collect();
        let got: Vec<f64> = slices.iter().flat_map(|s| s.rows.iter().copied()).collect();
        prop_assert_eq!(bits(&got), bits(&expect));
        let mut offset = 0;
        for (rank, slice) in slices.iter().enumerate() {
            prop_assert_eq!(slice.np, share(rank));
            prop_assert_eq!(slice.rows.len() as u64, slice.np * PARTICLE_WIDTH as u64);
            prop_assert_eq!(slice.offset, offset, "exscan of the shares, rank {}", rank);
            prop_assert_eq!(slice.total, rows.len() as u64, "allreduce of the shares");
            offset += slice.np;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The per-row reference: decode every row, stable-sort the rows
        /// by key, flatten — over 1–3 pipeline ranks serving 1–8 compute
        /// ranks, so label ranges straddle destinations, labels reach and
        /// pass the `n_compute << 32` bound, and a rank may receive no
        /// rows. Offsets and totals are those of the collectives.
        #[test]
        fn reduce_is_the_stable_sort_of_the_decoded_rows(
            chunks in prop::collection::vec(arb_rows(300), 0..=6),
            n_ranks in 1usize..=3,
            n_compute in 1usize..=8,
        ) {
            let dir = case_dir("rows");
            let slices = sort_step(n_ranks, n_compute, &chunks, &dir);
            check_slices(&slices, n_compute, &chunks)?;
            std::fs::remove_dir_all(dir).ok();
        }

        /// The same reference with keys whose 16-bit digits are, case by
        /// case, each either shared by every row or free over its whole
        /// range — so every radix pass, and every skipped one, is
        /// exercised — near `u64::MAX` as well as near 0, and often
        /// repeated. A second step of the same op with fewer rows must
        /// write what a fresh op writes: the kept output buffer carries
        /// nothing over.
        #[test]
        fn radix_reduce_is_the_stable_sort_over_every_digit_mix(
            chunks in arb_keyed_blobs(),
        ) {
            let dirs = [case_dir("kept"), case_dir("fresh")];
            // One staging rank serving two compute ranks: buffers are kept.
            let (_world, comms) = World::with_size(1);
            let mut kept = SortOp::new();
            let first = step_on(&comms[0], &mut kept, 2, &chunks, &dirs[0], 1);
            check_slices(std::slice::from_ref(&first), 2, &chunks)?;
            prop_assert!(kept.sorted.is_empty());
            prop_assert!(kept.sorted.capacity() >= first.rows.len());

            // Step two: a strict prefix of the rows, fewer than step one.
            let fewer: Vec<Vec<f64>> = chunks
                .iter()
                .map(|b| b[..b.len() / 2 / PARTICLE_WIDTH * PARTICLE_WIDTH].to_vec())
                .collect();
            let again = step_on(&comms[0], &mut kept, 2, &fewer, &dirs[0], 2);
            check_slices(std::slice::from_ref(&again), 2, &fewer)?;
            let fresh = step_on(&comms[0], &mut SortOp::new(), 2, &fewer, &dirs[1], 2);
            prop_assert_eq!(again.file, fresh.file);
            for dir in dirs {
                std::fs::remove_dir_all(dir).ok();
            }
        }

        /// The two-pass reference: every rank gets the chunk's rows per
        /// destination under its counts tag, then bucket `(d, l)` is every
        /// row bound for `d` in label range `l`, in chunk order, each
        /// attribute pushed as LE bytes.
        #[test]
        fn map_chunk_is_the_per_row_partition(rows in arb_rows(200), n_ranks in 1usize..=5) {
            let n_compute = 3;
            let dest = |r: &[f64]| bucket_by_division(particle_key(r), n_compute, n_ranks);
            let label = |r: &[f64]| (particle_key(r) >> 32).min(n_compute);
            let mut expect: Vec<(u64, Vec<u8>)> = Vec::new();
            if !rows.is_empty() {
                let counts: Vec<u8> = (0..n_ranks)
                    .flat_map(|d| {
                        let n = rows.chunks_exact(PARTICLE_WIDTH).filter(|r| dest(r) == d);
                        (n.count() as u64).to_le_bytes()
                    })
                    .collect();
                expect.extend((0..n_ranks).map(|d| ((d as u64) << 32, counts.clone())));
            }
            for d in 0..n_ranks {
                for l in 0..=n_compute {
                    let mine: Vec<f64> = rows
                        .chunks_exact(PARTICLE_WIDTH)
                        .filter(|r| dest(r) == d && label(r) == l)
                        .flatten()
                        .copied()
                        .collect();
                    if !mine.is_empty() {
                        expect.push((((d as u64) << 32) | (l + 1), le_bytes(&mine)));
                    }
                }
            }

            let ctx = MapCtx { n_ranks };
            let mapper = SortMapper { n_compute_hint: n_compute };
            let got: Vec<(u64, Vec<u8>)> = mapper
                .map_chunk(&PackedChunk::new(make_particle_pg(0, 0, rows.clone())), &ctx)
                .into_iter()
                .map(|t| (t.tag, t.bytes.to_vec()))
                .collect();
            prop_assert_eq!(got, expect);
        }

        /// The shift-and-divide bucket is the 128-bit division's, over
        /// every key — below, at and far above the `n_compute << 32`
        /// bound — and the largest products the mapper allows.
        #[test]
        fn bucket_is_the_division_it_replaces(
            key in prop_oneof![any::<u64>(), 0u64..1 << 40],
            sizes in prop_oneof![
                (1u64..=64, 1usize..=64),
                Just((1u64 << 16, 1usize << 16)),
                Just(((1u64 << 32) - 1, 1usize)),
                Just((1u64, 1usize << 32)),
            ],
        ) {
            let (n_compute, n_ranks) = sizes;
            prop_assert_eq!(
                bucket_of(key, n_compute, n_ranks),
                bucket_by_division(key, n_compute, n_ranks)
            );
        }
    }

    /// The cases the properties reach only by chance, each against the
    /// reference: 3 staging ranks over 8 compute ranks (label ranges 2
    /// and 5 straddle two destinations), labels at and above
    /// `n_compute << 32`, NaN and negative labels (key 0), a rank that
    /// receives no rows, and a truncated chunk — one never mapped, whose
    /// rows and counts are both missing.
    #[test]
    fn straddling_ranges_out_of_range_labels_and_truncated_chunks() {
        let rows = |labels: &[(f64, f64)]| -> Vec<f64> {
            labels
                .iter()
                .enumerate()
                .flat_map(|(i, &(rank, id))| [i as f64, 0., 0., 0., 0., 1., rank, id])
                .collect()
        };
        let straddle: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                let labels: Vec<(f64, f64)> = (0..48)
                    .map(|i| {
                        (
                            (i * 7 + c) as f64 % 8.0,
                            ((i * 2_654_435_761u64) >> 1) as f64,
                        )
                    })
                    .collect();
                rows(&labels)
            })
            .collect();
        let odd = vec![
            rows(&[
                (8.0, 0.0),
                (9.0, 3.0),
                (f64::NAN, 5.0),
                (-3.0, 1.0),
                (8.0, 0.0),
            ]),
            rows(&[
                (1e30, 2.0),
                (f64::NAN, f64::NAN),
                (0.0, 4294967295.0),
                (7.0, 1.0),
            ]),
        ];
        // Every label in range 0: with 8 compute ranks over 3 staging
        // ranks, ranks 1 and 2 receive no rows.
        let low = vec![rows(&[(0.0, 9.0), (0.0, 2.0)]), rows(&[(0.0, 2.0)])];
        for (n_ranks, n_compute, chunks) in [
            (3, 8, straddle.clone()),
            (3, 8, odd.clone()),
            (2, 8, odd),
            (3, 8, low),
            // Chunk 1 truncated: the step maps the others only.
            (3, 8, [&straddle[..1], &straddle[2..]].concat()),
        ] {
            let dir = case_dir("cases");
            let slices = sort_step(n_ranks, n_compute, &chunks, &dir);
            check_slices(&slices, n_compute, &chunks).unwrap();
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn bucket_split_covers_and_orders() {
        let n = 3;
        let mut last = 0;
        for rank in 0..4u64 {
            for id in [0u64, 1 << 30, (1 << 32) - 1] {
                let b = bucket_of((rank << 32) | id, 4, n);
                assert!(b < n);
                assert!(b >= last, "buckets must be monotone in key");
                last = b;
            }
        }
        assert_eq!(bucket_of(0, 4, n), 0);
        assert_eq!(bucket_of((4u64 << 32) - 1, 4, n), n - 1);
        assert_eq!(bucket_of(u64::MAX, 4, n), n - 1);
    }

    #[test]
    fn sorts_globally_across_pipeline_ranks() {
        let out = World::run(3, |comm| {
            let mut op = SortOp::new();
            let dir = std::env::temp_dir().join(format!(
                "sorts_globally_across_pipeline_ranks-{}-{}",
                std::process::id(),
                comm.rank()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 3,
                agg: None,
            };

            // Aggregation: 4 particles per compute rank.
            let pairs: Vec<(usize, AttrList)> = (0..3)
                .map(|r| {
                    let mut a = AttrList::new();
                    a.set("np", Value::U64(4));
                    (r, a)
                })
                .collect();
            op.initialize(&Aggregates::local_only(&pairs), &ctx);

            // Each pipeline rank maps the chunk of compute rank == its
            // rank, containing particles with labels scattered across the
            // whole key space (out-of-order arrival ranks).
            let me = comm.rank() as u64;
            let rows: Vec<f64> = [(2 - me, 3), (me, 1), ((me + 1) % 3, 0), (me, 0)]
                .iter()
                .flat_map(|&(r, i)| row(r, i))
                .collect();
            let chunk = PackedChunk::new(make_particle_pg(me, 0, rows));
            let mapped = op.map(&chunk, &ctx);
            let result = complete_pipeline(&mut op, mapped, &ctx);

            // Read back my slice and return (offset, keys).
            let path = result.files.first().expect("sort writes a file").clone();
            let mut r = bpio::BpReader::open(&path).unwrap();
            let me_rank = comm.rank() as u64;
            let data = r.read_local("offset", 0, me_rank).unwrap();
            let offset = data.as_u64().unwrap()[0];
            let idx = r.index().chunks_of("particles", 0)[0].clone();
            let my_rows: Vec<f64> = {
                let d = r
                    .read_box("particles", 0, &idx.offset_in_global, &idx.local)
                    .unwrap();
                d.as_f64().unwrap().to_vec()
            };
            let keys: Vec<u64> = my_rows
                .chunks_exact(PARTICLE_WIDTH)
                .map(particle_key)
                .collect();
            std::fs::remove_dir_all(&dir).ok();
            (offset, keys)
        });

        // Stitch slices by offset; the concatenation must be globally
        // sorted and contain all 12 particles.
        let mut slices = out.clone();
        slices.sort_by_key(|(off, _)| *off);
        let all: Vec<u64> = slices.into_iter().flat_map(|(_, k)| k).collect();
        assert_eq!(all.len(), 12);
        assert!(
            all.windows(2).all(|w| w[0] <= w[1]),
            "global order: {all:?}"
        );
    }

    #[test]
    fn empty_input_produces_empty_sorted_file() {
        let out = World::run(1, |comm| {
            let mut op = SortOp::new();
            let dir = std::env::temp_dir().join(format!(
                "empty_input_produces_empty_sorted_file-{}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 1,
                agg: None,
            };
            op.initialize(&Aggregates::local_only(&[]), &ctx);
            let chunk = PackedChunk::new(make_particle_pg(0, 0, vec![]));
            let mapped = op.map(&chunk, &ctx);
            let r = complete_pipeline(&mut op, mapped, &ctx);
            std::fs::remove_dir_all(&dir).ok();
            (r.values.get_u64("np_sorted"), r.values.get_u64("np_total"))
        });
        assert_eq!(out[0], (Some(0), Some(0)));
    }
}
