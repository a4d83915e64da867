//! The operator plugin API: the five-phase streaming model of paper
//! Fig. 5, plus the optional compute-node first pass.
//!
//! PreDatA's processing model is MapReduce-shaped with four deliberate
//! differences (paper §IV-C): data is visited **once** (streaming —
//! staging memory cannot hold a dump), **Initialize/Finalize** phases
//! bracket the stream (input from the application, output to storage),
//! shuffling uses the machine's **MPI** collectives rather than a
//! file-backed shuffle, and there is **no central master** — every
//! staging rank runs the same SPMD pipeline.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use ffs::AttrList;
use minimpi::{Comm, MpiData};

use crate::agg::Aggregates;
use crate::chunk::PackedChunk;

/// A tagged intermediate result emitted by `map` and routed by
/// `partition`. The payload is operator-defined bytes: operators own
/// their intermediate encoding, exactly as in MapReduce. The payload is
/// a shared [`Bytes`] buffer, so routing, shuffling, and regrouping move
/// reference counts, never contents — an operator serializes a result
/// exactly once, into a pre-sized `Vec<u8>` that is handed over whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tagged {
    pub(crate) tag: u64,
    pub bytes: Bytes,
}

impl Tagged {
    pub fn new(tag: u64, bytes: impl Into<Bytes>) -> Self {
        Tagged {
            tag,
            bytes: bytes.into(),
        }
    }
}

/// What an operator produced for one I/O step.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    /// Operator name.
    pub op: String,
    /// Small named results (statistics, counts) for in-situ consumers.
    pub values: AttrList,
    /// Files written by `finalize` (prepared data, indexes).
    pub files: Vec<PathBuf>,
}

impl OpResult {
    /// The result of operator `op`, with no value and no file yet.
    pub(crate) fn new(op: &str) -> Self {
        OpResult {
            op: op.into(),
            ..Default::default()
        }
    }
}

/// Execution context handed to every phase: where am I, who are my
/// peers, where do results go.
pub struct OpCtx<'a> {
    /// Communicator over the ranks executing this pipeline (staging ranks
    /// in the Staging placement; compute ranks in In-Compute-Node).
    pub comm: &'a Comm,
    /// Directory for `finalize` outputs.
    pub out_dir: &'a Path,
    /// The I/O step being processed.
    pub step: u64,
    /// Total number of *compute* ranks contributing chunks.
    pub n_compute: usize,
    /// The step's global aggregates, when the runtime has them (staging
    /// and in-compute runners set this; hand-built test contexts may not).
    /// No phase reads it: `initialize` is handed the aggregates directly.
    pub agg: Option<&'a Aggregates>,
}

impl<'a> OpCtx<'a> {
    pub fn my_rank(&self) -> usize {
        self.comm.rank()
    }

    pub(crate) fn n_ranks(&self) -> usize {
        self.comm.size()
    }

    /// The thread-safe subset of this context that `map` needs.
    pub fn map_ctx(&self) -> MapCtx {
        MapCtx {
            n_ranks: self.comm.size(),
        }
    }
}

/// The map-phase execution context: everything [`ChunkMapper::map_chunk`]
/// may consult, and nothing more. Unlike [`OpCtx`] it carries no `&Comm`,
/// so it is `Send + Sync` and can be held beside a shared mapper. (Map is
/// communication-free by construction — the shuffle is the only
/// communicating phase between initialize and finalize.)
#[derive(Debug, Clone, Copy)]
pub struct MapCtx {
    /// Number of pipeline ranks.
    pub(crate) n_ranks: usize,
}

impl MapCtx {
    pub(crate) fn n_ranks(&self) -> usize {
        self.n_ranks
    }
}

/// The pure map half of an operator: per-chunk, stateless, shareable.
///
/// `map_chunk` must depend only on the chunk, the context, and state
/// frozen at [`StreamOp::mapper`] time (i.e. set by `initialize`). The
/// mapper is shared by `Arc` and called on the staging rank's thread, once
/// per chunk in pull-policy order; the benchmark harness calls it
/// directly. The determinism contract is per-chunk pure mappers, streams
/// in policy order, and accumulation only in `combine` — floating-point
/// accumulation across chunks is not associative and must happen in one
/// place, in one deterministic order.
pub trait ChunkMapper: Send + Sync {
    fn map_chunk(&self, chunk: &PackedChunk, ctx: &MapCtx) -> Vec<Tagged>;
}

/// The rows one operator's phases are folded under in `obs`: its `map`
/// of each chunk, its `reduce` of the step and its `finalize`, each
/// nested in the step's row of that phase (`map.sort` in `map`). Names
/// are `&'static str`, so a row costs what any span costs: one relaxed
/// load while recording is off. Spelled with [`stage_rows!`](crate::stage_rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRows {
    pub map: &'static str,
    pub reduce: &'static str,
    pub finalize: &'static str,
}

/// The [`StageRows`] of the operator named `$op`: `map.$op`,
/// `reduce.$op` and `finalize.$op`.
#[macro_export]
macro_rules! stage_rows {
    ($op:literal) => {
        $crate::op::StageRows {
            map: concat!("map.", $op),
            reduce: concat!("reduce.", $op),
            finalize: concat!("finalize.", $op),
        }
    };
}

/// Optional compute-node first pass (paper Stage 1a): local, deterministic
/// work whose small results ride on the data-fetch request.
pub trait ComputeSideOp: Send + Sync {
    /// Inspect the outgoing process group; attach partial results
    /// (local counts, min/max) to `out`.
    fn partial_calculate(&self, pg: &bpio::ProcessGroup, out: &mut AttrList);
}

/// A pluggable in-transit operation (paper Fig. 5).
///
/// Call order per I/O step, on every pipeline rank:
/// `initialize` → `map`* (once per chunk, streaming, through
/// [`StreamOp::mapper`] on the rank thread) → `combine` → shuffle
/// (`partition` routes tags) → `reduce`* (once per owned tag) →
/// `finalize`. The step's operators share that shuffle: `exchange`
/// runs every `combine`, moves all of their items in one `alltoall`,
/// then every `reduce` — an operator's owned tags in ascending order —
/// then every `finalize` in operator order.
pub trait StreamOp: Send {
    fn name(&self) -> &str;

    /// This operator's rows in the `obs` fold. Provided: `map.op`,
    /// `reduce.op`, `finalize.op`, shared by every operator that does
    /// not name its own.
    fn stage_rows(&self) -> StageRows {
        stage_rows!("op")
    }

    /// Set up per-step state from the global aggregates.
    fn initialize(&mut self, agg: &Aggregates, ctx: &OpCtx);

    /// The operator's pure map half, snapshotting any state `initialize`
    /// set up. Called once per step, after `initialize`; the returned
    /// mapper is shared by `Arc` and called on the rank thread (the
    /// benchmark harness calls it directly).
    fn mapper(&self) -> Arc<dyn ChunkMapper>;

    /// Process one packed partial data chunk; emit tagged intermediates.
    /// Chunks arrive in pull-completion order and are dropped afterwards
    /// (single-pass streaming). Provided: delegates to [`mapper`]
    /// (serial paths — the in-compute runner, tests — use this).
    ///
    /// [`mapper`]: StreamOp::mapper
    fn map(&mut self, chunk: &PackedChunk, ctx: &OpCtx) -> Vec<Tagged> {
        self.mapper().map_chunk(chunk, &ctx.map_ctx())
    }

    /// Optional local pre-aggregation before the shuffle (cuts shuffle
    /// volume; the ablation benches measure by how much).
    fn combine(&mut self, items: Vec<Tagged>) -> Vec<Tagged> {
        items
    }

    /// Which pipeline rank owns a tag. Default: modulo.
    fn partition(&self, tag: u64, n_ranks: usize) -> usize {
        (tag % n_ranks.max(1) as u64) as usize
    }

    /// Fold all intermediates for one owned tag (local + shuffled-in).
    /// Items arrive as shared [`Bytes`] views of the buffers the mappers
    /// serialized — `&item[..]` is the payload; nothing was re-framed in
    /// transit. Within a step, `reduce` is called once per owned tag in
    /// ascending tag order, so an operator may choose its tags to order
    /// its work (the sort reduces its row counts first, then one key
    /// range at a time).
    fn reduce(&mut self, tag: u64, items: Vec<Bytes>, ctx: &OpCtx);

    /// Emit results (files, statistics) and reset per-step state.
    fn finalize(&mut self, ctx: &OpCtx) -> OpResult;
}

/// One destination's share of a step's exchange: `(op, tag, payload)`
/// entries, `op` being the operator's index in the step's list. Buckets
/// move through the communicator as-is: the payloads are shared buffers,
/// so the shuffle moves reference counts and frames nothing. The traffic
/// counters size them as if framed `[op u32][tag u64][len u32][bytes]`.
#[derive(Clone)]
struct Bucket(Vec<(u32, u64, Bytes)>);

impl MpiData for Bucket {
    fn byte_len(&self) -> usize {
        self.0.iter().map(|(_, _, b)| 16 + b.len()).sum()
    }
}

/// Route every operator's combined items into one bucket per pipeline
/// rank, each item by its own operator's `partition`.
fn route(ops: &[&mut dyn StreamOp], combined: Vec<Vec<Tagged>>, n: usize) -> Vec<Bucket> {
    let mut buckets = vec![Bucket(Vec::new()); n];
    for (i, (op, items)) in ops.iter().zip(combined).enumerate() {
        let mut misrouted = 0usize;
        for item in items {
            // Contract: partition() must return a rank in 0..n. A violation
            // is an operator bug — wrap (modulo) so routing stays a function
            // of the returned value, and warn loudly, rather than silently
            // clamping everything onto the last rank.
            let dst = op.partition(item.tag, n);
            misrouted += usize::from(dst >= n);
            buckets[dst % n].0.push((i as u32, item.tag, item.bytes));
        }
        if misrouted > 0 {
            eprintln!(
                "warning: op '{}' partition() returned out-of-range ranks for \
                 {misrouted} item(s); wrapped modulo {n}",
                op.name()
            );
        }
    }
    buckets
}

/// The back half of one step for every operator at once (paper Fig. 5
/// after `map`), shared by the staging runtime, the in-compute runner and
/// [`complete_pipeline`]. Collective over `ctx.comm`: every rank passes
/// the same operators in the same order, `streams[i]` being the mapped
/// stream of `ops[i]`.
///
/// 1. every operator's `combine`;
/// 2. **one** `alltoall` of all operators' items, each routed by its own
///    operator's `partition` and tagged with that operator's index;
/// 3. every operator's `reduce`, once per owned tag in ascending tag
///    order, over its own items only — in source-rank order and, within
///    one source, in the order that rank combined them;
/// 4. every operator's `finalize`, in operator order.
///
/// The `alltoall` is the only collective: a staging step enters three
/// per rank (the request `gather`, the aggregates' `allgather` and this
/// one), and no operator's `finalize` enters one. No barrier precedes
/// `finalize`: no rank leaves the `alltoall` before every rank has
/// entered it, that is, finished mapping — the one ordering a
/// `finalize` relies on (`SpaceIndexOp`'s commit). The exchange runs
/// with no operator or nothing to send too: it is the step's ordering
/// point.
///
/// `chunk_srcs` are the compute ranks whose chunks fed the streams; each
/// gets its `shuffled`, `reduced` and `written` lineage marks here, only
/// while the registry logs events. Each phase runs under an obs span (the
/// paper's Fig. 7–9 breakdowns), and each operator's `reduce` and
/// `finalize` under its own [`StageRows`] inside it — all in the
/// registry of `ctx.comm` ([`Comm::obs`]).
pub(crate) fn exchange(
    ops: &mut [&mut dyn StreamOp],
    streams: Vec<Vec<Tagged>>,
    ctx: &OpCtx,
    chunk_srcs: &[usize],
) -> Vec<OpResult> {
    let (step, rank, obs) = (ctx.step, ctx.my_rank(), ctx.comm.obs());
    let mark_chunks = |stage: &'static str| {
        if obs.detail() {
            for &src in chunk_srcs {
                obs::mark_in(obs, stage, step).rank(rank).chunk(src as u64);
            }
        }
    };
    let combined = {
        let _s = obs::span_in(obs, "combine", step).rank(rank);
        ops.iter_mut()
            .zip(streams)
            .map(|(op, items)| op.combine(items))
            .collect()
    };
    let mut grouped: Vec<BTreeMap<u64, Vec<Bytes>>> = vec![BTreeMap::new(); ops.len()];
    {
        let _s = obs::span_in(obs, "shuffle", step).rank(rank);
        let buckets = route(ops, combined, ctx.n_ranks());
        // Regroup by operator and tag — by move; payload bytes are
        // untouched.
        for (op, tag, bytes) in ctx.comm.alltoall(buckets).into_iter().flat_map(|b| b.0) {
            grouped[op as usize].entry(tag).or_default().push(bytes);
        }
    }
    mark_chunks("shuffled");
    {
        let _s = obs::span_in(obs, "reduce", step).rank(rank);
        for (op, groups) in ops.iter_mut().zip(grouped) {
            let _s = obs::span_in(obs, op.stage_rows().reduce, step).rank(rank);
            for (tag, items) in groups {
                op.reduce(tag, items, ctx);
            }
        }
    }
    mark_chunks("reduced");
    let results = {
        let _s = obs::span_in(obs, "finalize", step).rank(rank);
        ops.iter_mut()
            .map(|op| {
                let _s = obs::span_in(obs, op.stage_rows().finalize, step).rank(rank);
                op.finalize(ctx)
            })
            .collect()
    };
    mark_chunks("written");
    results
}

/// `exchange` for one operator: combine → shuffle → reduce → finalize
/// over its mapped stream. Collective over `ctx.comm`.
pub fn complete_pipeline(op: &mut dyn StreamOp, mapped: Vec<Tagged>, ctx: &OpCtx) -> OpResult {
    exchange(&mut [op], vec![mapped], ctx, &[]).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimpi::World;

    /// Records what `reduce` is handed: `(tag, payloads)` in call order,
    /// each payload read as a little-endian `u64`.
    #[derive(Default)]
    struct CountOp {
        seen: Vec<(u64, Vec<u64>)>,
    }

    impl StreamOp for CountOp {
        fn name(&self) -> &str {
            "count"
        }
        fn initialize(&mut self, _agg: &Aggregates, _ctx: &OpCtx) {
            self.seen.clear();
        }
        fn mapper(&self) -> Arc<dyn ChunkMapper> {
            struct NoMap;
            impl ChunkMapper for NoMap {
                fn map_chunk(&self, _chunk: &PackedChunk, _ctx: &MapCtx) -> Vec<Tagged> {
                    unreachable!("driven directly in tests")
                }
            }
            Arc::new(NoMap)
        }
        fn reduce(&mut self, tag: u64, items: Vec<Bytes>, _ctx: &OpCtx) {
            let payloads = items
                .iter()
                .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
                .collect();
            self.seen.push((tag, payloads));
        }
        fn finalize(&mut self, _ctx: &OpCtx) -> OpResult {
            OpResult::default()
        }
    }

    /// One item per tag, every one carrying `payload`.
    fn items(tags: std::ops::Range<u64>, payload: u64) -> Vec<Tagged> {
        tags.map(|t| Tagged::new(t, payload.to_le_bytes().to_vec()))
            .collect()
    }

    /// One exchange of `streams` through `ops` on this rank.
    fn run(comm: &Comm, ops: &mut [&mut dyn StreamOp], streams: Vec<Vec<Tagged>>) -> Vec<OpResult> {
        let dir = std::env::temp_dir();
        let ctx = OpCtx {
            comm,
            out_dir: &dir,
            step: 0,
            n_compute: comm.size(),
            agg: None,
        };
        exchange(ops, streams, &ctx, &[])
    }

    #[test]
    fn exchange_routes_by_partition_and_groups_by_tag() {
        let out = World::run(4, |comm| {
            let mut op = CountOp::default();
            // Every rank emits tags 0..8, payload = its rank.
            run(&comm, &mut [&mut op], vec![items(0..8, comm.rank() as u64)]);
            op.seen
        });
        // Default partition: tag % 4 == my rank; one item from each rank,
        // in source-rank order.
        for (rank, seen) in out.into_iter().enumerate() {
            let r = rank as u64;
            assert_eq!(seen, [(r, vec![0, 1, 2, 3]), (r + 4, vec![0, 1, 2, 3])]);
        }
    }

    /// An op whose `partition` violates the contract and returns ranks
    /// ≥ n. The exchange must wrap these modulo n — historically the
    /// shuffle clamped them all onto the last rank, skewing that rank's
    /// load and mis-grouping tags.
    #[derive(Default)]
    struct BadPartitionOp(CountOp);

    impl StreamOp for BadPartitionOp {
        fn name(&self) -> &str {
            "bad-partition"
        }
        fn initialize(&mut self, _agg: &Aggregates, _ctx: &OpCtx) {}
        fn mapper(&self) -> Arc<dyn ChunkMapper> {
            self.0.mapper()
        }
        fn partition(&self, tag: u64, n_ranks: usize) -> usize {
            // Off-by-a-lot: always out of range for n_ranks = 4.
            tag as usize + n_ranks
        }
        fn reduce(&mut self, tag: u64, items: Vec<Bytes>, ctx: &OpCtx) {
            self.0.reduce(tag, items, ctx);
        }
        fn finalize(&mut self, _ctx: &OpCtx) -> OpResult {
            OpResult::default()
        }
    }

    #[test]
    fn out_of_range_partition_wraps_modulo_not_clamped() {
        let out = World::run(4, |comm| {
            let mut op = BadPartitionOp::default();
            // Rank 0 emits tags 0..8; everyone enters the exchange.
            let tags = if comm.rank() == 0 { 0..8 } else { 0..0 };
            run(&comm, &mut [&mut op], vec![items(tags, 0)]);
            op.0.seen
                .into_iter()
                .map(|(tag, _)| tag)
                .collect::<Vec<_>>()
        });
        // partition(tag) = tag + 4, wrapped mod 4 = tag % 4: each rank r
        // owns tags r and r+4. The old clamp sent all 8 tags to rank 3.
        for (rank, tags) in out.iter().enumerate() {
            assert_eq!(
                *tags,
                vec![rank as u64, rank as u64 + 4],
                "rank {rank} received wrong tags"
            );
        }
    }

    /// Nothing to send, and no operator at all: the exchange still runs —
    /// one `alltoall` per rank, the step's ordering point — and reduces
    /// nothing.
    #[test]
    fn empty_exchange_is_fine() {
        let (out, world) = World::run_with_stats(2, |comm| {
            let mut op = CountOp::default();
            let results = run(&comm, &mut [&mut op], vec![Vec::new()]);
            let none = run(&comm, &mut [], Vec::new());
            (results.len(), op.seen.len(), none.len())
        });
        assert_eq!(out, [(1, 0, 0), (1, 0, 0)]);
        assert_eq!(world.stats().collective_calls(), 2 * 2);
    }

    #[test]
    fn reduce_sees_all_contributions() {
        let out = World::run(3, |comm| {
            let mut op = CountOp::default();
            run(&comm, &mut [&mut op], vec![items(0..6, 1)]);
            op.seen
        });
        // Each tag owned by tag % 3; each contributes 3 (one per rank).
        for (rank, seen) in out.iter().enumerate() {
            assert_eq!(seen.len(), 2);
            for (tag, payloads) in seen {
                assert_eq!(*tag as usize % 3, rank);
                assert_eq!(payloads.iter().sum::<u64>(), 3);
            }
        }
    }

    /// Two operators whose tags collide travel in one exchange: each
    /// `reduce` sees only its own operator's items, in source-rank order.
    #[test]
    fn colliding_tags_reach_only_their_own_operator() {
        let out = World::run(2, |comm| {
            let (mut a, mut b) = (CountOp::default(), CountOp::default());
            let me = comm.rank() as u64;
            let streams = vec![items(0..4, me), items(0..4, 100 + me)];
            run(&comm, &mut [&mut a, &mut b], streams);
            (a.seen, b.seen)
        });
        for (rank, (a, b)) in out.into_iter().enumerate() {
            let (t0, t1) = (rank as u64, rank as u64 + 2);
            assert_eq!(a, [(t0, vec![0, 1]), (t1, vec![0, 1])]);
            assert_eq!(b, [(t0, vec![100, 101]), (t1, vec![100, 101])]);
        }
    }

    /// The four GTC operators (sort, histogram, 2-D histogram, bitmap
    /// index) through one exchange on 2 ranks: one collective call per
    /// rank, the `alltoall` — no `finalize` enters one.
    #[test]
    fn four_gtc_operators_share_one_alltoall() {
        use crate::ops::{BitmapIndexOp, Histogram2dOp, HistogramOp, SortOp};
        use crate::schema::make_particle_pg;
        let (_, world) = World::run_with_stats(2, |comm| {
            let dir = std::env::temp_dir().join(format!(
                "one-alltoall-{}-{}",
                std::process::id(),
                comm.rank()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let me = comm.rank() as u64;
            let rows: Vec<f64> = (0..16u64)
                .flat_map(|i| [i as f64, 1., 2., 3., 4., 5., me as f64, i as f64])
                .collect();
            let pg = make_particle_pg(me, 0, rows);
            let (mut sort, mut hist, mut hist2d, mut bitmap) = (
                SortOp::new(),
                HistogramOp::new(vec![0], 8),
                Histogram2dOp::new(vec![(0, 1)], 4),
                BitmapIndexOp::new(0, 8),
            );
            let mut ops: [&mut dyn StreamOp; 4] = [&mut sort, &mut hist, &mut hist2d, &mut bitmap];
            let mut attrs = AttrList::new();
            crate::ops::attach_particle_stats(&pg, &mut attrs);
            let agg = Aggregates::local_only(&[(comm.rank(), attrs)]);
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 2,
                agg: Some(&agg),
            };
            let chunk = PackedChunk::new(pg);
            let streams = ops
                .iter_mut()
                .map(|op| {
                    op.initialize(&agg, &ctx);
                    op.map(&chunk, &ctx)
                })
                .collect();
            let results = exchange(&mut ops, streams, &ctx, &[]);
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(results.len(), 4);
        });
        assert_eq!(world.stats().collective_calls(), 2);
    }

    /// `reduce` sees an operator's owned tags in ascending order, however
    /// the ranks emitted them and wherever the tags came from.
    #[test]
    fn reduce_is_called_in_ascending_tag_order() {
        let out = World::run(3, |comm| {
            let mut op = CountOp::default();
            let me = comm.rank() as u64;
            // Tags 0..12, descending and rotated by the rank.
            let tags = (0..12u64).rev().map(|t| (t + 5 * me) % 12);
            let stream = tags.map(|t| Tagged::new(t, me.to_le_bytes().to_vec()));
            run(&comm, &mut [&mut op], vec![stream.collect()]);
            op.seen
        });
        for (rank, seen) in out.into_iter().enumerate() {
            let r = rank as u64;
            let tags: Vec<u64> = seen.iter().map(|(tag, _)| *tag).collect();
            assert_eq!(tags, [r, r + 3, r + 6, r + 9], "rank {rank}");
            assert!(seen.iter().all(|(_, from)| *from == [0, 1, 2]));
        }
    }
}
