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
use minimpi::Comm;

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
    pub tag: u64,
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
    pub fn new(op: &str) -> Self {
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
    pub agg: Option<&'a Aggregates>,
}

impl<'a> OpCtx<'a> {
    /// Attach the step aggregates.
    pub fn with_agg(mut self, agg: &'a Aggregates) -> Self {
        self.agg = Some(agg);
        self
    }

    pub fn my_rank(&self) -> usize {
        self.comm.rank()
    }

    pub fn n_ranks(&self) -> usize {
        self.comm.size()
    }

    /// The thread-safe subset of this context that `map` needs.
    pub fn map_ctx(&self) -> MapCtx<'a> {
        MapCtx {
            my_rank: self.comm.rank(),
            n_ranks: self.comm.size(),
            step: self.step,
            n_compute: self.n_compute,
            agg: self.agg,
        }
    }
}

/// The map-phase execution context: everything [`ChunkMapper::map_chunk`]
/// may consult, and nothing more. Unlike [`OpCtx`] it carries no `&Comm`,
/// so it is `Send + Sync` and can be shared by a pool of decode+map
/// workers. (Map is communication-free by construction — the shuffle is
/// the only communicating phase between initialize and finalize.)
#[derive(Debug, Clone, Copy)]
pub struct MapCtx<'a> {
    /// This pipeline rank.
    pub my_rank: usize,
    /// Number of pipeline ranks.
    pub n_ranks: usize,
    /// The I/O step being processed.
    pub step: u64,
    /// Total number of *compute* ranks contributing chunks.
    pub n_compute: usize,
    /// The step's global aggregates, when the runtime has them.
    pub agg: Option<&'a Aggregates>,
}

impl MapCtx<'_> {
    pub fn my_rank(&self) -> usize {
        self.my_rank
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }
}

/// The pure map half of an operator: per-chunk, stateless, shareable.
///
/// `map_chunk` must depend only on the chunk, the context, and state
/// frozen at [`StreamOp::mapper`] time (i.e. set by `initialize`). The
/// staging runtime calls it concurrently from N workers and merges the
/// per-chunk outputs in canonical chunk order before `combine`, which
/// makes operator results **bit-identical for every worker count** —
/// per-chunk purity is what buys that, since floating-point accumulation
/// across chunks is not associative and must happen in one place
/// (`combine`), in one deterministic order.
pub trait ChunkMapper: Send + Sync {
    fn map_chunk(&self, chunk: &PackedChunk, ctx: &MapCtx) -> Vec<Tagged>;
}

/// Optional compute-node first pass (paper Stage 1a): local, deterministic
/// work whose small results ride on the data-fetch request.
pub trait ComputeSideOp: Send + Sync {
    /// Inspect the outgoing process group; attach partial results
    /// (local counts, min/max, filter summaries) to `out`.
    fn partial_calculate(&self, pg: &bpio::ProcessGroup, out: &mut AttrList);
}

/// A pluggable in-transit operation (paper Fig. 5).
///
/// Call order per I/O step, on every pipeline rank:
/// `initialize` → `map`* (once per chunk, streaming, possibly from N
/// concurrent workers via [`StreamOp::mapper`]) → `combine` → shuffle
/// (`partition` routes tags) → `reduce`* (once per owned tag) →
/// `finalize`.
pub trait StreamOp: Send {
    fn name(&self) -> &str;

    /// Set up per-step state from the global aggregates.
    fn initialize(&mut self, agg: &Aggregates, ctx: &OpCtx);

    /// The operator's pure map half, snapshotting any state `initialize`
    /// set up. Called once per step, after `initialize`; the returned
    /// mapper is shared (`Arc`) by every decode+map worker.
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
    /// transit.
    fn reduce(&mut self, tag: u64, items: Vec<Bytes>, ctx: &OpCtx);

    /// Emit results (files, statistics) and reset per-step state.
    fn finalize(&mut self, ctx: &OpCtx) -> OpResult;
}

/// Exchange tagged intermediates among pipeline ranks: every item lands
/// on `op.partition(tag)`'s rank, grouped by tag. Collective over `comm`.
///
/// Zero-copy: items are routed into per-destination buckets of
/// `(tag, Bytes)` pairs and exchanged as-is — the shared buffers move
/// through the communicator by reference count, with no wire framing to
/// serialize on the way out or parse (and re-copy) on the way in. The
/// traffic counters still see framed sizes (see the `minimpi` impl of
/// `MpiData` for buckets), so bandwidth numbers stay comparable with
/// the serialized encoding this replaced.
pub fn shuffle_tagged(
    items: Vec<Tagged>,
    op: &dyn StreamOp,
    comm: &Comm,
) -> BTreeMap<u64, Vec<Bytes>> {
    let n = comm.size();
    // First pass: route every item and count per-destination items so
    // the buckets below never reallocate.
    let mut routed = Vec::with_capacity(items.len());
    let mut bucket_items = vec![0usize; n];
    let mut misrouted = 0usize;
    for item in &items {
        let dst = op.partition(item.tag, n);
        // Contract: partition() must return a rank in 0..n. A violation
        // is an operator bug — wrap (modulo) so routing stays a function
        // of the returned value, and warn loudly, rather than silently
        // clamping everything onto the last rank.
        let dst = if dst < n {
            dst
        } else {
            misrouted += 1;
            dst % n
        };
        routed.push(dst);
        bucket_items[dst] += 1;
    }
    if misrouted > 0 {
        eprintln!(
            "warning: op '{}' partition() returned out-of-range ranks for \
             {misrouted} item(s); wrapped modulo {n}",
            op.name()
        );
    }
    // Second pass: move each item's payload into its bucket.
    let mut buckets: Vec<Vec<(u64, Bytes)>> = bucket_items
        .iter()
        .map(|&cnt| Vec::with_capacity(cnt))
        .collect();
    for (item, dst) in items.into_iter().zip(routed) {
        buckets[dst].push((item.tag, item.bytes));
    }
    let received = comm.alltoall(buckets);
    // Regroup by tag — again by move; payload bytes are untouched.
    let mut grouped: BTreeMap<u64, Vec<Bytes>> = BTreeMap::new();
    for bucket in received {
        for (tag, bytes) in bucket {
            grouped.entry(tag).or_default().push(bytes);
        }
    }
    grouped
}

/// Run the post-map phases (combine → shuffle → reduce → finalize) for
/// one operator. Shared by the staging runtime and the in-compute runner,
/// which differ only in where `map` inputs come from. Each phase runs
/// under an obs span, so per-stage timings land in the step tables of
/// the metrics snapshot (the paper's Fig. 7–9 breakdowns).
pub fn complete_pipeline(op: &mut dyn StreamOp, mapped: Vec<Tagged>, ctx: &OpCtx) -> OpResult {
    complete_pipeline_traced(op, mapped, ctx, &[])
}

/// [`complete_pipeline`] that also marks each source chunk's `shuffled`
/// and `reduced` lineage transitions as the phases complete. `chunk_srcs`
/// are the compute ranks whose chunks fed `mapped` (the staging runtime
/// passes its pull order); the lineage view is first-write-wins, so when
/// several operators run, the first operator's phases — the earliest
/// moment the chunk's data crossed that boundary — set the timestamps.
/// The per-chunk marks serve only that view, so they are skipped unless
/// the registry is logging events.
pub fn complete_pipeline_traced(
    op: &mut dyn StreamOp,
    mapped: Vec<Tagged>,
    ctx: &OpCtx,
    chunk_srcs: &[usize],
) -> OpResult {
    let (step, rank) = (ctx.step, ctx.comm.rank());
    let mark_chunks = |stage: &'static str| {
        if obs::global().detail() {
            for &src in chunk_srcs {
                obs::mark(stage, step).rank(rank).chunk(src as u64);
            }
        }
    };
    let combined = {
        let _s = obs::span!("combine", step).rank(rank);
        op.combine(mapped)
    };
    let grouped = {
        let _s = obs::span!("shuffle", step).rank(rank);
        shuffle_tagged(combined, op, ctx.comm)
    };
    mark_chunks("shuffled");
    {
        let _s = obs::span!("reduce", step).rank(rank);
        for (tag, items) in grouped {
            op.reduce(tag, items, ctx);
        }
    }
    mark_chunks("reduced");
    ctx.comm.barrier();
    let _s = obs::span!("finalize", step).rank(rank);
    op.finalize(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimpi::World;

    /// Word-count-flavoured test op: map emits (value, 1), reduce sums.
    struct CountOp {
        counts: BTreeMap<u64, u64>,
    }

    impl StreamOp for CountOp {
        fn name(&self) -> &str {
            "count"
        }
        fn initialize(&mut self, _agg: &Aggregates, _ctx: &OpCtx) {
            self.counts.clear();
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
            let sum = items
                .iter()
                .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
                .sum::<u64>();
            *self.counts.entry(tag).or_default() += sum;
        }
        fn finalize(&mut self, _ctx: &OpCtx) -> OpResult {
            OpResult::default()
        }
    }

    #[test]
    fn shuffle_routes_by_partition_and_groups_by_tag() {
        let out = World::run(4, |comm| {
            let op = CountOp {
                counts: BTreeMap::new(),
            };
            // Every rank emits tags 0..8, payload = its rank.
            let items: Vec<Tagged> = (0..8u64)
                .map(|t| Tagged::new(t, (comm.rank() as u64).to_le_bytes().to_vec()))
                .collect();
            let grouped = shuffle_tagged(items, &op, &comm);
            // Default partition: tag % 4 == my rank.
            let my_tags: Vec<u64> = grouped.keys().copied().collect();
            let all_from_everyone = grouped.values().all(|items| items.len() == 4);
            (comm.rank(), my_tags, all_from_everyone)
        });
        for (rank, tags, complete) in out {
            assert_eq!(tags, vec![rank as u64, rank as u64 + 4]);
            assert!(complete);
        }
    }

    /// An op whose `partition` violates the contract and returns ranks
    /// ≥ n. The shuffle must wrap these modulo n — historically it
    /// clamped them all onto the last rank, skewing that rank's load and
    /// mis-grouping tags.
    struct BadPartitionOp;

    impl StreamOp for BadPartitionOp {
        fn name(&self) -> &str {
            "bad-partition"
        }
        fn initialize(&mut self, _agg: &Aggregates, _ctx: &OpCtx) {}
        fn mapper(&self) -> Arc<dyn ChunkMapper> {
            struct NoMap;
            impl ChunkMapper for NoMap {
                fn map_chunk(&self, _chunk: &PackedChunk, _ctx: &MapCtx) -> Vec<Tagged> {
                    unreachable!("driven directly in tests")
                }
            }
            Arc::new(NoMap)
        }
        fn partition(&self, tag: u64, n_ranks: usize) -> usize {
            // Off-by-a-lot: always out of range for n_ranks = 4.
            tag as usize + n_ranks
        }
        fn reduce(&mut self, _tag: u64, _items: Vec<Bytes>, _ctx: &OpCtx) {}
        fn finalize(&mut self, _ctx: &OpCtx) -> OpResult {
            OpResult::default()
        }
    }

    #[test]
    fn out_of_range_partition_wraps_modulo_not_clamped() {
        let out = World::run(4, |comm| {
            let op = BadPartitionOp;
            // Rank 0 emits tags 0..8; everyone participates in the
            // collective.
            let items: Vec<Tagged> = if comm.rank() == 0 {
                (0..8u64).map(|t| Tagged::new(t, vec![t as u8])).collect()
            } else {
                Vec::new()
            };
            let grouped = shuffle_tagged(items, &op, &comm);
            grouped.keys().copied().collect::<Vec<u64>>()
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

    #[test]
    fn empty_shuffle_is_fine() {
        let out = World::run(2, |comm| {
            let op = CountOp {
                counts: BTreeMap::new(),
            };
            shuffle_tagged(Vec::new(), &op, &comm).len()
        });
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn reduce_sees_all_contributions() {
        let out = World::run(3, |comm| {
            let mut op = CountOp {
                counts: BTreeMap::new(),
            };
            let items: Vec<Tagged> = (0..6u64)
                .map(|t| Tagged::new(t, 1u64.to_le_bytes().to_vec()))
                .collect();
            let grouped = shuffle_tagged(items, &op, &comm);
            let dir = std::env::temp_dir();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 3,
                agg: None,
            };
            for (tag, its) in grouped {
                op.reduce(tag, its, &ctx);
            }
            op.counts
        });
        // Each tag owned by tag%3; each contributes 3 (one per rank).
        for (rank, counts) in out.iter().enumerate() {
            for (tag, n) in counts {
                assert_eq!(*tag as usize % 3, rank);
                assert_eq!(*n, 3);
            }
        }
    }
}
