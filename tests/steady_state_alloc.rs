//! Steady-state allocation of the small-chunk dump: a dump of a 128-rank
//! Pixie3D world through clients → two staging ranks → `ReorgOp`
//! allocates nothing proportional to the data on the generator thread —
//! not even on the first dump, since `write_pg` exposes the process
//! group's own arrays and copies no payload — and, once warm, no slab on
//! the staging ranks, where a chunk's pull, decode and map together ask
//! the allocator, and free blocks, a bounded number of times: the
//! exposer's process group is freed on the exposer's side. This is
//! ROADMAP item 1's "page-fault count per step flat", made checkable
//! without the benchmark harness: a block that is never allocated is
//! never faulted in. The large-chunk GTC dump through `SortOp` is held
//! to the same on the generator thread, and for its output: a warm step
//! sorts into the buffer the previous step's write handed back — and the
//! sort's finalize writes that 4 MiB output to its BP file without
//! copying it. A warm DataSpaces range answer is
//! one block, asked for once and never zeroed.
//!
//! Its own test binary, because it replaces the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bytes::Bytes;
use predata::apps::{GtcWorld, PixieWorld};
use predata::bpio::DataArray;
use predata::core::agg::Aggregates;
use predata::core::chunk::PackedChunk;
use predata::core::op::{
    complete_pipeline, ChunkMapper, MapCtx, OpCtx, OpResult, StreamOp, Tagged,
};
use predata::core::ops::{attach_particle_stats, ReorgOp, SortOp};
use predata::core::schema::{make_particle_pg, PARTICLE_WIDTH};
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::dataspaces::{DataSpaces, DsConfig, Region};
use predata::ffs::AttrList;
use predata::minimpi::World;
use predata::transport::{BlockRouter, Fabric, FetchRequest, FifoPolicy, PullPolicy, Router};

/// A block a 32 KiB chunk or a 256 KiB slab would need; every per-chunk
/// bookkeeping allocation is far below it.
const BIG: usize = 16 << 10;

/// A block half a GTC staging rank's 4 MiB sort output would need; the
/// 1 MiB chunks it pulls and the sort's 1 MiB of key slots stay below it.
const HUGE: usize = 2 << 20;

/// The size of a whole-domain `query_scan` range answer.
const ANSWER: usize = 4 << 20;

thread_local! {
    /// Bytes this thread has asked the allocator for, and how many of
    /// its requests were for `BIG` or more.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Requests this thread has made, of any size.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread has freed.
    static FREES: Cell<u64> = const { Cell::new(0) };
    /// `CALLS` and `FREES` when this thread first and last entered a
    /// measured `map_chunk`, and how many times it did.
    static MAPS: Cell<(Counts, Counts, u64)> = const { Cell::new(((0, 0), (0, 0), 0)) };
    static BIG_BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Requests for `ANSWER` or more, by entry point: `alloc`,
    /// `alloc_zeroed`, `realloc`.
    static ANSWER_SIZED: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    /// Whether this thread is a GTC staging thread, whose `HUGE`
    /// requests count in `HUGE_ON_STAGING`.
    static GTC_STAGING: Cell<bool> = const { Cell::new(false) };
}

/// A thread's `(CALLS, FREES)` at one moment.
type Counts = (u64, u64);

/// `HUGE` requests made by GTC staging threads, from any of them.
static HUGE_ON_STAGING: AtomicU64 = AtomicU64::new(0);

struct Counting;

/// Count a request of `size` B made through entry point `via` (an
/// index of `ANSWER_SIZED`).
fn count(size: usize, via: usize) {
    if size >= ANSWER {
        ANSWER_SIZED.with(|a| {
            let mut n = a.get();
            n[via] += 1;
            a.set(n);
        });
    }
    BYTES.with(|b| b.set(b.get() + size as u64));
    CALLS.with(|c| c.set(c.get() + 1));
    if size >= BIG {
        BIG_BLOCKS.with(|b| b.set(b.get() + 1));
    }
    if size >= HUGE && GTC_STAGING.with(Cell::get) {
        HUGE_ON_STAGING.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised thread-locals without destructors, so touching
// them allocates nothing and is valid for the whole life of a thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, 2);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|f| f.set(f.get() + 1));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}

fn big_blocks() -> u64 {
    BIG_BLOCKS.with(Cell::get)
}

const WARM_UP: u64 = 3;

/// What the staging side tells the test: how many `(rank, step)`
/// finalizes have happened, and how many big blocks `initialize` and
/// `reduce` of the measured step asked for.
#[derive(Default)]
struct Seen {
    finalized: Mutex<u64>,
    cv: Condvar,
    big_in_initialize: AtomicU64,
    big_in_reduce: AtomicU64,
    /// Per staging rank of the measured step: allocator calls and frees
    /// between its first and its last `map_chunk`, and the chunks in
    /// between.
    calls_between_maps: Mutex<Vec<(u64, u64, u64)>>,
}

/// `ReorgOp`, with the measured step's `initialize` and `reduce` counted,
/// and the allocator calls of its rank thread between two maps.
struct Probed {
    op: ReorgOp,
    seen: Arc<Seen>,
    step: u64,
}

/// A mapper that notes in `MAPS`, on the calling thread, how many
/// allocator calls and frees it had made each time the mapper is entered.
struct CallCounted(Arc<dyn ChunkMapper>);

impl ChunkMapper for CallCounted {
    fn map_chunk(&self, chunk: &PackedChunk, ctx: &MapCtx) -> Vec<Tagged> {
        let calls = (CALLS.with(Cell::get), FREES.with(Cell::get));
        MAPS.with(|m| {
            let (first, _, n) = m.get();
            m.set((if n == 0 { calls } else { first }, calls, n + 1));
        });
        self.0.map_chunk(chunk, ctx)
    }
}

impl StreamOp for Probed {
    fn name(&self) -> &str {
        self.op.name()
    }
    fn initialize(&mut self, agg: &Aggregates, ctx: &OpCtx) {
        self.step = ctx.step;
        let before = big_blocks();
        self.op.initialize(agg, ctx);
        if ctx.step == WARM_UP {
            let big = big_blocks() - before;
            self.seen
                .big_in_initialize
                .fetch_add(big, Ordering::Relaxed);
        }
    }
    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        match self.step {
            WARM_UP => Arc::new(CallCounted(self.op.mapper())),
            _ => self.op.mapper(),
        }
    }
    fn partition(&self, tag: u64, n_ranks: usize) -> usize {
        self.op.partition(tag, n_ranks)
    }
    fn combine(&mut self, items: Vec<Tagged>) -> Vec<Tagged> {
        self.op.combine(items)
    }
    fn reduce(&mut self, tag: u64, items: Vec<Bytes>, ctx: &OpCtx) {
        let before = big_blocks();
        self.op.reduce(tag, items, ctx);
        if ctx.step == WARM_UP {
            let big = big_blocks() - before;
            self.seen.big_in_reduce.fetch_add(big, Ordering::Relaxed);
        }
    }
    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        if ctx.step == WARM_UP {
            let (first, last, maps) = MAPS.with(Cell::get);
            let mut calls = self.seen.calls_between_maps.lock().unwrap();
            calls.push((last.0 - first.0, last.1 - first.1, maps.saturating_sub(1)));
        }
        let result = self.op.finalize(ctx);
        *self.seen.finalized.lock().unwrap() += 1;
        self.seen.cv.notify_all();
        result
    }
}

/// Allocator calls a warm Pixie3D staging rank may make per chunk, from
/// entering one chunk's map to entering the next's: the map, the pull
/// that lands the next chunk, and its decode into the rank's kept chunk.
/// Measured at 23.2: the landed buffer (1), `ffs::decode_view`'s schema
/// and field table (18), and the map's item per destination with the
/// vectors around it. A schema whose arrays held a list of dimensions
/// measured 24.2; wrapping each landed buffer in a shared handle 25.2;
/// decoding into fresh arrays and mapping one piece per variable 93.2.
const CALLS_PER_CHUNK: u64 = 32;

/// Blocks a warm Pixie3D staging rank may free per chunk, over the same
/// span: what its own pull, decode and map let go of. The exposer's
/// process group — its name, variable names, dimension lists and arrays —
/// is freed on the exposer's thread when it consumes the pull's
/// completion, not here. Measured at 20.0 (21.0 while a schema's arrays
/// held a list of dimensions); freeing the group on the staging thread
/// measured 78.0.
const FREES_PER_CHUNK: u64 = 32;

#[test]
fn a_warm_dump_allocates_nothing_proportional_to_the_data() {
    let mut world = PixieWorld::new([4, 4, 8], [8, 8, 8]);
    let (n_compute, n_staging) = (world.n_ranks(), 2);
    assert_eq!(n_compute, 128);
    let dir = std::env::temp_dir().join(format!("steady-alloc-{}", std::process::id()));
    let seen = Arc::new(Seen::default());

    let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    // A staging rank's request queue is an unbounded `VecDeque`: whether
    // it doubles during a dump depends on how far behind that rank's
    // thread happens to be scheduled, and a doubling inside the measured
    // dump reads as a 2–4 KiB `write_pg` (15 % of runs on two cores).
    // Grow every queue to a whole dump's requests before anything is
    // measured; a `VecDeque` keeps its capacity.
    let handle = computes[0].expose(vec![0u8; 1].into(), 0).unwrap();
    for (rank, staging) in stagings.iter().enumerate() {
        for _ in 0..n_compute {
            let req = FetchRequest {
                src_rank: 0,
                io_step: 0,
                handle,
                chunk_bytes: 1,
                format: 0,
                attrs: AttrList::new(),
            };
            computes[0].send_request(rank, req).unwrap();
        }
        for _ in 0..n_compute {
            staging.recv_request(Duration::from_secs(1)).unwrap();
        }
    }
    computes[0].reclaim(handle);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
    let for_ops = Arc::clone(&seen);
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(move |_| {
            vec![Box::new(Probed {
                op: ReorgOp::pixie3d(),
                seen: Arc::clone(&for_ops),
                step: 0,
            }) as Box<dyn StreamOp>]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        WARM_UP + 1,
    );
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![Arc::new(ReorgOp::pixie3d())]))
        .collect();

    for step in 0..=WARM_UP {
        // The simulation's own buffers, outside the measurement — and
        // the witness that the counter sees this thread's allocations.
        let bytes_before = bytes_allocated();
        let pgs: Vec<_> = (0..n_compute)
            .map(|r| {
                let mut pg = world.output_pg(r);
                pg.step = step;
                pg
            })
            .collect();
        if step == 0 {
            assert!(
                bytes_allocated() - bytes_before >= n_compute as u64 * (32 << 10),
                "the counter sees the simulation's first output_pg allocate its arrays"
            );
        }
        let big_before = big_blocks();
        let mut worst_write = 0;
        for (client, pg) in clients.iter().zip(pgs) {
            let before = bytes_allocated();
            let receipt = client.write_pg(pg).unwrap();
            worst_write = worst_write.max(bytes_allocated() - before);
            assert!(
                receipt.bytes > 32 << 10,
                "a Pixie3D chunk is 32 KiB of fields"
            );
        }
        for client in &clients {
            client.wait_drained(Duration::from_secs(30)).unwrap();
        }
        assert_eq!(
            big_blocks() - big_before,
            0,
            "dump {step} allocated a chunk-sized block on the generator thread"
        );
        if step == WARM_UP {
            assert!(
                worst_write < 1024,
                "a warm write_pg allocated {worst_write} B"
            );
        }
        // Lockstep: the staging side has let go of every buffer of this
        // dump before the next one looks for a buffer to pack into.
        let done = seen.finalized.lock().unwrap();
        let _done = seen
            .cv
            .wait_timeout_while(done, Duration::from_secs(30), |n| {
                *n < (step + 1) * n_staging as u64
            })
            .unwrap();
        world.step();
    }
    for rank in area.join() {
        rank.expect("staging rank ran every step");
    }
    assert_eq!(
        seen.big_in_initialize.load(Ordering::Relaxed),
        0,
        "ReorgOp::initialize allocated a slab on a warm step"
    );
    assert_eq!(
        seen.big_in_reduce.load(Ordering::Relaxed),
        0,
        "ReorgOp::reduce allocated a piece-sized block on a warm step"
    );
    let calls = seen.calls_between_maps.lock().unwrap();
    assert_eq!(calls.len(), n_staging, "each staging rank reported once");
    for &(calls, frees, chunks) in calls.iter() {
        assert_eq!(chunks, n_compute as u64 / n_staging as u64 - 1);
        let per_chunk = calls as f64 / chunks as f64;
        let freed = frees as f64 / chunks as f64;
        eprintln!(
            "a warm Pixie3D chunk: {per_chunk:.1} allocator calls and {freed:.1} frees \
             on its staging thread"
        );
        assert!(
            per_chunk <= CALLS_PER_CHUNK as f64,
            "a warm Pixie3D chunk made {per_chunk:.1} allocator calls on its staging thread"
        );
        assert!(
            freed <= FREES_PER_CHUNK as f64,
            "a warm Pixie3D chunk freed {freed:.1} blocks on its staging thread"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `SortOp` on a GTC staging rank. The rank thread, which runs all of
/// it, is marked a staging thread the first time it maps a chunk, and
/// its `HUGE` requests count from then on.
struct OnStaging {
    op: SortOp,
    seen: Arc<Seen>,
}

struct MarkingMapper(Arc<dyn ChunkMapper>);

impl ChunkMapper for MarkingMapper {
    fn map_chunk(&self, chunk: &PackedChunk, ctx: &MapCtx) -> Vec<Tagged> {
        GTC_STAGING.with(|s| s.set(true));
        self.0.map_chunk(chunk, ctx)
    }
}

impl StreamOp for OnStaging {
    fn name(&self) -> &str {
        self.op.name()
    }
    fn initialize(&mut self, agg: &Aggregates, ctx: &OpCtx) {
        GTC_STAGING.with(|s| s.set(true));
        self.op.initialize(agg, ctx);
    }
    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        Arc::new(MarkingMapper(self.op.mapper()))
    }
    fn partition(&self, tag: u64, n_ranks: usize) -> usize {
        self.op.partition(tag, n_ranks)
    }
    fn reduce(&mut self, tag: u64, items: Vec<Bytes>, ctx: &OpCtx) {
        self.op.reduce(tag, items, ctx);
    }
    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        let result = self.op.finalize(ctx);
        *self.seen.finalized.lock().unwrap() += 1;
        self.seen.cv.notify_all();
        result
    }
}

#[test]
fn a_warm_gtc_step_sorts_into_the_kept_output_buffer() {
    // The `gtc_staged` dump: eight ranks of 1 MiB particle chunks, about
    // 4 MiB of sorted rows per staging rank.
    let (n_compute, n_staging, particles, steps) = (8, 2, 16_384, 4u64);
    let mut world = GtcWorld::new(n_compute, particles, 29);
    let dir = std::env::temp_dir().join(format!("steady-alloc-gtc-{}", std::process::id()));
    let seen = Arc::new(Seen::default());

    let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
    let for_ops = Arc::clone(&seen);
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(move |_| {
            vec![Box::new(OnStaging {
                op: SortOp::new(),
                seen: Arc::clone(&for_ops),
            }) as Box<dyn StreamOp>]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        steps,
    );
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![Arc::new(SortOp::new())]))
        .collect();

    let mut warm_from = 0;
    for step in 0..steps {
        if step == 2 {
            warm_from = HUGE_ON_STAGING.load(Ordering::Relaxed);
        }
        // The simulation's own buffers, outside the measurement — and
        // the witness that the counter sees chunk-sized blocks at all.
        let big_before = big_blocks();
        let pgs: Vec<_> = (0..n_compute)
            .map(|rank| {
                let mut pg = world.output_pg(rank);
                pg.step = step;
                pg
            })
            .collect();
        assert!(
            big_blocks() - big_before >= n_compute as u64,
            "the counter sees output_pg allocate each rank's particle array"
        );
        let big_before = big_blocks();
        let mut worst_write = 0;
        for (client, pg) in clients.iter().zip(pgs) {
            let before = bytes_allocated();
            let receipt = client.write_pg(pg).unwrap();
            worst_write = worst_write.max(bytes_allocated() - before);
            assert!(
                receipt.bytes > 3 << 18,
                "a GTC chunk is about 1 MiB of particles"
            );
        }
        for client in &clients {
            client.wait_drained(Duration::from_secs(30)).unwrap();
        }
        assert_eq!(
            big_blocks() - big_before,
            0,
            "GTC dump {step} allocated a chunk-sized block on the generator thread"
        );
        if step >= 2 {
            assert!(
                worst_write < 1024,
                "a warm GTC write_pg allocated {worst_write} B"
            );
        }
        // Lockstep, as in the Pixie3D case: the step is written before
        // the next one starts.
        let done = seen.finalized.lock().unwrap();
        let _done = seen
            .cv
            .wait_timeout_while(done, Duration::from_secs(30), |n| {
                *n < (step + 1) * n_staging as u64
            })
            .unwrap();
        if step == 0 {
            assert!(
                HUGE_ON_STAGING.load(Ordering::Relaxed) > 0,
                "the counter sees the first step allocate its sort output"
            );
        }
        world.step();
    }
    for rank in area.join() {
        rank.expect("staging rank ran every step");
    }
    assert_eq!(
        HUGE_ON_STAGING.load(Ordering::Relaxed) - warm_from,
        0,
        "a warm GTC step asked for a block of {HUGE} B or more on a staging thread"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `SortOp`, with the bytes its `finalize` asks the allocator for.
struct FinalizeCounted {
    op: SortOp,
    finalize_bytes: u64,
}

impl StreamOp for FinalizeCounted {
    fn name(&self) -> &str {
        self.op.name()
    }
    fn initialize(&mut self, agg: &Aggregates, ctx: &OpCtx) {
        self.op.initialize(agg, ctx);
    }
    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        self.op.mapper()
    }
    fn partition(&self, tag: u64, n_ranks: usize) -> usize {
        self.op.partition(tag, n_ranks)
    }
    fn reduce(&mut self, tag: u64, items: Vec<Bytes>, ctx: &OpCtx) {
        self.op.reduce(tag, items, ctx);
    }
    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        let before = bytes_allocated();
        let result = self.op.finalize(ctx);
        self.finalize_bytes = bytes_allocated() - before;
        result
    }
}

/// The output path copies no payload: `SortOp::finalize` lends its
/// 4 MiB of sorted rows to a process group, and `kit::write_output`
/// hands them to the vectored `BpWriter` as they lie. The whole finalize
/// — group, writer, index, footer — asks the allocator for a small
/// fraction of one copy of the rows.
#[test]
fn a_sort_output_is_written_without_a_payload_copy() {
    // The `gtc_staged` staging rank's share: 65 536 particles, 4 MiB.
    const ROWS: usize = 65_536;
    let dir = std::env::temp_dir().join(format!("steady-alloc-out-{}", std::process::id()));
    let out_dir = dir.clone();
    let (finalize_bytes, files) = World::run(1, move |comm| {
        let rows: Vec<f64> = (0..ROWS)
            .flat_map(|i| {
                let label = ((i * 7919) % ROWS) as f64;
                [i as f64, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, label]
            })
            .collect();
        let pg = make_particle_pg(0, 0, rows);
        let mut attrs = AttrList::new();
        attach_particle_stats(&pg, &mut attrs);
        let agg = Aggregates::local_only(&[(0, attrs)]);
        let ctx = OpCtx {
            comm: &comm,
            out_dir: &out_dir,
            step: 0,
            n_compute: 1,
            agg: Some(&agg),
        };
        std::fs::create_dir_all(&out_dir).unwrap();
        let mut op = FinalizeCounted {
            op: SortOp::new(),
            finalize_bytes: 0,
        };
        op.initialize(&agg, &ctx);
        let mapped = op.map(&PackedChunk::new(pg), &ctx);
        let result = complete_pipeline(&mut op, mapped, &ctx);
        (op.finalize_bytes, result.files)
    })
    .remove(0);
    assert_eq!(files.len(), 1, "the sorted rows were written");
    let written = std::fs::metadata(&files[0]).unwrap().len();
    let payload = (ROWS * PARTICLE_WIDTH * 8) as u64;
    assert!(written > payload, "the file holds the {payload} B of rows");
    assert!(
        finalize_bytes < payload / 16,
        "finalize asked for {finalize_bytes} B writing a {payload} B output: a payload copy"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `query_scan` space: a 1024 × 512 f64 domain in 64 × 32 blocks
/// over 8 shards, fully committed. A warm whole-domain `Session::get`
/// asks for one block of `ANSWER` B or more — through `alloc`, never
/// `alloc_zeroed`, and never regrown — and writes the answer into it.
#[test]
fn a_warm_range_answer_is_one_unzeroed_block() {
    let cfg = DsConfig::new(vec![1024, 512], vec![64, 32], 8);
    let whole = Region::whole(&cfg.domain);
    let ds = DataSpaces::new(cfg);
    let data: Vec<f64> = (0..whole.volume()).map(|i| i as f64).collect();
    ds.put("f", 0, &whole, DataArray::F64(data.clone()))
        .unwrap();
    ds.commit("f", 0);
    let session = ds.session_now("f", 0).unwrap();
    session.get(&whole).unwrap();

    let before = ANSWER_SIZED.with(Cell::get);
    let answer = session.get(&whole).unwrap();
    let after = ANSWER_SIZED.with(Cell::get);
    assert_eq!(answer.byte_len(), ANSWER);
    assert_eq!(answer, DataArray::F64(data));
    assert_eq!(
        [0, 1, 2].map(|i| after[i] - before[i]),
        [1, 0, 0],
        "requests of {ANSWER} B or more for one warm answer, by [alloc, alloc_zeroed, realloc]"
    );
}
