//! Steady-state allocation of the small-chunk dump: once every buffer
//! has been through one exposure, a dump of a 128-rank Pixie3D world
//! through clients → two staging ranks → `ReorgOp` allocates nothing
//! proportional to the data — no pack buffer on the generator thread, no
//! slab on the staging ranks. This is ROADMAP item 1's "page-fault count
//! per step flat", made checkable without the benchmark harness: a block
//! that is never allocated is never faulted in. The large-chunk GTC dump
//! through `SortOp` is held to the same for its output: a warm step
//! sorts into the buffer the previous step's write handed back.
//!
//! Its own test binary, because it replaces the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bytes::Bytes;
use predata::apps::{GtcWorld, PixieWorld};
use predata::core::agg::Aggregates;
use predata::core::chunk::PackedChunk;
use predata::core::op::{ChunkMapper, MapCtx, OpCtx, OpResult, StreamOp, Tagged};
use predata::core::ops::{ReorgOp, SortOp};
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::ffs::AttrList;
use predata::transport::{BlockRouter, Fabric, FetchRequest, FifoPolicy, PullPolicy, Router};

/// A block a 32 KiB chunk or a 256 KiB slab would need; every per-chunk
/// bookkeeping allocation is far below it.
const BIG: usize = 16 << 10;

/// A block half a GTC staging rank's 4 MiB sort output would need; the
/// 1 MiB chunks it pulls and the sort's 1 MiB of key slots stay below it.
const HUGE: usize = 2 << 20;

thread_local! {
    /// Bytes this thread has asked the allocator for, and how many of
    /// its requests were for `BIG` or more.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static BIG_BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread is a GTC staging thread, whose `HUGE`
    /// requests count in `HUGE_ON_STAGING`.
    static GTC_STAGING: Cell<bool> = const { Cell::new(false) };
}

/// `HUGE` requests made by GTC staging threads, from any of them.
static HUGE_ON_STAGING: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(size: usize) {
    BYTES.with(|b| b.set(b.get() + size as u64));
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
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
}

/// `ReorgOp`, with the measured step's `initialize` and `reduce` counted.
struct Probed {
    op: ReorgOp,
    seen: Arc<Seen>,
}

impl StreamOp for Probed {
    fn name(&self) -> &str {
        self.op.name()
    }
    fn initialize(&mut self, agg: &Aggregates, ctx: &OpCtx) {
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
        self.op.mapper()
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
        let result = self.op.finalize(ctx);
        *self.seen.finalized.lock().unwrap() += 1;
        self.seen.cv.notify_all();
        result
    }
}

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
        // The simulation's own buffers, outside the measurement.
        let pgs: Vec<_> = (0..n_compute)
            .map(|r| {
                let mut pg = world.output_pg(r);
                pg.step = step;
                pg
            })
            .collect();
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
        if step == 0 {
            assert!(
                big_blocks() > big_before,
                "the counter sees the first dump allocate its buffers"
            );
        }
        if step == WARM_UP {
            assert_eq!(
                big_blocks() - big_before,
                0,
                "a warm dump allocated a chunk-sized block on the generator thread"
            );
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
        for (rank, client) in clients.iter().enumerate() {
            let mut pg = world.output_pg(rank);
            pg.step = step;
            client.write_pg(pg).unwrap();
        }
        for client in &clients {
            client.wait_drained(Duration::from_secs(30)).unwrap();
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
