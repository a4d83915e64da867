//! The one record — [`Event`] — its guard, and the always-on fold.
//!
//! Everything `obs` knows about time enters through
//! [`Registry::record`](crate::Registry::record): a stage name, a step,
//! optionally the staging rank that did the work and the source chunk it
//! was done for, two timestamps and a byte count. [`span_in`] / [`span!`]
//! hand out a [`SpanGuard`] that records one event when it drops;
//! [`mark`] records a zero-length transition.
//!
//! The [`Fold`] is the first of the two sinks: `(stage, step, rank) →`
//! [`SpanStat`], sharded by stage and rank so there is no process-wide
//! lock, and bounded — of each stage and rank it keeps the newest
//! [`FOLD_STEPS`] step numbers in a ring allocated once, so recording
//! costs the same at step 10 000 as at step 10.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::metrics::Registry;

/// One thing that happened: `stage` ran for `step` between `t0_ns` and
/// `t1_ns` (nanoseconds since the process epoch; equal for a [`mark_in`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub stage: &'static str,
    pub step: u64,
    /// The staging rank that did the work; `None` for compute-side and
    /// rank-less events (they render under "all" only).
    pub rank: Option<u32>,
    /// The source compute rank of the chunk this was done for. Events
    /// with a chunk are what the [`crate::lineage`] view is made of.
    pub chunk: Option<u64>,
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// Payload moved or produced; 0 when the site doesn't know.
    pub bytes: u64,
}

impl Event {
    /// A zero-length event at time 0; set the rest with the builders.
    pub fn new(stage: &'static str, step: u64) -> Self {
        Event {
            stage,
            step,
            rank: None,
            chunk: None,
            t0_ns: 0,
            t1_ns: 0,
            bytes: 0,
        }
    }

    /// An event that began at `start` and lasted `dur` — for sites that
    /// already time their work and cannot hold a guard across it.
    pub fn timed(stage: &'static str, step: u64, start: Instant, dur: Duration) -> Self {
        let t0_ns = since_epoch(start);
        Event::new(stage, step).at(t0_ns, t0_ns + dur.as_nanos() as u64)
    }

    pub fn rank(mut self, rank: usize) -> Self {
        self.rank = Some(rank as u32);
        self
    }

    pub fn chunk(mut self, src_rank: u64) -> Self {
        self.chunk = Some(src_rank);
        self
    }

    pub fn bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    pub fn at(mut self, t0_ns: u64, t1_ns: u64) -> Self {
        self.t0_ns = t0_ns;
        self.t1_ns = t1_ns;
        self
    }

    pub(crate) fn dur_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

/// Aggregate of one `(stage, step, rank)` family of events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    pub bytes: u64,
}

impl SpanStat {
    pub(crate) fn add(&mut self, ns: u64, bytes: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.bytes += bytes;
    }

    pub(crate) fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.bytes += other.bytes;
    }
}

/// One row of the fold, as the views and the snapshot see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRow {
    pub stage: &'static str,
    pub step: u64,
    pub rank: Option<u32>,
    pub stat: SpanStat,
}

/// How many step numbers the fold keeps of each `(stage, rank)`: a row
/// whose step is this far (or further) behind the newest step its stage
/// and rank have seen is dropped, so a run of any length holds a bounded
/// table. The fold is the *recent* stage table, and at 40 bytes a row,
/// ≈ 60 stage–rank pairs a run, 256 steps are ≈ 600 kB.
pub(crate) const FOLD_STEPS: u64 = 256;

const SHARDS: usize = 16;

/// The rows of one `(stage, rank)`: slot `step % FOLD_STEPS` holds
/// `(step, stat)` while `step` is among the newest [`FOLD_STEPS`]. The
/// ring is allocated once, at the pair's first event, and a newer step
/// overwrites the slot of the one it ages out — folding an event
/// neither allocates nor frees, however long the run.
#[derive(Debug)]
struct Ring {
    newest: u64,
    slots: Box<[(u64, SpanStat)]>,
}

impl Default for Ring {
    fn default() -> Self {
        Ring {
            newest: 0,
            slots: vec![(0, SpanStat::default()); FOLD_STEPS as usize].into(),
        }
    }
}

/// The always-on sink. A `(stage, rank)`'s rows live in one shard,
/// picked by both: threads recording different stages, or one stage on
/// different staging ranks, share no lock; a row is never split between
/// shards; and a lock is held for one slot update.
#[derive(Debug, Default)]
pub(crate) struct Fold {
    shards: [Shard; SHARDS],
}

type Shard = Mutex<BTreeMap<(&'static str, Option<u32>), Ring>>;

impl Fold {
    pub(crate) fn add(&self, ev: &Event) {
        let hash = ev
            .stage
            .bytes()
            .fold(ev.rank.map_or(0, |r| r as usize + 1), |h, b| {
                h.wrapping_mul(31).wrapping_add(b as usize)
            });
        let mut shard = self.shards[hash % SHARDS].lock();
        let ring = shard.entry((ev.stage, ev.rank)).or_default();
        if ev.step.saturating_add(FOLD_STEPS) <= ring.newest {
            return;
        }
        ring.newest = ring.newest.max(ev.step);
        let slot = &mut ring.slots[(ev.step % FOLD_STEPS) as usize];
        if slot.0 != ev.step {
            // Same slot, another step: one `FOLD_STEPS` or more older.
            *slot = (ev.step, SpanStat::default());
        }
        slot.1.add(ev.dur_ns(), ev.bytes);
    }

    /// Every row held, sorted by `(stage, step, rank)`.
    pub(crate) fn rows(&self) -> Vec<SpanRow> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            for (&(stage, rank), ring) in shard.lock().iter() {
                let oldest = ring.newest.saturating_sub(FOLD_STEPS - 1);
                for step in oldest..=ring.newest {
                    let (held, stat) = ring.slots[(step % FOLD_STEPS) as usize];
                    if held == step && stat.count > 0 {
                        rows.push(SpanRow {
                            stage,
                            step,
                            rank,
                            stat,
                        });
                    }
                }
            }
        }
        rows.sort_by_key(|r| (r.stage, r.step, r.rank));
        rows
    }
}

/// Stable small id of the calling thread, assigned on first use: the
/// trace's `tid`.
pub(crate) fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// A live span: records one [`Event`] when dropped. The builders say
/// who did the work and for which chunk; `bytes` is usually known only
/// at the end — `drop(guard.bytes(n))`.
pub struct SpanGuard<'r> {
    /// `None` when recording was off at creation: the guard is inert —
    /// no timestamps taken, nothing recorded on drop.
    live: Option<(&'r Registry, Instant)>,
    /// A [`mark_in`]: the event's end is its start.
    instant: bool,
    event: Event,
}

impl SpanGuard<'_> {
    pub fn rank(mut self, rank: usize) -> Self {
        self.event = self.event.rank(rank);
        self
    }

    pub fn chunk(mut self, src_rank: u64) -> Self {
        self.event = self.event.chunk(src_rank);
        self
    }

    pub fn bytes(mut self, bytes: u64) -> Self {
        self.event = self.event.bytes(bytes);
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((registry, start)) = self.live {
            let t0_ns = since_epoch(start);
            let dur = if self.instant {
                0
            } else {
                start.elapsed().as_nanos() as u64
            };
            registry.record(self.event.at(t0_ns, t0_ns + dur));
        }
    }
}

fn since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(crate::epoch()).as_nanos() as u64
}

fn guard<'r>(
    registry: &'r Registry,
    stage: &'static str,
    step: u64,
    instant: bool,
) -> SpanGuard<'r> {
    SpanGuard {
        live: registry.enabled().then(|| (registry, Instant::now())),
        instant,
        event: Event::new(stage, step),
    }
}

/// Start a span in `registry`. Inert (one relaxed load, no clock read)
/// when the registry's recording is off.
pub fn span_in<'r>(registry: &'r Registry, stage: &'static str, step: u64) -> SpanGuard<'r> {
    guard(registry, stage, step, false)
}

/// A zero-length transition in `registry`, recorded when the returned
/// guard drops — at the end of the statement, for
/// `mark_in(reg, "routed", step).chunk(src);`.
pub fn mark_in<'r>(registry: &'r Registry, stage: &'static str, step: u64) -> SpanGuard<'r> {
    guard(registry, stage, step, true)
}
