//! Per-chunk lineage: where did chunk `(source_rank, step)` spend its time?
//!
//! The `(stage, step, rank)` fold answers "how long did decode take this
//! step", but not "which chunk straggled, and in which stage". This
//! module answers that as a *view* of the event log: the events that
//! carry a `chunk`, read as one journey per `(source_rank, step)` —
//!
//! ```text
//! packed → routed → request_sent → request_received → pull_scheduled
//!        → rdma_done → decoded → mapped → shuffled → reduced → written
//! ```
//!
//! — where a stage's mark is its event's end time, `wait_ns` the event's
//! length (the policy deferral for `pull_scheduled`, the transfer for
//! `rdma_done`, the work for `decoded` / `mapped`), and `bytes` what the
//! event moved. A step abandoned by an error marks its chunks
//! [`Stage::Truncated`] so a failed pull never leaves a dangling record.
//!
//! Each `(chunk, stage)` slot is **first-write-wins**: when two sites
//! report the same stage, the first one logged stands, and a `truncated`
//! mark never overwrites evidence of progress. (`shuffled`, `reduced`
//! and `written` each have one site, the step's one exchange.)
//!
//! The log exists only while the registry's detail gate is on
//! (`PREDATA_LINEAGE`, `PREDATA_TRACE`, or [`set_enabled`]); with it
//! off there are no chunks to view. In the Chrome trace every stage of
//! the view is a *flow event* (`"ph":"s"/"t"/"f"`), so Perfetto draws
//! each chunk's journey as arrows across the compute/staging threads.

use std::collections::BTreeMap;

use crate::event::Event;

/// Number of recordable stages (the 11 pipeline stages + `truncated`).
pub const N_STAGES: usize = 12;

/// One chunk's stage transitions, in pipeline order. `Truncated` is the
/// terminal mark of a step abandoned by an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    Packed = 0,
    Routed = 1,
    RequestSent = 2,
    RequestReceived = 3,
    PullScheduled = 4,
    RdmaDone = 5,
    Decoded = 6,
    Mapped = 7,
    Shuffled = 8,
    Reduced = 9,
    Written = 10,
    Truncated = 11,
}

impl Stage {
    /// Every stage, in recording order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::Packed,
        Stage::Routed,
        Stage::RequestSent,
        Stage::RequestReceived,
        Stage::PullScheduled,
        Stage::RdmaDone,
        Stage::Decoded,
        Stage::Mapped,
        Stage::Shuffled,
        Stage::Reduced,
        Stage::Written,
        Stage::Truncated,
    ];

    /// The in-order pipeline stages a healthy chunk passes through
    /// (everything except the `Truncated` terminal).
    pub const PIPELINE: [Stage; 11] = [
        Stage::Packed,
        Stage::Routed,
        Stage::RequestSent,
        Stage::RequestReceived,
        Stage::PullScheduled,
        Stage::RdmaDone,
        Stage::Decoded,
        Stage::Mapped,
        Stage::Shuffled,
        Stage::Reduced,
        Stage::Written,
    ];

    /// Snapshot-schema name of the stage (snake_case).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Packed => "packed",
            Stage::Routed => "routed",
            Stage::RequestSent => "request_sent",
            Stage::RequestReceived => "request_received",
            Stage::PullScheduled => "pull_scheduled",
            Stage::RdmaDone => "rdma_done",
            Stage::Decoded => "decoded",
            Stage::Mapped => "mapped",
            Stage::Shuffled => "shuffled",
            Stage::Reduced => "reduced",
            Stage::Written => "written",
            Stage::Truncated => "truncated",
        }
    }

    /// Inverse of [`name`](Stage::name) (snapshot readers).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The [`Event::stage`] whose end sets this stage. The four spans
    /// that do a chunk's work keep their fold names (`pull`, not
    /// `rdma_done`); the marks are named for the transition itself.
    pub fn event(self) -> &'static str {
        match self {
            Stage::Packed => "pack",
            Stage::PullScheduled => "pull_wait",
            Stage::RdmaDone => "pull",
            Stage::Decoded => "decode",
            Stage::Mapped => "map",
            mark => mark.name(),
        }
    }

    /// Whether this stage ends a chunk's journey.
    pub fn is_terminal(self) -> bool {
        matches!(self, Stage::Written | Stage::Truncated)
    }
}

/// One recorded stage transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageMark {
    /// When the stage's event ended, in nanoseconds since the process
    /// epoch.
    pub at_ns: u64,
    /// Payload size at this transition, when the site knows it.
    pub bytes: Option<u64>,
    /// How long the stage's event lasted; `None` for a zero-length mark.
    pub wait_ns: Option<u64>,
    /// The recording thread's trace id (0 when read back from a
    /// snapshot, which does not carry it).
    pub tid: u32,
}

type Marks = [Option<StageMark>; N_STAGES];

/// Point-in-time view of one chunk's lineage (from
/// [`crate::Snapshot::lineage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkLineage {
    pub src_rank: u64,
    pub step: u64,
    marks: Marks,
}

impl ChunkLineage {
    /// A chunk with these marks (snapshot readers; the first mark of a
    /// stage stands).
    pub fn new(
        src_rank: u64,
        step: u64,
        marks: impl IntoIterator<Item = (Stage, StageMark)>,
    ) -> Self {
        let mut chunk = ChunkLineage {
            src_rank,
            step,
            marks: [None; N_STAGES],
        };
        for (stage, mark) in marks {
            chunk.marks[stage as usize].get_or_insert(mark);
        }
        chunk
    }

    /// The mark for one stage, if recorded.
    pub fn mark(&self, stage: Stage) -> Option<StageMark> {
        self.marks[stage as usize]
    }

    /// Recorded `(stage, mark)` events in pipeline order.
    pub fn events(&self) -> Vec<(Stage, StageMark)> {
        Stage::ALL
            .into_iter()
            .filter_map(|s| self.mark(s).map(|m| (s, m)))
            .collect()
    }

    /// Whether the step was abandoned under this chunk.
    pub fn is_truncated(&self) -> bool {
        self.mark(Stage::Truncated).is_some()
    }

    /// Whether every pipeline stage was recorded (a full journey).
    pub fn is_complete(&self) -> bool {
        Stage::PIPELINE.into_iter().all(|s| self.mark(s).is_some())
    }

    /// First-to-last recorded timestamp delta: the chunk's end-to-end
    /// latency through the middleware.
    pub fn total_ns(&self) -> Option<u64> {
        let ev = self.events();
        let first = ev.first()?.1.at_ns;
        let last = ev.last()?.1.at_ns;
        Some(last.saturating_sub(first))
    }

    /// Consecutive-stage deltas `(from, to, ns)` — the chunk's critical
    /// path through the pipeline.
    pub fn critical_path(&self) -> Vec<(Stage, Stage, u64)> {
        self.events()
            .windows(2)
            .map(|w| {
                let (from, a) = w[0];
                let (to, b) = w[1];
                (from, to, b.at_ns.saturating_sub(a.at_ns))
            })
            .collect()
    }

    /// The largest consecutive-stage delta: where this chunk spent most
    /// of its time.
    pub fn dominant_gap(&self) -> Option<(Stage, Stage, u64)> {
        self.critical_path()
            .into_iter()
            .max_by_key(|(_, _, ns)| *ns)
    }
}

/// The lineage view: every event with a `chunk` whose stage is one of
/// the pipeline's, first-write-wins per `(chunk, stage)` in log order,
/// as one [`ChunkLineage`] per chunk sorted by `(step, src_rank)`. The
/// log pairs each event with its recording thread's id.
pub fn view<'e>(log: impl IntoIterator<Item = &'e (u32, Event)>) -> Vec<ChunkLineage> {
    let mut chunks: BTreeMap<(u64, u64), Marks> = BTreeMap::new();
    for &(tid, ev) in log {
        let (Some(src), Some(stage)) = (
            ev.chunk,
            Stage::ALL.into_iter().find(|s| s.event() == ev.stage),
        ) else {
            continue;
        };
        chunks.entry((ev.step, src)).or_insert([None; N_STAGES])[stage as usize].get_or_insert(
            StageMark {
                at_ns: ev.t1_ns,
                bytes: (ev.bytes > 0).then_some(ev.bytes),
                wait_ns: (ev.dur_ns() > 0).then_some(ev.dur_ns()),
                tid,
            },
        );
    }
    chunks
        .into_iter()
        .map(|((step, src_rank), marks)| ChunkLineage {
            src_rank,
            step,
            marks,
        })
        .collect()
}

/// Turn the [global registry](crate::global)'s event log — what this
/// view and the Chrome trace are read from — on or off, as
/// `PREDATA_LINEAGE` does at start-up.
pub fn set_enabled(on: bool) {
    crate::global().set_detail(on);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mark_in, Registry};

    fn logging() -> Registry {
        let reg = Registry::new();
        reg.set_detail(true);
        reg
    }

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn first_write_wins_per_stage() {
        let reg = logging();
        reg.record(Event::new("pack", 0).chunk(3).at(0, 10).bytes(100));
        reg.record(Event::new("pack", 0).chunk(3).at(0, 5).bytes(999));
        reg.record(Event::new("pack", 0).at(0, 5)); // no chunk: not lineage
        reg.record(Event::new("gather", 0).chunk(3)); // not a pipeline stage
        let snap = reg.lineage().snapshot();
        assert_eq!(snap.len(), 1);
        let packed = snap[0].mark(Stage::Packed).unwrap();
        assert_eq!(
            (packed.at_ns, packed.bytes, packed.wait_ns),
            (10, Some(100), Some(10))
        );
        assert_eq!(snap[0].events().len(), 1);
    }

    #[test]
    fn critical_path_and_completeness() {
        let reg = logging();
        for (i, stage) in Stage::PIPELINE.into_iter().enumerate() {
            let t = 10 * i as u64;
            reg.record(
                Event::new(stage.event(), 5)
                    .chunk(0)
                    .at(t, t + 3 * i as u64),
            );
        }
        let chunk = reg.lineage().snapshot().remove(0);
        assert!(chunk.is_complete());
        assert!(!chunk.is_truncated());
        assert_eq!(chunk.events().len(), Stage::PIPELINE.len());
        assert_eq!(chunk.critical_path().len(), Stage::PIPELINE.len() - 1);
        let ev = chunk.events();
        assert!(ev.windows(2).all(|w| w[0].1.at_ns <= w[1].1.at_ns));
        assert_eq!(chunk.total_ns(), Some(130));
        assert_eq!(
            chunk.dominant_gap(),
            Some((Stage::Reduced, Stage::Written, 13))
        );
    }

    #[test]
    fn truncation_is_terminal_but_preserves_progress() {
        let reg = logging();
        mark_in(&reg, "routed", 0).chunk(1);
        drop(crate::span_in(&reg, "decode", 0).chunk(1));
        mark_in(&reg, "truncated", 0).chunk(1).rank(2);
        let chunk = reg.lineage().snapshot().remove(0);
        assert!(chunk.is_truncated());
        assert!(!chunk.is_complete());
        assert!(chunk.mark(Stage::Decoded).is_some(), "progress kept");
    }

    #[test]
    fn view_sorts_by_step_then_rank() {
        let reg = logging();
        for (src, step) in [(9, 1), (2, 0), (1, 1)] {
            mark_in(&reg, "routed", step).chunk(src);
        }
        let keys: Vec<(u64, u64)> = reg
            .lineage()
            .snapshot()
            .iter()
            .map(|c| (c.step, c.src_rank))
            .collect();
        assert_eq!(keys, vec![(0, 2), (1, 1), (1, 9)]);
    }
}
