//! The `obs` model itself: one event stream, folded and logged by
//! `Registry::record`, must read back through every view exactly as a
//! naive reference computes it from the same sequence — the span table
//! (`(stage, step, rank)` sums), the lineage view (first-write-wins per
//! `(chunk, stage)` in log order) and the perturbation rows. Random
//! sequences reach what the hand-written cases do not: duplicate stages,
//! chunk-less lineage stages, ranks present and absent on one stage.

use std::collections::BTreeMap;

use predata::obs::lineage::Stage;
use predata::obs::perturb::PerturbStat;
use predata::obs::{Event, Registry, SpanStat};
use proptest::prelude::*;

/// Fold stages, lineage stages (spans and marks) and a name no view
/// knows.
const STAGES: [&str; 10] = [
    "compute",
    "blocked",
    "pull",
    "decode",
    "map",
    "pack",
    "routed",
    "written",
    "truncated",
    "gather",
];

fn event(parts: (usize, u64, u8, u8, u64, u64, u64)) -> Event {
    let (stage, step, rank, chunk, t0, dur, bytes) = parts;
    let mut ev = Event::new(STAGES[stage], step)
        .at(t0, t0 + dur)
        .bytes(bytes);
    if rank > 0 {
        ev = ev.rank(rank as usize - 1);
    }
    if chunk > 0 {
        ev = ev.chunk(chunk as u64 - 1);
    }
    ev
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn views_equal_a_naive_reference(
        parts in prop::collection::vec(
            (0..STAGES.len(), 0..4u64, 0..4u8, 0..4u8, 0..1000u64, 0..50u64, 0..3u64),
            0..60,
        )
    ) {
        let events: Vec<Event> = parts.into_iter().map(event).collect();
        let reg = Registry::new();
        reg.set_detail(true);
        for ev in &events {
            reg.record(*ev);
        }
        let snap = reg.snapshot();

        // The span table: every event, summed under its key.
        let mut table: BTreeMap<(&str, u64, Option<u32>), SpanStat> = BTreeMap::new();
        for ev in &events {
            let stat = table.entry((ev.stage, ev.step, ev.rank)).or_default();
            stat.count += 1;
            stat.total_ns += ev.t1_ns - ev.t0_ns;
            stat.max_ns = stat.max_ns.max(ev.t1_ns - ev.t0_ns);
            stat.bytes += ev.bytes;
        }
        let folded: BTreeMap<_, _> = snap
            .span_rows()
            .iter()
            .map(|r| ((r.stage, r.step, r.rank), r.stat))
            .collect();
        prop_assert_eq!(snap.span_rows().len(), table.len(), "no duplicate rows");
        prop_assert_eq!(folded, table);

        // Lineage: the first event logged for a (chunk, step, stage).
        let mut first: BTreeMap<(u64, u64, Stage), &Event> = BTreeMap::new();
        for ev in &events {
            let stage = Stage::ALL.into_iter().find(|s| s.event() == ev.stage);
            if let (Some(src), Some(stage)) = (ev.chunk, stage) {
                first.entry((ev.step, src, stage)).or_insert(ev);
            }
        }
        let mut viewed = 0;
        let mut last_key = None;
        for chunk in snap.lineage() {
            prop_assert!(last_key < Some((chunk.step, chunk.src_rank)), "sorted, unique");
            last_key = Some((chunk.step, chunk.src_rank));
            for (stage, mark) in chunk.events() {
                let ev = first[&(chunk.step, chunk.src_rank, stage)];
                prop_assert_eq!(mark.at_ns, ev.t1_ns);
                prop_assert_eq!(mark.wait_ns.unwrap_or(0), ev.t1_ns - ev.t0_ns);
                prop_assert_eq!(mark.bytes.unwrap_or(0), ev.bytes);
                viewed += 1;
            }
            prop_assert_eq!(chunk.is_truncated(), chunk.mark(Stage::Truncated).is_some());
        }
        prop_assert_eq!(viewed, first.len(), "every first event is viewed, nothing else");

        // Perturbation: three stages' rows per step.
        let mut perturb: BTreeMap<u64, PerturbStat> = BTreeMap::new();
        for ev in &events {
            let dur = ev.t1_ns - ev.t0_ns;
            match ev.stage {
                "compute" => perturb.entry(ev.step).or_default().compute_ns += dur,
                "blocked" => perturb.entry(ev.step).or_default().blocked_ns += dur,
                "pull" => {
                    let stat = perturb.entry(ev.step).or_default();
                    stat.pulls += 1;
                    stat.pull_bytes += ev.bytes;
                }
                _ => {}
            }
        }
        let expected: Vec<(u64, PerturbStat)> = perturb.into_iter().collect();
        prop_assert_eq!(snap.perturb(), expected.as_slice());
    }
}
