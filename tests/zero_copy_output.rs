//! Zero-copy output-path invariants: the vectored BP writer and the
//! `Bytes`-backed shuffle may change *how* bytes move — never *what*
//! lands in a file. (That the finalize path copies no payload is held
//! by `tests/steady_state_alloc.rs`, which counts allocations.)

use std::sync::Arc;

use predata::apps::{GtcWorld, PixieWorld};
use predata::core::op::StreamOp;
use predata::core::ops::{ReorgOp, SortOp};
use predata::core::schema::{make_particle_pg, PIXIE_FIELDS};
use predata::core::staging::StagingRank;
use predata::core::{PredataClient, StagingConfig};
use predata::minimpi::World;
use predata::obs::Registry;
use predata::transport::{BlockRouter, Fabric, FaultKind, FaultPlan, FifoPolicy, Router};

fn out_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("zero-copy-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Every `.bp` file under `dir`, relative name → bytes.
fn bp_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".bp"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

/// The vectored writer ([`bpio::BpWriter`]) against a from-first-
/// principles contiguous assembly of the same file: every PG block via
/// `encode_indexed`, then `[index][index_len][magic]`. Proves the
/// scatter-gather path writes bit-identical files to the contiguous
/// layout it replaced.
#[test]
fn vectored_writer_matches_contiguous_reference_assembly() {
    let dir = out_dir("reference");
    let path = dir.join("ref.bp");
    let world = GtcWorld::new(3, 40, 11);
    let pgs: Vec<bpio::ProcessGroup> = (0..3).map(|r| world.output_pg(r)).collect();

    let mut w = bpio::BpWriter::create(&path).unwrap();
    w.annotate("prepared_by", "zero-copy-test");
    for pg in &pgs {
        w.append_pg(pg).unwrap();
    }
    let idx = w.finish().unwrap();

    let mut expected = Vec::new();
    for pg in &pgs {
        expected.extend_from_slice(&pg.encode_indexed().0);
    }
    let idx_bytes = idx.encode();
    expected.extend_from_slice(&idx_bytes);
    expected.extend_from_slice(&(idx_bytes.len() as u64).to_le_bytes());
    expected.extend_from_slice(&bpio::FILE_MAGIC);

    let written = std::fs::read(&path).unwrap();
    assert_eq!(
        written, expected,
        "vectored writes must be bit-identical to contiguous assembly"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The degradation ladder over the vectored writer: a seeded fault
/// schedule exhausts retries for exactly one of two chunks; the step
/// completes degraded and its sorted output is *byte-identical* to a
/// run in which the truncated rank never existed — correct partial
/// output, valid footer and all.
#[test]
fn truncated_step_writes_correct_partial_output() {
    // Pick a seed whose 50% drop schedule selects rank 0 and spares
    // rank 1 at this step — `selects` is the pure deterministic
    // decision, so the search is exact and cheap.
    const STEP: u64 = 0;
    let seed = (0..)
        .find(|&s| {
            let p = FaultPlan::new(s).drop_chunks(0.5);
            p.selects(FaultKind::Drop, 0, STEP) && !p.selects(FaultKind::Drop, 1, STEP)
        })
        .unwrap();
    let rows: Vec<f64> = (0..16)
        .flat_map(|i| vec![i as f64 * 0.25, 0., 0., 0., 0., 1.0, 1.0, i as f64])
        .collect();

    // Degraded run: rank 0's pulls always fault, rank 1 delivers.
    let plan = Arc::new(FaultPlan::new(seed).drop_chunks(0.5).steps(STEP..STEP + 1));
    let (_fabric, computes, stagings) =
        Fabric::with_faults(2, 1, None, Some(plan), Registry::new());
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(2, 1));
    let degraded_dir = out_dir("truncated");
    for (r, e) in computes.into_iter().enumerate() {
        let client = PredataClient::new(e, Arc::clone(&router), vec![]);
        client
            .write_pg(make_particle_pg(r as u64, STEP, rows.clone()))
            .unwrap();
    }
    let (_world, mut comms) = World::with_size(1);
    let mut rank = StagingRank::new(
        comms.remove(0),
        stagings.into_iter().next().unwrap(),
        router,
        Box::new(FifoPolicy),
        vec![Box::new(SortOp::new()) as Box<dyn StreamOp>],
        StagingConfig::new(2, &degraded_dir),
    )
    .expect("staging rank starts");
    let report = rank.run_step(STEP).expect("degraded step still completes");
    assert_eq!(report.truncated, vec![0], "exactly rank 0 was abandoned");

    // Reference run: only the surviving rank writes, no faults.
    let (_fabric, computes, stagings) = Fabric::new(1, 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(1, 1));
    let reference_dir = out_dir("truncated-ref");
    let client = PredataClient::new(
        computes.into_iter().next().unwrap(),
        Arc::clone(&router),
        vec![],
    );
    client.write_pg(make_particle_pg(1, STEP, rows)).unwrap();
    let (_world, mut comms) = World::with_size(1);
    let mut rank = StagingRank::new(
        comms.remove(0),
        stagings.into_iter().next().unwrap(),
        router,
        Box::new(FifoPolicy),
        vec![Box::new(SortOp::new()) as Box<dyn StreamOp>],
        StagingConfig::new(1, &reference_dir),
    )
    .expect("staging rank starts");
    rank.run_step(STEP).expect("reference step completes");

    let degraded = bp_files(&degraded_dir);
    let reference = bp_files(&reference_dir);
    let name = format!("sorted_step{STEP}_rank0.bp");
    assert_eq!(
        degraded.get(&name),
        reference.get(&name),
        "partial output must equal a run without the truncated rank"
    );
    // The partial file is a valid, readable BP file.
    let mut r = bpio::BpReader::open(degraded_dir.join(&name)).unwrap();
    let sorted = r.read_global("particles", STEP).unwrap();
    assert_eq!(sorted.len(), 16 * 8, "exactly the surviving chunk's rows");
    std::fs::remove_dir_all(&degraded_dir).ok();
    std::fs::remove_dir_all(&reference_dir).ok();
}

/// `ReorgOp` keeps its slabs across steps. A step that delivers no piece
/// for part of a slab — here one chunk's pull exhausts its retries —
/// must write zeros there, not the previous step's values: the box of
/// the skipped chunk is all zeros and the merged file is byte-identical
/// to the one a fresh operator writes for that step.
#[test]
fn kept_slabs_show_no_stale_data_after_a_skipped_chunk() {
    const STEPS: [u64; 2] = [0, 1];
    const VICTIM: usize = 2;
    let mut world = PixieWorld::new([2, 2, 1], [4, 4, 4]);
    let n = world.n_ranks();
    // A schedule that abandons exactly VICTIM's chunk of the second step.
    let plan = |seed| {
        FaultPlan::new(seed)
            .drop_chunks(0.5)
            .steps(STEPS[1]..STEPS[1] + 1)
    };
    let seed = (0..)
        .find(|&s| {
            (0..n).all(|r| plan(s).selects(FaultKind::Drop, r as u64, STEPS[1]) == (r == VICTIM))
        })
        .unwrap();

    // One staging rank, one `ReorgOp` for as many of `steps` as are
    // given; returns the last step's report and the directory.
    let run = |world: &mut PixieWorld, steps: &[u64], tag: &str| {
        let plan = Some(Arc::new(plan(seed)));
        let (_fabric, computes, stagings) = Fabric::with_faults(n, 1, None, plan, Registry::new());
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n, 1));
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| PredataClient::new(e, Arc::clone(&router), vec![Arc::new(ReorgOp::pixie3d())]))
            .collect();
        let dir = out_dir(tag);
        let (_world, mut comms) = World::with_size(1);
        let mut rank = StagingRank::new(
            comms.remove(0),
            stagings.into_iter().next().unwrap(),
            router,
            Box::new(FifoPolicy),
            vec![Box::new(ReorgOp::pixie3d()) as Box<dyn StreamOp>],
            StagingConfig::new(n, &dir),
        )
        .expect("staging rank starts");
        let mut last = None;
        for &step in steps {
            for (r, c) in clients.iter().enumerate() {
                let mut pg = world.output_pg(r);
                pg.step = step;
                c.write_pg(pg).unwrap();
            }
            last = Some(rank.run_step(step).expect("step completes"));
            if step != STEPS[1] {
                world.step();
            }
        }
        (last.unwrap(), dir)
    };

    let (report, kept_dir) = run(&mut world, &STEPS, "kept-slabs");
    assert_eq!(
        report.truncated,
        vec![VICTIM],
        "exactly one chunk was abandoned"
    );
    // `world` now holds the second step's fields.
    let (fresh_report, fresh_dir) = run(&mut world, &STEPS[1..], "fresh-slabs");
    assert_eq!(fresh_report.truncated, vec![VICTIM]);

    let name = format!("merged_step{}_rank0.bp", STEPS[1]);
    assert_eq!(
        bp_files(&kept_dir).get(&name).expect("merged file written"),
        bp_files(&fresh_dir)
            .get(&name)
            .expect("merged file written"),
        "kept slabs must write what fresh slabs write"
    );
    let (g, lo) = (world.global_dims(), world.offset_of(VICTIM));
    let mut r = bpio::BpReader::open(kept_dir.join(&name)).unwrap();
    for field in PIXIE_FIELDS {
        let merged = r.read_global(field, STEPS[1]).unwrap();
        let merged = merged.as_f64().unwrap();
        let mut at = 0;
        for i in 0..g[0] {
            for j in 0..g[1] {
                for k in 0..g[2] {
                    let skipped = [i, j, k]
                        .iter()
                        .zip(&lo)
                        .all(|(x, o)| (*o..o + 4).contains(x));
                    let expect = if skipped {
                        0.0
                    } else {
                        world.field_at(field, [i, j, k])
                    };
                    assert_eq!(merged[at], expect, "{field} at ({i},{j},{k})");
                    at += 1;
                }
            }
        }
    }
    std::fs::remove_dir_all(&kept_dir).ok();
    std::fs::remove_dir_all(&fresh_dir).ok();
}
