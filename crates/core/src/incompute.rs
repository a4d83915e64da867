//! The In-Compute-Node placement: the paper's baseline configuration.
//!
//! The *same* [`StreamOp`] implementations run here, but on the compute
//! ranks themselves, synchronously, before the dump is written — the
//! configuration PreDatA is compared against throughout §V. Aggregation
//! happens over the compute communicator (the attrs exchange replaces the
//! fetch-request attachment), each rank `map`s its own chunk, and the
//! shuffle runs over all compute ranks.

use std::path::Path;

use ffs::AttrList;
use minimpi::Comm;

use crate::agg::Aggregates;
use crate::chunk::PackedChunk;
use crate::op::{complete_pipeline, ComputeSideOp, OpCtx, OpResult, StreamOp};

/// Runs operators in place on the compute ranks.
pub struct InComputeRunner;

impl InComputeRunner {
    /// Execute `ops` over this rank's process group for one step.
    /// Collective over `comm` (every compute rank calls it with its own
    /// `pg`). Returns this rank's operator results.
    pub fn run_step(
        comm: &Comm,
        pg: bpio::ProcessGroup,
        ops: &mut [Box<dyn StreamOp>],
        compute_side: &[&dyn ComputeSideOp],
        out_dir: &Path,
    ) -> Vec<OpResult> {
        std::fs::create_dir_all(out_dir).ok();
        let step = pg.step;
        // The first pass runs exactly as it would before a staged write.
        let mut attrs = AttrList::new();
        for op in compute_side {
            op.partial_calculate(&pg, &mut attrs);
        }
        // Aggregation over the compute communicator.
        let agg = Aggregates::build([(comm.rank(), &attrs)], comm);
        let ctx = OpCtx {
            comm,
            out_dir,
            step,
            n_compute: comm.size(),
            agg: Some(&agg),
        };

        let chunk = PackedChunk::new(pg);
        let mut results = Vec::with_capacity(ops.len());
        for op in ops {
            op.initialize(&agg, &ctx);
            let mapped = op.map(&chunk, &ctx);
            results.push(complete_pipeline(op.as_mut(), mapped, &ctx));
        }
        results
    }
}

/// The synchronous dump write of the In-Compute-Node configuration (the
/// ADIOS "MPI method"): ranks serialize their process groups, gather the
/// blocks to rank 0, which appends them all to one BP file and writes the
/// footer. Collective; returns the index on rank 0.
///
/// This produces exactly the *unmerged* layout whose read cost Fig. 11
/// compares against the staged/merged layout.
pub fn write_dump_collective(
    comm: &Comm,
    pg: &bpio::ProcessGroup,
    path: &Path,
) -> Result<Option<bpio::FileIndex>, bpio::BpError> {
    let block = pg.encode();
    let blocks = comm.gather(0, block);
    if comm.rank() != 0 {
        comm.barrier(); // wait for the writer to finish
        return Ok(None);
    }
    let mut w = bpio::BpWriter::create(path)?;
    for b in blocks.expect("rank 0 gathered") {
        let pg = bpio::ProcessGroup::decode(&b)?;
        w.append_pg(&pg)?;
    }
    let idx = w.finish()?;
    comm.barrier();
    Ok(Some(idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{HistogramOp, SortOp};
    use crate::schema::{make_particle_pg, particle_key, PARTICLE_WIDTH};
    use minimpi::World;

    #[test]
    fn histogram_in_compute_matches_staged_semantics() {
        let out = World::run(4, |comm| {
            let dir = std::env::temp_dir().join(format!(
                "incompute-h-{}-{}",
                std::process::id(),
                comm.rank()
            ));
            let r = comm.rank();
            let rows: Vec<f64> = (0..4)
                .flat_map(|i| vec![(r * 4 + i) as f64, 0., 0., 0., 0., 0., r as f64, i as f64])
                .collect();
            let pg = make_particle_pg(r as u64, 0, rows);
            let hist = HistogramOp::new(vec![0], 4);
            let mut ops: Vec<Box<dyn StreamOp>> = vec![Box::new(HistogramOp::new(vec![0], 4))];
            let results = InComputeRunner::run_step(&comm, pg, &mut ops, &[&hist], &dir);
            std::fs::remove_dir_all(&dir).ok();
            results[0].values.get("hist_x").cloned()
        });
        // Column tag 0 lands on rank 0: values 0..16 in 4 bins.
        assert_eq!(out[0], Some(ffs::Value::ArrU64(vec![4, 4, 4, 4])));
        assert!(out[1..].iter().all(Option::is_none));
    }

    #[test]
    fn collective_dump_write_produces_readable_unmerged_file() {
        let dir = std::env::temp_dir().join(format!("ic-dump-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.bp");
        let p2 = path.clone();
        let out = World::run(4, move |comm| {
            let r = comm.rank();
            let rows: Vec<f64> = (0..3)
                .flat_map(|i| vec![r as f64, 0., 0., 0., 0., 1., r as f64, i as f64])
                .collect();
            let pg = make_particle_pg(r as u64, 0, rows);
            write_dump_collective(&comm, &pg, &p2)
                .unwrap()
                .map(|idx| idx.pgs.len())
        });
        assert_eq!(out, vec![Some(4), None, None, None]);
        // One scattered chunk per writer — the unmerged layout.
        let mut rd = bpio::BpReader::open(&path).unwrap();
        assert_eq!(rd.index().chunks_of("particles", 0).len(), 4);
        for r in 0..4u64 {
            let data = rd.read_local("particles", 0, r).unwrap();
            assert_eq!(data.len(), 3 * PARTICLE_WIDTH);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sort_in_compute_produces_global_order() {
        let out = World::run(3, |comm| {
            let dir = std::env::temp_dir().join(format!(
                "incompute-s-{}-{}",
                std::process::id(),
                comm.rank()
            ));
            let me = comm.rank() as u64;
            // Deliberately out-of-order labels across ranks.
            let rows: Vec<f64> = [(2 - me, 1u64), (me, 0)]
                .iter()
                .flat_map(|&(r, i)| vec![0., 0., 0., 0., 0., 0., r as f64, i as f64])
                .collect();
            let pg = make_particle_pg(me, 0, rows);
            let sort = SortOp::new();
            let mut ops: Vec<Box<dyn StreamOp>> = vec![Box::new(SortOp::new())];
            let results = InComputeRunner::run_step(&comm, pg, &mut ops, &[&sort], &dir);
            let file = results[0].files[0].clone();
            let mut r = bpio::BpReader::open(&file).unwrap();
            let idx = r.index().chunks_of("particles", 0)[0].clone();
            let data = r
                .read_box("particles", 0, &idx.offset_in_global, &idx.local)
                .unwrap();
            let keys: Vec<u64> = data
                .as_f64()
                .unwrap()
                .chunks_exact(PARTICLE_WIDTH)
                .map(particle_key)
                .collect();
            let off = idx.offset_in_global[0];
            std::fs::remove_dir_all(&dir).ok();
            (off, keys)
        });
        let mut slices = out;
        slices.sort_by_key(|(o, _)| *o);
        let all: Vec<u64> = slices.into_iter().flat_map(|(_, k)| k).collect();
        assert_eq!(all.len(), 6);
        assert!(all.windows(2).all(|w| w[0] <= w[1]), "{all:?}");
    }
}
