//! The In-Compute-Node placement: the paper's baseline configuration.
//!
//! The *same* [`StreamOp`] implementations run here, but on the compute
//! ranks themselves, synchronously, before the dump is written — the
//! configuration PreDatA is compared against throughout §V. Aggregation
//! happens over the compute communicator (the attrs exchange replaces the
//! fetch-request attachment), each rank `map`s its own chunk with every
//! operator, and the step's one `exchange` runs over all compute ranks.

use std::path::Path;

use ffs::AttrList;
use minimpi::Comm;

use crate::agg::Aggregates;
use crate::chunk::PackedChunk;
use crate::op::{exchange, ComputeSideOp, OpCtx, OpResult, StreamOp};

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

        // Every operator initializes and maps this rank's chunk, then one
        // exchange runs the back half of all of them.
        let chunk = PackedChunk::new(pg);
        let streams = ops
            .iter_mut()
            .map(|op| {
                op.initialize(&agg, &ctx);
                op.map(&chunk, &ctx)
            })
            .collect();
        drop(chunk);
        let mut ops: Vec<_> = ops
            .iter_mut()
            .map(|op| op.as_mut() as &mut dyn StreamOp)
            .collect();
        exchange(&mut ops, streams, &ctx, &[])
    }
}

/// The synchronous dump write of the In-Compute-Node configuration (the
/// ADIOS "MPI method"): ranks serialize their process groups, gather the
/// blocks to rank 0, which appends them all to one BP file and writes the
/// footer. Collective; returns the index on rank 0, and rank 0 alone
/// returns a failed write's error — after the barrier, like a written
/// dump, so the other ranks never wait for a writer that gave up.
///
/// This produces exactly the *unmerged* layout whose read cost Fig. 11
/// compares against the staged/merged layout. Rank 0 decodes every
/// gathered block into one process group, reused from block to block
/// ([`bpio::ProcessGroup::decode_into`]).
pub fn write_dump_collective(
    comm: &Comm,
    pg: &bpio::ProcessGroup,
    path: &Path,
) -> Result<Option<bpio::FileIndex>, bpio::BpError> {
    let block = pg.encode();
    let Some(blocks) = comm.gather(0, block) else {
        comm.barrier(); // wait for the writer to finish
        return Ok(None);
    };
    let written = (|| {
        let mut w = bpio::BpWriter::create(path)?;
        let mut decoded = bpio::ProcessGroup::default();
        for b in blocks {
            decoded.decode_into(&b)?;
            crate::ops::append_pg(comm.obs(), &mut w, &decoded)?;
        }
        w.finish()
    })();
    comm.barrier();
    written.map(Some)
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

    /// A dump write that fails on rank 0 (its directory is missing)
    /// returns there as an error, and strands no peer at the barrier:
    /// every rank is back within 5 s.
    #[test]
    fn a_failed_dump_write_strands_no_rank() {
        let path = std::env::temp_dir()
            .join(format!("ic-missing-{}", std::process::id()))
            .join("dump.bp");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let out = World::run(4, move |comm| {
                let pg = make_particle_pg(comm.rank() as u64, 0, vec![0.0; PARTICLE_WIDTH]);
                write_dump_collective(&comm, &pg, &path).map(|idx| idx.is_some())
            });
            tx.send(out.into_iter().map(|r| r.ok()).collect::<Vec<_>>())
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a rank is still parked 5 s after rank 0's write failed");
        assert_eq!(out, [None, Some(false), Some(false), Some(false)]);
    }

    /// Also the in-compute step's collectives: per rank, the aggregates'
    /// `allgather` (a gather and its fan-out) and the exchange's one
    /// `alltoall`.
    #[test]
    fn sort_in_compute_produces_global_order() {
        let (out, world) = World::run_with_stats(3, |comm| {
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
        assert_eq!(world.stats().collective_calls(), 3 * 3);
    }
}
