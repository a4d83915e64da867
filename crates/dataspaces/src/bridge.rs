//! The PreDatA ↔ DataSpaces bridge: a [`StreamOp`] that indexes particle
//! dumps into a shared space as they stream through the staging area.
//!
//! This is the workflow of paper §V-B.4: "particles output by the GTC
//! application are first sorted …, and then indexed by DataSpaces, based
//! on their local id and rank attributes, thereby creating a
//! 2·10⁶ × 256 2-D domain space" — so that querying applications can
//! retrieve arbitrary label regions while the simulation keeps running.
//! Plugging the service in as an ordinary operator demonstrates the
//! paper's point that "higher-level data services can be efficiently
//! built on top of PreDatA middleware".

use std::sync::Arc;

use bpio::DataArray;
use ffs::Value;
use predata_core::agg::Aggregates;
use predata_core::chunk::PackedChunk;
use predata_core::op::{
    ChunkMapper, ComputeSideOp, MapCtx, OpCtx, OpResult, StageRows, StreamOp, Tagged,
};
use predata_core::schema::{particles_of, COL_ID, COL_RANK, PARTICLE_WIDTH};

use crate::domain::Region;
use crate::space::{DataSpaces, VarRef};

/// Streams one particle attribute into a shared [`DataSpaces`] over the
/// (local id, rank) label domain; commits the version at `finalize`.
///
/// Each pipeline rank writes the cells of the chunks *it* pulled —
/// writers are independent; the space's block hashing does the
/// redistribution (no shuffle phase needed).
pub struct SpaceIndexOp {
    space: Arc<DataSpaces>,
    /// Attribute column stored in each (id, rank) cell.
    pub(crate) column: usize,
    /// Variable name within the space.
    pub(crate) var: String,
    cells_put: u64,
}

impl SpaceIndexOp {
    pub fn new(space: Arc<DataSpaces>, column: usize, var: impl Into<String>) -> Self {
        assert!(column < PARTICLE_WIDTH);
        SpaceIndexOp {
            space,
            column,
            var: var.into(),
            cells_put: 0,
        }
    }
}

impl ComputeSideOp for SpaceIndexOp {
    fn partial_calculate(&self, pg: &bpio::ProcessGroup, out: &mut ffs::AttrList) {
        if let Some(np) = predata_core::schema::particle_count(pg) {
            out.set("np", Value::U64(np));
        }
    }
}

impl StreamOp for SpaceIndexOp {
    fn name(&self) -> &str {
        "space_index"
    }

    fn stage_rows(&self) -> StageRows {
        predata_core::stage_rows!("space_index")
    }

    fn initialize(&mut self, _agg: &Aggregates, _ctx: &OpCtx) {
        self.cells_put = 0;
    }

    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        struct SpaceIndexMapper {
            space: Arc<DataSpaces>,
            column: usize,
            /// Resolved once per mapper: per-particle puts skip the
            /// directory lock entirely (the hot-path win of `VarRef`).
            var: VarRef,
        }
        impl ChunkMapper for SpaceIndexMapper {
            fn map_chunk(&self, chunk: &PackedChunk, _ctx: &MapCtx) -> Vec<Tagged> {
                let Some(rows) = particles_of(&chunk.pg) else {
                    return Vec::new();
                };
                let dom = &self.space.config().domain;
                let mut cells_put = 0u64;
                for row in rows.chunks_exact(PARTICLE_WIDTH) {
                    let id = row[COL_ID] as u64;
                    let rank = row[COL_RANK] as u64;
                    if id >= dom[0] || rank >= dom[1] {
                        continue; // outside the declared label domain
                    }
                    let region = Region::new(vec![id, rank], vec![1, 1]);
                    // Put errors here mean a mis-sized domain; surface
                    // loudly in debug, skip in release (the space records
                    // the incomplete coverage and queries report holes).
                    let r = self.space.put_ref(
                        &self.var,
                        chunk.step,
                        &region,
                        DataArray::F64(vec![row[self.column]]),
                    );
                    debug_assert!(r.is_ok(), "space put failed: {r:?}");
                    if r.is_ok() {
                        cells_put += 1;
                    }
                }
                // One summary item per chunk; combine() folds the counts.
                vec![Tagged::new(0, cells_put.to_le_bytes().to_vec())]
            }
        }
        Arc::new(SpaceIndexMapper {
            space: Arc::clone(&self.space),
            column: self.column,
            var: self
                .space
                .resolve_var(&self.var, bpio::Dtype::F64)
                .expect("space_index variable is F64"),
        })
    }

    fn combine(&mut self, items: Vec<Tagged>) -> Vec<Tagged> {
        for item in items {
            self.cells_put += u64::from_le_bytes(item.bytes[..8].try_into().unwrap());
        }
        Vec::new()
    }

    fn reduce(&mut self, _tag: u64, _items: Vec<bytes::Bytes>, _ctx: &OpCtx) {}

    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        // Publication point: every pipeline rank has put its cells — a
        // rank puts while it maps, and rank 0 left the step's exchange
        // only after every rank entered it — so rank 0 commits for
        // everyone.
        if ctx.my_rank() == 0 {
            self.space.commit(&self.var, ctx.step);
        }
        let mut result = OpResult {
            op: "space_index".into(),
            ..Default::default()
        };
        result.values.set("cells_put", Value::U64(self.cells_put));
        result.values.set("committed_version", Value::U64(ctx.step));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DsConfig;
    use crate::space::Reduction;
    use minimpi::World;
    use predata_core::op::complete_pipeline;
    use predata_core::schema::make_particle_pg;
    use std::time::Duration;

    #[test]
    fn indexes_chunks_and_commits() {
        let space = Arc::new(DataSpaces::new(DsConfig::new(vec![8, 2], vec![4, 1], 2)));
        let space2 = Arc::clone(&space);
        let out = World::run(2, move |comm| {
            let mut op = SpaceIndexOp::new(Arc::clone(&space2), 5, "weight");
            let dir = std::env::temp_dir();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 2,
                agg: None,
            };
            op.initialize(&Aggregates::local_only(&[]), &ctx);
            // Pipeline rank r indexes compute rank r's chunk: 8 particles
            // with weight = id × 0.1 + rank.
            let me = comm.rank() as u64;
            let rows: Vec<f64> = (0..8)
                .flat_map(|id| {
                    vec![
                        0.,
                        0.,
                        0.,
                        0.,
                        0.,
                        id as f64 * 0.1 + me as f64,
                        me as f64,
                        id as f64,
                    ]
                })
                .collect();
            let mapped = op.map(&PackedChunk::new(make_particle_pg(me, 0, rows)), &ctx);
            let res = complete_pipeline(&mut op, mapped, &ctx);
            res.values.get_u64("cells_put")
        });
        assert_eq!(out, vec![Some(8), Some(8)]);
        assert!(space.session_now("weight", 0).is_ok());

        // A consumer can now query arbitrary label regions.
        let whole = Region::whole(&[8, 2]);
        let all = space
            .get("weight", 0, &whole, Duration::from_secs(1))
            .unwrap();
        // Cell (id, rank) = id*0.1 + rank; row-major over (8, 2).
        let expect: Vec<f64> = (0..8)
            .flat_map(|id| (0..2).map(move |r| id as f64 * 0.1 + r as f64))
            .collect();
        assert_eq!(all, DataArray::F64(expect));
        let max = space
            .reduce("weight", 0, &whole, Reduction::Max, Duration::from_secs(1))
            .unwrap();
        assert!((max - 1.7).abs() < 1e-12);
    }

    /// Rank 1 maps late. Rank 0 still commits every cell rank 1 put:
    /// rank 0 leaves the exchange only after rank 1 has entered it,
    /// which is after rank 1's map. Read back before anything recommits.
    #[test]
    fn a_late_mapper_is_in_rank_0s_commit() {
        let space = Arc::new(DataSpaces::new(DsConfig::new(vec![8, 2], vec![4, 1], 2)));
        let space2 = Arc::clone(&space);
        let out = World::run(2, move |comm| {
            let mut op = SpaceIndexOp::new(Arc::clone(&space2), 5, "weight");
            let dir = std::env::temp_dir();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 2,
                agg: None,
            };
            op.initialize(&Aggregates::local_only(&[]), &ctx);
            let me = comm.rank() as u64;
            let rows: Vec<f64> = (0..8)
                .flat_map(|id| [0., 0., 0., 0., 0., 1., me as f64, id as f64])
                .collect();
            // No handshake exists to wait on: the bad interleaving is
            // rank 0 committing while rank 1 is still putting.
            if me == 1 {
                std::thread::sleep(Duration::from_millis(50));
            }
            let mapped = op.map(&PackedChunk::new(make_particle_pg(me, 0, rows)), &ctx);
            complete_pipeline(&mut op, mapped, &ctx);
            (me == 0).then(|| {
                let session = space2.session_now("weight", 0).unwrap();
                session
                    .reduce(&Region::whole(&[8, 2]), Reduction::Count)
                    .unwrap()
            })
        });
        assert_eq!(out, [Some(16.0), None]);
    }

    #[test]
    fn staged_dump_is_served_by_the_query_service() {
        use crate::service::{QueryKind, QueryService, QueryServiceConfig};

        let space = Arc::new(DataSpaces::new(DsConfig::new(vec![8, 2], vec![4, 1], 2)));
        let svc = QueryService::new(
            Arc::clone(&space),
            QueryServiceConfig {
                workers: 2,
                ..QueryServiceConfig::default()
            },
        );
        // A standing continuous query, registered before the dump lands:
        // the operator's commit must trigger its evaluation.
        let watch = svc.subscribe_reduce("weight", Region::whole(&[8, 2]), Reduction::Max, 4);

        let space2 = Arc::clone(&space);
        World::run(2, move |comm| {
            let mut op = SpaceIndexOp::new(Arc::clone(&space2), 5, "weight");
            let dir = std::env::temp_dir();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 2,
                agg: None,
            };
            op.initialize(&Aggregates::local_only(&[]), &ctx);
            let me = comm.rank() as u64;
            let rows: Vec<f64> = (0..8)
                .flat_map(|id| {
                    vec![
                        0.,
                        0.,
                        0.,
                        0.,
                        0.,
                        id as f64 * 0.1 + me as f64,
                        me as f64,
                        id as f64,
                    ]
                })
                .collect();
            let mapped = op.map(&PackedChunk::new(make_particle_pg(me, 0, rows)), &ctx);
            complete_pipeline(&mut op, mapped, &ctx);
        });

        // Range query through the front-end matches the direct get.
        let q = Region::new(vec![2, 0], vec![4, 2]);
        let via_service = svc
            .query("weight", 0, QueryKind::Range(q.clone()))
            .unwrap()
            .output
            .into_data();
        let direct = space.get("weight", 0, &q, Duration::from_secs(1)).unwrap();
        assert_eq!(via_service, direct);

        // The commit fired the continuous query with the dump's max.
        let update = watch.recv(Duration::from_secs(5)).expect("commit update");
        assert_eq!(update.version, 0);
        assert!((update.value - 1.7).abs() < 1e-12);
    }

    #[test]
    fn out_of_domain_labels_are_skipped() {
        let space = Arc::new(DataSpaces::new(DsConfig::new(vec![4, 1], vec![2, 1], 1)));
        let space2 = Arc::clone(&space);
        let out = World::run(1, move |comm| {
            let mut op = SpaceIndexOp::new(Arc::clone(&space2), 5, "w");
            let dir = std::env::temp_dir();
            let ctx = OpCtx {
                comm: &comm,
                out_dir: &dir,
                step: 0,
                n_compute: 1,
                agg: None,
            };
            op.initialize(&Aggregates::local_only(&[]), &ctx);
            // ids 0..8 but the domain only holds 0..4.
            let rows: Vec<f64> = (0..8)
                .flat_map(|id| vec![0., 0., 0., 0., 0., 1.0, 0.0, id as f64])
                .collect();
            let mapped = op.map(&PackedChunk::new(make_particle_pg(0, 0, rows)), &ctx);
            let res = complete_pipeline(&mut op, mapped, &ctx);
            res.values.get_u64("cells_put")
        });
        assert_eq!(out, vec![Some(4)]);
    }
}
