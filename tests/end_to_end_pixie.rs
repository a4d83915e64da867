//! End-to-end Pixie3D pipeline: block-decomposed MHD fields staged and
//! re-organized into merged layouts; verifies the merged data bit-exactly
//! and demonstrates the read-cost gap between merged and unmerged files —
//! the functional counterpart of paper Fig. 11.

use std::path::PathBuf;
use std::sync::Arc;

use predata::apps::PixieWorld;
use predata::bpio::{BpReader, BpWriter};
use predata::core::op::StreamOp;
use predata::core::ops::ReorgOp;
use predata::core::schema::PIXIE_FIELDS;
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

fn out_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("e2e-pixie-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn reorg_merges_exactly_and_reads_cheaper() {
    // 2x2x2 decomposition of a 16³ global grid, staged to 2 ranks.
    let world = PixieWorld::new([2, 2, 2], [8, 8, 8]);
    let n_compute = world.n_ranks();
    let n_staging = 2;
    let dir = out_dir("merge");

    let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));

    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| vec![Box::new(ReorgOp::pixie3d()) as Box<dyn StreamOp>]),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        1,
    );

    // Staged path + an "unmerged" file written the In-Compute-Node way.
    let unmerged_path = dir.join("unmerged.bp");
    let mut unmerged = BpWriter::create(&unmerged_path).unwrap();
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![Arc::new(ReorgOp::pixie3d())]))
        .collect();
    for (r, c) in clients.iter().enumerate() {
        let pg = world.output_pg(r);
        unmerged.append_pg(&pg).unwrap(); // synchronous scattered write
        c.write_pg(pg).unwrap(); // asynchronous staged write
    }
    unmerged.finish().unwrap();
    area.join().into_iter().for_each(|r| {
        r.expect("staging ok");
    });

    // --- correctness: merged slabs reconstruct every field exactly ---
    let global = world.global_dims();
    for field in PIXIE_FIELDS {
        let mut assembled = vec![0.0f64; (16 * 16 * 16) as usize];
        let mut merged_reads = 0;
        for rank in 0..n_staging {
            let path = dir.join(format!("merged_step0_rank{rank}.bp"));
            let mut r = BpReader::open(&path).unwrap();
            assert_eq!(
                r.index().attr("layout"),
                Some("merged"),
                "annotation present"
            );
            let idx = r.index().chunks_of(field, 0)[0].clone();
            let data = r
                .read_box(field, 0, &idx.offset_in_global, &idx.local)
                .unwrap();
            merged_reads += r.take_stats().reads;
            let lo = idx.offset_in_global[0] as usize;
            let n = data.len();
            assembled[lo * 256..lo * 256 + n].copy_from_slice(data.as_f64().unwrap());
        }
        let mut idx = 0;
        for i in 0..global[0] {
            for j in 0..global[1] {
                for k in 0..global[2] {
                    let expect = world.field_at(field, [i, j, k]);
                    assert_eq!(assembled[idx], expect, "{field} at ({i},{j},{k})");
                    idx += 1;
                }
            }
        }

        // --- cost: merged reads ≪ unmerged reads for the same array ---
        let mut ur = BpReader::open(&unmerged_path).unwrap();
        ur.read_global(field, 0).unwrap();
        let unmerged_stats = ur.take_stats();
        assert!(
            unmerged_stats.reads >= 4 * merged_reads,
            "{field}: unmerged {} reads vs merged {merged_reads}",
            unmerged_stats.reads,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unmerged_file_still_reconstructs_global() {
    // Sanity: the scattered layout is *correct*, just expensive.
    let world = PixieWorld::new([2, 1, 2], [4, 8, 4]);
    let dir = out_dir("scatter");
    let path = dir.join("scattered.bp");
    let mut w = BpWriter::create(&path).unwrap();
    for r in 0..world.n_ranks() {
        w.append_pg(&world.output_pg(r)).unwrap();
    }
    w.finish().unwrap();

    let mut r = BpReader::open(&path).unwrap();
    let rho = r.read_global("rho", 0).unwrap();
    let v = rho.as_f64().unwrap();
    let g = world.global_dims();
    let mut idx = 0;
    for i in 0..g[0] {
        for j in 0..g[1] {
            for k in 0..g[2] {
                assert_eq!(v[idx], world.field_at("rho", [i, j, k]));
                idx += 1;
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diagnostics_pipeline_on_merged_output() {
    // The Fig. 2 flow: merged arrays → diagnostic quantities. Total energy
    // computed from merged output equals the sum of per-rank energies.
    let world = PixieWorld::new([2, 2, 1], [4, 4, 8]);
    let n_compute = world.n_ranks();
    let dir = out_dir("diag");

    let (_fabric, computes, stagings) = Fabric::new(n_compute, 1, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 1));
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| vec![Box::new(ReorgOp::pixie3d()) as Box<dyn StreamOp>]),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        1,
    );
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![Arc::new(ReorgOp::pixie3d())]))
        .collect();
    for (r, c) in clients.iter().enumerate() {
        c.write_pg(world.output_pg(r)).unwrap();
    }
    area.join().into_iter().for_each(|r| {
        r.expect("staging ok");
    });

    let mut r = BpReader::open(dir.join("merged_step0_rank0.bp")).unwrap();
    let fetch = |r: &mut BpReader, f: &str| -> Vec<f64> {
        r.read_global(f, 0).unwrap().as_f64().unwrap().to_vec()
    };
    let rho = fetch(&mut r, "rho");
    let px = fetch(&mut r, "px");
    let py = fetch(&mut r, "py");
    let pz = fetch(&mut r, "pz");
    let energy: f64 = rho
        .iter()
        .zip(&px)
        .zip(&py)
        .zip(&pz)
        .map(|(((r, x), y), z)| (x * x + y * y + z * z) / (2.0 * r))
        .sum();
    let reference: f64 = (0..world.n_ranks()).map(|r| world.local_energy(r)).sum();
    assert!(
        (energy - reference).abs() < 1e-9 * reference.abs().max(1.0),
        "energy from merged output {energy} vs per-rank reference {reference}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
