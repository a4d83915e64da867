//! GTC outputs *two* particle arrays per dump — electrons and ions — and
//! the paper applies every operator "to both the electron and ion
//! particle arrays". Species are staged as consecutive I/O sessions
//! (electrons on even steps, ions on odd), so one operator pipeline
//! serves both without special-casing.

use std::sync::Arc;

use predata::apps::{GtcWorld, Species};
use predata::core::op::StreamOp;
use predata::core::ops::{HistogramOp, SortOp};
use predata::core::schema::{particle_key, PARTICLE_WIDTH};
use predata::core::{PredataClient, StagingArea, StagingConfig};
use predata::transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

#[test]
fn both_species_sorted_and_histogrammed() {
    let n_compute = 4;
    let n_staging = 2;
    let per_rank = 150;
    let dir = std::env::temp_dir().join(format!("species-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
    let area = StagingArea::spawn(
        stagings,
        Arc::clone(&router),
        Arc::new(|_| {
            vec![
                Box::new(SortOp::new()) as Box<dyn StreamOp>,
                Box::new(HistogramOp::new(vec![3], 16)),
            ]
        }),
        Arc::new(|_| Box::new(FifoPolicy) as Box<dyn PullPolicy>),
        StagingConfig::new(n_compute, &dir),
        2, // io_step 0 = electrons, io_step 1 = ions
    );

    let mut world = GtcWorld::new(n_compute, per_rank, 55);
    for _ in 0..4 {
        world.step(); // disorder both arrays
    }
    let clients: Vec<PredataClient> = computes
        .into_iter()
        .map(|e| PredataClient::new(e, Arc::clone(&router), vec![Arc::new(SortOp::new())]))
        .collect();
    for (io_step, species) in Species::BOTH.iter().enumerate() {
        for (r, c) in clients.iter().enumerate() {
            let mut pg = world.output_species_pg(r, *species);
            pg.step = io_step as u64;
            c.write_pg(pg).unwrap();
        }
    }

    let mut hist_totals = [0u64; 2];
    let mut hist_spread = [0usize; 2]; // number of non-empty bins
    for reports in area.join() {
        for rep in reports.expect("staging ok") {
            for res in &rep.results {
                if let Some(predata::ffs::Value::ArrU64(bins)) = res.values.get("hist_v_par") {
                    hist_totals[rep.step as usize] += bins.iter().sum::<u64>();
                    hist_spread[rep.step as usize] += bins.iter().filter(|&&b| b > 0).count();
                }
            }
        }
    }
    let expect = (n_compute * per_rank) as u64;
    assert_eq!(
        hist_totals,
        [expect, expect],
        "all particles of each species counted"
    );
    // Electrons have a wider velocity distribution than ions — but both
    // histograms span their own global range, so both spread over many
    // bins; what distinguishes species is the sorted data below.
    assert!(hist_spread.iter().all(|&s| s > 4));

    // Each species' sorted output is complete and ordered.
    for (io_step, species) in Species::BOTH.iter().enumerate() {
        let mut slices = Vec::new();
        for rank in 0..n_staging {
            let path = dir.join(format!("sorted_step{io_step}_rank{rank}.bp"));
            let mut r = predata::bpio::BpReader::open(&path).unwrap();
            let idx = r.index().chunks_of("particles", io_step as u64)[0].clone();
            let data = r
                .read_box(
                    "particles",
                    io_step as u64,
                    &idx.offset_in_global,
                    &idx.local,
                )
                .unwrap();
            let keys: Vec<u64> = data
                .as_f64()
                .unwrap()
                .chunks_exact(PARTICLE_WIDTH)
                .map(particle_key)
                .collect();
            slices.push((idx.offset_in_global[0], keys));
        }
        slices.sort_by_key(|(o, _)| *o);
        let all: Vec<u64> = slices.into_iter().flat_map(|(_, k)| k).collect();
        assert_eq!(all.len() as u64, expect, "{} complete", species.name());
        assert!(
            all.windows(2).all(|w| w[0] <= w[1]),
            "{} ordered",
            species.name()
        );
        let expected_labels: Vec<u64> = world
            .labels_of(*species)
            .into_iter()
            .map(|(r, id)| (r << 32) | id)
            .collect();
        assert_eq!(all, expected_labels, "{} conserved", species.name());
    }
    std::fs::remove_dir_all(&dir).ok();
}
