//! Figure 11: time to read one global array of one time step from two
//! 80 GB BP files — one written from the staging area after merging
//! ("merged"), one written per-process from 4096 compute cores
//! ("unmerged") — for varying numbers of reader cores.
//!
//! Paper target: ~10× faster reads from the merged file.
//!
//! Two levels:
//! 1. machine scale (model): 4096 chunks vs 32 slabs of a 10 GB array on
//!    the XT4 file-system model, per reader-core count;
//! 2. laptop scale (functional): real BP files written both ways, read
//!    back with `ReadStats` instrumentation and wall timing.

use std::sync::Arc;

use apps::PixieWorld;
use bpio::{BpReader, BpWriter};
use predata_bench::{maybe_json, print_table};
use predata_core::op::{ComputeSideOp, StreamOp};
use predata_core::ops::ReorgOp;
use predata_core::{PredataClient, StagingArea, StagingConfig};
use simhec::pfs::PfsModel;
use simhec::MachineConfig;
use transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

fn main() {
    // --- machine scale: the paper's 4096-core runs (model) ---
    // Eight 3-D doubles per dump; one global array of an 80 GB file is
    // 80/8 = 10 GB. Unmerged: 4096 scattered chunks; merged: one chunk
    // per staging process (4096/128 cores → 32 procs).
    let machine = MachineConfig::xt4_like();
    let array_bytes = 10e9;
    let unmerged_chunks = 4096u64;
    let merged_chunks = 32u64;
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for &readers in &[1usize, 2, 4, 8, 16, 32] {
        let pfs = PfsModel::new(machine.pfs.clone(), 7);
        // Each reader core reads a disjoint 1/readers share of the array,
        // touching its share of the chunks (at least one each).
        let un = pfs.read_time_ideal(
            array_bytes / readers as f64,
            readers,
            (unmerged_chunks / readers as u64).max(1),
        );
        let me = pfs.read_time_ideal(
            array_bytes / readers as f64,
            readers,
            (merged_chunks / readers as u64).max(1),
        );
        rows.push(format!(
            "{readers:>8} | {un:>12.1} {me:>12.1} | {:>7.1}x",
            un / me
        ));
        series.push(serde_json::json!({
            "reader_cores": readers,
            "unmerged_s": un,
            "merged_s": me,
            "speedup": un / me,
        }));
    }
    print_table(
        "Fig. 11 (model): read one 10 GB global array, 4096-core-run files",
        " readers |  unmerged(s)    merged(s) | speedup",
        &rows,
    );

    // --- laptop scale: real files through the real middleware ---
    let world = PixieWorld::new([4, 4, 4], [12, 12, 12]);
    let n_compute = world.n_ranks();
    let n_staging = 4;
    let dir = std::env::temp_dir().join(format!("fig11-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

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
    let unmerged_path = dir.join("unmerged.bp");
    let mut w = BpWriter::create(&unmerged_path).unwrap();
    for (r, e) in computes.into_iter().enumerate() {
        let ops: Vec<Arc<dyn ComputeSideOp>> = vec![Arc::new(ReorgOp::pixie3d())];
        let client = PredataClient::new(e, Arc::clone(&router), ops);
        let pg = world.output_pg(r);
        w.append_pg(&pg).unwrap();
        client.write_pg(pg).unwrap();
    }
    w.finish().unwrap();
    area.join().into_iter().for_each(|r| {
        r.expect("staging ok");
    });

    let mut ur = BpReader::open(&unmerged_path).unwrap();
    let t = std::time::Instant::now();
    ur.read_global("temp", 0).unwrap();
    let t_un = t.elapsed();
    let s_un = ur.take_stats();

    let mut t_me = std::time::Duration::ZERO;
    let mut reads_me = 0;
    for rank in 0..n_staging {
        let mut mr = BpReader::open(dir.join(format!("merged_step0_rank{rank}.bp"))).unwrap();
        let idx = mr.index().chunks_of("temp", 0)[0].clone();
        let t = std::time::Instant::now();
        mr.read_box("temp", 0, &idx.offset_in_global, &idx.local)
            .unwrap();
        t_me += t.elapsed();
        reads_me += mr.take_stats().reads;
    }
    println!(
        "\nfunctional check ({n_compute} writers → {n_staging} slabs, 48³ doubles):\n  \
         unmerged: {:>4} read ops, {:>8.2} ms\n  merged:   {:>4} read ops, {:>8.2} ms  \
         ({:.0}x fewer ops)",
        s_un.reads,
        t_un.as_secs_f64() * 1e3,
        reads_me,
        t_me.as_secs_f64() * 1e3,
        s_un.reads as f64 / reads_me as f64
    );
    std::fs::remove_dir_all(&dir).ok();
    maybe_json("fig11", &serde_json::Value::Array(series));
}
