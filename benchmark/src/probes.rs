//! Isolated per-layer probes of the traced run.
//!
//! Each probe drives one public function of one layer on inputs of the
//! workloads' shapes — a 1 MiB GTC particle chunk, a 32 KiB Pixie3D
//! chunk, the 1024 × 512 query domain — generated from the run's seed,
//! and reports a median. The same suite runs after every workload's
//! traced section, so a regression names its layer whatever workload
//! showed it.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpio::{BpFileSet, BpReader, BpWriter, DataArray, ProcessGroup};
use dataspaces::{QueryKind, Reduction, Region};
use ffs::{AttrList, BaseType, FieldDesc, FormatDesc, Record};
use predata_core::op::{complete_pipeline, ComputeSideOp, MapCtx, OpCtx, StreamOp};
use predata_core::ops::{BitmapIndexOp, Histogram2dOp, HistogramOp, ReorgOp, SortOp};
use predata_core::{Aggregates, PackedChunk};
use transport::evq::EventQueue;
use transport::{Fabric, FetchRequest, LargestFirstPolicy, PullPolicy};

use crate::common::{ms, time_calls, time_loop_ns, us};
use crate::incompute::{InCompute, Phase};
use crate::query::{QuerySpace, DOMAIN};
use crate::report::Metric;
use crate::staged::{gtc_pool, pixie_pool, Kind, Staged, GTC_RANKS, N_STAGING};
use crate::stats::median;

const BUDGET: Duration = Duration::from_millis(120);

pub struct Probes {
    pub out: Vec<Metric>,
}

impl Probes {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.out.push(Metric::new(name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.out.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

fn mbps(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / 1e6 / d.as_secs_f64().max(1e-12)
}

/// Run every probe. `scratch` is a directory of the run's own.
pub fn run_all(seed: u64, scratch: &Path) -> Result<Probes, String> {
    let mut p = Probes { out: Vec::new() };
    std::fs::create_dir_all(scratch).map_err(|e| format!("probe scratch: {e}"))?;
    let gtc = gtc_pool(seed);
    let pixie = pixie_pool(seed);
    ffs_probes(&mut p, &gtc[0][0], &pixie[0][0])?;
    chunk_and_client_probes(&mut p, &gtc[0][0]);
    op_map_probes(&mut p, &gtc[0], &pixie[0], scratch);
    op_finish_probes(&mut p, &gtc[0], &pixie[0], scratch);
    incompute_probes(&mut p, seed, scratch)?;
    fabric_probes(&mut p, &gtc[0][0], &pixie[0][0])?;
    evq_and_policy_probes(&mut p);
    minimpi_probes(&mut p);
    bpio_probes(&mut p, &gtc[0], &pixie[0], scratch)?;
    dataspaces_probes(&mut p)?;
    obs_probes(&mut p, seed, scratch)?;
    apps_and_model_probes(&mut p, seed);
    Ok(p)
}

fn ffs_probes(
    p: &mut Probes,
    gtc_pg: &ProcessGroup,
    pixie_pg: &ProcessGroup,
) -> Result<(), String> {
    // A record of the packed chunk's shape: a few scalars and one bulk
    // byte vector of the PG's encoded size.
    let fmt = FormatDesc::new("probe_chunk")
        .field(FieldDesc::scalar("writer_rank", BaseType::U64))
        .field(FieldDesc::scalar("pg_len", BaseType::U64))
        .field(FieldDesc::vec("pg", BaseType::U8, "pg_len"))
        .build()
        .map_err(|e| e.to_string())?;
    let payload = gtc_pg.encode();
    let n = payload.len();
    let mut rec = Record::new(&fmt);
    rec.set("writer_rank", ffs::Value::U64(3))
        .map_err(|e| e.to_string())?;
    rec.set("pg_len", ffs::Value::U64(n as u64))
        .map_err(|e| e.to_string())?;
    rec.set("pg", ffs::Value::ArrU8(payload))
        .map_err(|e| e.to_string())?;
    let d = time_calls(BUDGET, 3, 20, || {
        std::hint::black_box(rec.encode_self_contained().expect("encodes"));
    });
    p.push("ffs.encode_mbps", mbps(n, d), "MB/s");
    let buf = rec.encode_self_contained().map_err(|e| e.to_string())?;
    let ns = time_loop_ns(2000, || {
        let view = ffs::decode_view(std::hint::black_box(&buf), None).expect("decodes");
        std::hint::black_box(view.get("pg").and_then(|v| v.bytes()).map(<[u8]>::len));
    });
    p.push("ffs.decode_view_mbps", n as f64 / 1e6 / (ns / 1e9), "MB/s");
    let small = PackedChunk::new(pixie_pg.clone())
        .pack()
        .map_err(|e| e.to_string())?;
    let ns = time_loop_ns(2000, || {
        std::hint::black_box(ffs::decode_header(std::hint::black_box(&small)).expect("header"));
    });
    p.push("ffs.header_decode_us", ns / 1e3, "us");
    Ok(())
}

fn chunk_and_client_probes(p: &mut Probes, gtc_pg: &ProcessGroup) {
    let chunk = PackedChunk::new(gtc_pg.clone());
    let bytes = gtc_pg.payload_bytes();
    let d = time_calls(BUDGET, 3, 20, || {
        std::hint::black_box(chunk.pack().expect("packs"));
    });
    p.push("core.chunk.pack_mbps", mbps(bytes, d), "MB/s");
    let buf = chunk.pack().expect("packs");
    let d = time_calls(BUDGET, 3, 20, || {
        std::hint::black_box(PackedChunk::unpack(std::hint::black_box(&buf)).expect("unpacks"));
    });
    p.push("core.chunk.unpack_mbps", mbps(bytes, d), "MB/s");
    let (sort, hist) = (SortOp::new(), HistogramOp::new(vec![0, 3], 64));
    let d = time_calls(BUDGET, 3, 20, || {
        let mut attrs = AttrList::new();
        sort.partial_calculate(gtc_pg, &mut attrs);
        hist.partial_calculate(gtc_pg, &mut attrs);
        std::hint::black_box(attrs);
    });
    p.push("core.client.partial_calc_us", us(d), "us");
}

/// The aggregates a step over `pgs` would start from.
fn aggregates_of(pgs: &[ProcessGroup], side: &[&dyn ComputeSideOp]) -> Aggregates {
    let pairs: Vec<(usize, AttrList)> = pgs
        .iter()
        .enumerate()
        .map(|(r, pg)| {
            let mut attrs = AttrList::new();
            for op in side {
                op.partial_calculate(pg, &mut attrs);
            }
            (r, attrs)
        })
        .collect();
    Aggregates::local_only(&pairs)
}

fn op_map_probes(p: &mut Probes, gtc: &[ProcessGroup], pixie: &[ProcessGroup], dir: &Path) {
    let (_world, comms) = minimpi::World::with_size(N_STAGING);
    let mut run = |name: &str,
                   mut op: Box<dyn StreamOp>,
                   side: &[&dyn ComputeSideOp],
                   pgs: &[ProcessGroup]| {
        let agg = aggregates_of(pgs, side);
        let ctx = OpCtx {
            comm: &comms[0],
            out_dir: dir,
            step: 0,
            n_compute: pgs.len(),
            agg: Some(&agg),
        };
        op.initialize(&agg, &ctx);
        let mapper = op.mapper();
        let map_ctx: MapCtx = ctx.map_ctx();
        let chunk = PackedChunk::new(pgs[0].clone());
        let bytes = pgs[0].payload_bytes();
        let d = time_calls(BUDGET, 3, 20, || {
            std::hint::black_box(mapper.map_chunk(&chunk, &map_ctx));
        });
        p.push(&format!("core.ops.{name}.map_mbps"), mbps(bytes, d), "MB/s");
    };
    let (sort, hist) = (SortOp::new(), HistogramOp::new(vec![0, 3], 64));
    let gtc_side: [&dyn ComputeSideOp; 2] = [&sort, &hist];
    run("sort", Box::new(SortOp::new()), &gtc_side, gtc);
    run(
        "histogram",
        Box::new(HistogramOp::new(vec![0, 3], 64)),
        &gtc_side,
        gtc,
    );
    run(
        "histogram2d",
        Box::new(Histogram2dOp::new(vec![(0, 1)], 32)),
        &gtc_side,
        gtc,
    );
    run(
        "bitmap",
        Box::new(BitmapIndexOp::new(2, 32)),
        &gtc_side,
        gtc,
    );
    let reorg = ReorgOp::pixie3d();
    run("reorg", Box::new(ReorgOp::pixie3d()), &[&reorg], pixie);
}

/// `complete_pipeline` (combine → shuffle → reduce → finalize) on a
/// two-rank world, each rank holding the mapped output of its half of
/// the dump: the median over repeats of the slower rank.
fn op_finish_probes(p: &mut Probes, gtc: &[ProcessGroup], pixie: &[ProcessGroup], scratch: &Path) {
    type MakeOp = fn() -> Box<dyn StreamOp>;
    let cases: [(&str, MakeOp, bool); 5] = [
        ("sort", || Box::new(SortOp::new()), true),
        (
            "histogram",
            || Box::new(HistogramOp::new(vec![0, 3], 64)),
            true,
        ),
        (
            "histogram2d",
            || Box::new(Histogram2dOp::new(vec![(0, 1)], 32)),
            true,
        ),
        ("bitmap", || Box::new(BitmapIndexOp::new(2, 32)), true),
        ("reorg", || Box::new(ReorgOp::pixie3d()), false),
    ];
    for (name, make, is_gtc) in cases {
        let pgs: Arc<Vec<ProcessGroup>> =
            Arc::new(if is_gtc { gtc.to_vec() } else { pixie.to_vec() });
        let dir = scratch.join(format!("finish-{name}"));
        std::fs::create_dir_all(&dir).ok();
        let per_rank = minimpi::World::run(N_STAGING, move |comm| {
            let (sort, hist, reorg) = (
                SortOp::new(),
                HistogramOp::new(vec![0, 3], 64),
                ReorgOp::pixie3d(),
            );
            let side: Vec<&dyn ComputeSideOp> = if is_gtc {
                vec![&sort, &hist]
            } else {
                vec![&reorg]
            };
            let agg = aggregates_of(&pgs, &side);
            let mut op = make();
            let mine: Vec<PackedChunk> = pgs
                .iter()
                .enumerate()
                .filter(|(r, _)| r * N_STAGING / pgs.len() == comm.rank())
                .map(|(_, pg)| PackedChunk::new(pg.clone()))
                .collect();
            let mut walls = Vec::new();
            for step in 0..12u64 {
                let ctx = OpCtx {
                    comm: &comm,
                    out_dir: &dir,
                    step,
                    n_compute: pgs.len(),
                    agg: Some(&agg),
                };
                op.initialize(&agg, &ctx);
                let mapped: Vec<_> = mine.iter().flat_map(|c| op.map(c, &ctx)).collect();
                comm.barrier();
                let t = Instant::now();
                let result = complete_pipeline(op.as_mut(), mapped, &ctx);
                walls.push(ms(t.elapsed()));
                for f in result.files {
                    let _ = std::fs::remove_file(f);
                }
            }
            walls
        });
        let slower: Vec<f64> = (2..12)
            .map(|i| per_rank.iter().map(|w| w[i]).fold(0.0, f64::max))
            .collect();
        p.push(&format!("core.ops.{name}.finish_ms"), median(&slower), "ms");
    }
}

fn incompute_probes(p: &mut Probes, seed: u64, scratch: &Path) -> Result<(), String> {
    let ic = InCompute::setup(seed, &scratch.join("incompute"))?;
    let phases = ic.run(vec![Phase::counted(5), Phase::counted(20)]);
    let s = crate::incompute::summarize_phase(&ic, &phases[1]);
    let get = |name: &str| {
        s.detail
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or(0.0)
    };
    p.push(
        "core.incompute.run_step_ms",
        get("core.incompute.run_step_p50_ms"),
        "ms",
    );
    p.push(
        "core.incompute.write_dump_ms",
        get("core.incompute.write_dump_p50_ms"),
        "ms",
    );
    Ok(())
}

/// One pull cycle on one thread: expose → request → recv → `rdma_get` →
/// completion.
fn fabric_probes(
    p: &mut Probes,
    gtc_pg: &ProcessGroup,
    pixie_pg: &ProcessGroup,
) -> Result<(), String> {
    let (_fabric, computes, stagings) = Fabric::new(16, 1, None);
    let big: Arc<[u8]> = PackedChunk::new(gtc_pg.clone())
        .pack()
        .map_err(|e| e.to_string())?
        .into();
    let small: Arc<[u8]> = PackedChunk::new(pixie_pg.clone())
        .pack()
        .map_err(|e| e.to_string())?
        .into();
    let wait = Duration::from_secs(5);
    let announce = |rank: usize, buf: &Arc<[u8]>| {
        let handle = computes[rank].expose(Arc::clone(buf), 0).expect("exposes");
        computes[rank]
            .send_request(
                0,
                FetchRequest {
                    src_rank: rank,
                    io_step: 0,
                    handle,
                    chunk_bytes: buf.len(),
                    format: PackedChunk::format_fingerprint(),
                    attrs: AttrList::new(),
                },
            )
            .expect("request sent");
    };
    for (name, buf) in [("pull_us_1m", &big), ("pull_us_32k", &small)] {
        let d = time_calls(BUDGET, 10, 50, || {
            announce(0, buf);
            let req = stagings[0].recv_request(wait).expect("request");
            std::hint::black_box(stagings[0].rdma_get(&req).expect("pull"));
            computes[0].wait_completion(wait).expect("completion");
        });
        p.push(&format!("transport.fabric.{name}"), us(d), "us");
    }
    let d = time_calls(BUDGET, 5, 30, || {
        for rank in 0..16 {
            announce(rank, &small);
        }
        let reqs: Vec<FetchRequest> = (0..16)
            .map(|_| stagings[0].recv_request(wait).expect("request"))
            .collect();
        for out in stagings[0].rdma_get_batch(&reqs) {
            std::hint::black_box(out.expect("pull"));
        }
        for c in &computes {
            c.wait_completion(wait).expect("completion");
        }
    });
    p.push("transport.fabric.pull_batch16_us_32k", us(d), "us");
    Ok(())
}

fn evq_and_policy_probes(p: &mut Probes) {
    // Hand-off: a token bounces between two threads through two queues;
    // half the round trip is one wake-up of a parked receiver.
    let (ping, pong): (EventQueue<u32>, EventQueue<u32>) =
        (EventQueue::unbounded(), EventQueue::unbounded());
    let rounds = 3000u32;
    let wait = Duration::from_secs(5);
    let half_trip_us = std::thread::scope(|s| {
        let (ping2, pong2) = (ping.clone(), pong.clone());
        s.spawn(move || {
            while let Ok(v) = ping2.recv(wait) {
                pong2.submit(v);
            }
        });
        let mut samples = Vec::with_capacity(rounds as usize);
        for i in 0..rounds {
            let t = Instant::now();
            ping.submit(i);
            pong.recv(wait).expect("echo");
            samples.push(us(t.elapsed()) / 2.0);
        }
        ping.close();
        median(&samples[rounds as usize / 10..])
    });
    p.push("transport.evq.handoff_us", half_trip_us, "us");
    let q: EventQueue<u64> = EventQueue::unbounded();
    let ns = time_loop_ns(100_000, || {
        q.submit(1);
        std::hint::black_box(q.try_poll());
    });
    // One submit and one poll per round.
    p.push("transport.evq.mops", 2.0 / ns * 1e3, "Mops/s");
    let (_f, computes, _s) = Fabric::new(1, 1, None);
    let requests: Vec<FetchRequest> = (0..128usize)
        .map(|i| FetchRequest {
            src_rank: i,
            io_step: 0,
            handle: computes[0].expose(vec![0u8; 8].into(), 0).expect("exposes"),
            chunk_bytes: 1000 + (i * 7919) % 128,
            format: 0,
            attrs: AttrList::new(),
        })
        .collect();
    let mut policy = LargestFirstPolicy;
    let ns = time_loop_ns(200, || {
        let mut pending = requests.clone();
        policy.order(&mut pending);
        std::hint::black_box(pending);
    });
    p.push("transport.policy.order_us_128", ns / 1e3, "us");
}

fn minimpi_probes(p: &mut Probes) {
    const MB: usize = 1 << 20;
    let rank0 = |size: usize, f: fn(&minimpi::Comm) -> f64| -> f64 {
        minimpi::World::run(size, move |comm| f(&comm))[0]
    };
    let v = rank0(2, |comm| {
        let mut walls = Vec::new();
        for _ in 0..24 {
            let out: Vec<Vec<u8>> = (0..comm.size()).map(|_| vec![7u8; MB]).collect();
            comm.barrier();
            let t = Instant::now();
            std::hint::black_box(comm.alltoall(out));
            walls.push(t.elapsed().as_secs_f64());
        }
        // Each rank ships 1 MiB to its peer and 1 MiB to itself.
        (2 * MB) as f64 / 1e6 / median(&walls[4..])
    });
    p.push("minimpi.alltoall_mbps_2r", v, "MB/s");
    let v = rank0(2, |comm| {
        let calls = 2000;
        comm.barrier();
        let t = Instant::now();
        for i in 0..calls {
            std::hint::black_box(comm.allgather(i as u64));
        }
        us(t.elapsed()) / calls as f64
    });
    p.push("minimpi.allgather_us_2r", v, "us");
    for (size, name) in [(2, "minimpi.barrier_us_2r"), (8, "minimpi.barrier_us_8r")] {
        let v = rank0(size, |comm| {
            let calls = 2000;
            comm.barrier();
            let t = Instant::now();
            for _ in 0..calls {
                comm.barrier();
            }
            us(t.elapsed()) / calls as f64
        });
        p.push(name, v, "us");
    }
    let v = rank0(8, |comm| {
        let mut walls = Vec::new();
        for _ in 0..16 {
            let mine = vec![comm.rank() as u8; MB];
            comm.barrier();
            let t = Instant::now();
            std::hint::black_box(comm.gather(0, mine));
            walls.push(t.elapsed().as_secs_f64());
        }
        (8 * MB) as f64 / 1e6 / median(&walls[4..])
    });
    p.push("minimpi.gather_mbps_8r", v, "MB/s");
}

fn bpio_probes(
    p: &mut Probes,
    gtc: &[ProcessGroup],
    pixie: &[ProcessGroup],
    scratch: &Path,
) -> Result<(), String> {
    let dir = scratch.join("bpio");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    // A 4 MiB process group: four ranks' particles in one array.
    let rows: Vec<f64> = gtc[..4]
        .iter()
        .filter_map(predata_core::schema::particles_of)
        .flatten()
        .copied()
        .collect();
    let big = predata_core::schema::make_particle_pg(0, 0, rows);
    let small = &pixie[0];
    let write = |pg: &ProcessGroup, path: &Path| {
        let mut w = BpWriter::create(path).expect("creates");
        w.append_pg(pg).expect("appends");
        w.finish().expect("finishes");
    };
    let path = dir.join("w.bp");
    let d = time_calls(BUDGET, 3, 15, || write(&big, &path));
    p.push("bpio.write_mbps", mbps(big.payload_bytes(), d), "MB/s");
    let d = time_calls(BUDGET, 5, 50, || write(small, &path));
    p.push("bpio.write_small_us", us(d), "us");
    let d = time_calls(BUDGET, 3, 20, || {
        std::hint::black_box(big.encode());
    });
    p.push("bpio.pg_encode_mbps", mbps(big.payload_bytes(), d), "MB/s");
    let encoded = big.encode();
    let d = time_calls(BUDGET, 3, 20, || {
        std::hint::black_box(
            ProcessGroup::decode(std::hint::black_box(&encoded)).expect("decodes"),
        );
    });
    p.push("bpio.pg_decode_mbps", mbps(big.payload_bytes(), d), "MB/s");
    // Two merged slab files of one Pixie dump, as the reorg operator
    // leaves them: produced by running it once.
    let merged_dir = dir.join("merged");
    let mut st = Staged::setup(Kind::Pixie, 1, &merged_dir)?;
    st.counted(1);
    st.shutdown();
    let files: Vec<_> = (0..N_STAGING)
        .map(|r| merged_dir.join(format!("merged_step0_rank{r}.bp")))
        .collect();
    let d = time_calls(BUDGET, 5, 50, || {
        std::hint::black_box(BpReader::open(&files[0]).expect("opens"));
    });
    p.push("bpio.open_us", us(d), "us");
    let mut set = BpFileSet::open(&files).map_err(|e| e.to_string())?;
    let field_bytes = set
        .read_global("rho", 0)
        .map_err(|e| e.to_string())?
        .byte_len();
    let d = time_calls(BUDGET, 3, 20, || {
        std::hint::black_box(set.read_global("rho", 0).expect("reads"));
    });
    p.push("bpio.read_global_mbps_merged", mbps(field_bytes, d), "MB/s");
    let mut r = BpReader::open(&files[0]).map_err(|e| e.to_string())?;
    let d = time_calls(BUDGET, 5, 50, || {
        std::hint::black_box(r.read_box("rho", 0, &[2, 3, 4], &[4, 8, 8]).expect("reads"));
    });
    p.push("bpio.read_box_us", us(d), "us");
    Ok(())
}

fn dataspaces_probes(p: &mut Probes) -> Result<(), String> {
    let qs = QuerySpace::setup()?;
    let d = time_calls(BUDGET, 10, 100, || {
        std::hint::black_box(qs.space.session_now("f", 0).expect("committed"));
    });
    p.push("dataspaces.session_open_us", us(d), "us");
    let session = qs.space.session_now("f", 0).map_err(|e| e.to_string())?;
    let small = Region::new(vec![37, 101], vec![64, 64]);
    let direct = time_calls(BUDGET, 10, 100, || {
        std::hint::black_box(session.get(&small).expect("gets"));
    });
    p.push("dataspaces.get_small_us", us(direct), "us");
    let whole = Region::whole(&DOMAIN);
    let d = time_calls(BUDGET, 2, 10, || {
        std::hint::black_box(session.get(&whole).expect("gets"));
    });
    p.push(
        "dataspaces.get_mbps",
        mbps(whole.volume() as usize * 8, d),
        "MB/s",
    );
    let d = time_calls(BUDGET, 2, 10, || {
        std::hint::black_box(session.reduce(&whole, Reduction::Sum).expect("reduces"));
    });
    p.push(
        "dataspaces.reduce_melems",
        whole.volume() as f64 / 1e6 / d.as_secs_f64(),
        "Melem/s",
    );
    // One stripe put and one whole-version commit, on a variable of
    // their own.
    let stripe = Region::new(vec![0, 0], vec![32, DOMAIN[1]]);
    let data: Vec<f64> = (0..stripe.volume()).map(|i| i as f64).collect();
    let mut version = 0u64;
    let d = time_calls(BUDGET, 5, 30, || {
        version += 1;
        qs.space
            .put("probe", version, &stripe, DataArray::F64(data.clone()))
            .expect("puts");
    });
    p.push("dataspaces.put_stripe_us", us(d), "us");
    let mut committed = 0u64;
    let d = time_calls(Duration::ZERO, 0, version as usize, || {
        committed += 1;
        qs.space.commit("probe", committed);
    });
    p.push("dataspaces.commit_probe_us", us(d), "us");
    qs.space.evict_before("probe", version + 1);
    // The service's own cost on the smallest query: service p50 minus
    // direct-session p50 on the same region.
    let served = time_calls(BUDGET, 20, 100, || {
        std::hint::black_box(
            qs.service
                .query("f", 0, QueryKind::Range(small.clone()))
                .expect("serves"),
        );
    });
    p.push(
        "dataspaces.service.overhead_us",
        us(served) - us(direct),
        "us",
    );
    Ok(())
}

fn obs_probes(p: &mut Probes, seed: u64, scratch: &Path) -> Result<(), String> {
    let reg = obs::Registry::new();
    let ns = time_loop_ns(20_000, || {
        drop(obs::span_in(&reg, "probe", 0));
    });
    p.push("obs.span_ns", ns, "ns");
    let counter = reg.counter("probe.counter", &[]);
    let ns = time_loop_ns(200_000, || counter.add(1));
    p.push("obs.counter_add_ns", ns, "ns");
    let hist = reg.histogram("probe.hist", &[]);
    let mut x = 1u64;
    let ns = time_loop_ns(200_000, || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        hist.record(x >> 40);
    });
    p.push("obs.histogram_record_ns", ns, "ns");
    // The global registry as this process has filled it so far.
    let d = time_calls(BUDGET, 1, 5, || {
        std::hint::black_box(obs::global().snapshot());
    });
    p.push("obs.snapshot_ms", ms(d), "ms");
    // What span recording costs the staged GTC pipeline: ten interleaved
    // 20-dump blocks, recording on / off, compared pairwise.
    let mut st = Staged::setup(Kind::Gtc, seed, &scratch.join("obs-cost"))?;
    st.counted(10);
    let mut ratios = Vec::new();
    for pair in 0..5 {
        let mut rate = [0.0f64; 2];
        // Alternate which side runs first.
        for side in [pair % 2, 1 - pair % 2] {
            obs::set_enabled(side == 0);
            let sec = st.counted(20);
            rate[side] = crate::staged::summarize_section(&st, &sec).ops_per_s;
        }
        ratios.push(rate[1] / rate[0] - 1.0);
    }
    obs::set_enabled(true);
    st.shutdown();
    p.push("obs.enabled_cost_frac", median(&ratios), "frac");
    Ok(())
}

fn apps_and_model_probes(p: &mut Probes, seed: u64) {
    let mut gtc = apps::GtcWorld::new(GTC_RANKS, crate::staged::GTC_PARTICLES, seed);
    gtc.step();
    let d = time_calls(BUDGET, 3, 20, || {
        std::hint::black_box(gtc.output_pg(0));
    });
    p.push("apps.gtc.output_pg_us", us(d), "us");
    let pixie = crate::staged::pixie_world(seed);
    let d = time_calls(BUDGET, 3, 20, || {
        std::hint::black_box(pixie.output_pg(0));
    });
    p.push("apps.pixie.output_pg_us", us(d), "us");
    // The paper-scale GTC scenario of the machine model (16 384 cores,
    // staging placement) — off every measured path, costed here.
    let cfg = simhec::scenario::ScenarioConfig {
        machine: simhec::MachineConfig::xt5_like(),
        costs: simhec::OpCosts::calibrated(),
        n_compute_procs: 16_384 / 8,
        procs_per_node: 1,
        threads_per_proc: 8,
        bytes_per_proc: 132e6,
        io_interval: 120.0,
        n_io_steps: 3,
        compute_burst: 2.0,
        collective_bytes_per_node: 32e6,
        staging_ratio: 64,
        staging_procs_per_node: 2,
        staging_threads_per_proc: 4,
        ops: vec![
            simhec::scenario::OpKind::Sort,
            simhec::scenario::OpKind::Histogram,
            simhec::scenario::OpKind::Histogram2D,
        ],
        placement: simhec::scenario::Placement::Staging,
        pull_policy: simhec::scenario::PullPolicyKind::PhaseAware,
        seed,
    };
    let d = time_calls(BUDGET, 1, 3, || {
        std::hint::black_box(simhec::StagedRun::run(&cfg));
    });
    p.push("simhec.gtc16384_run_ms", ms(d), "ms");
}
