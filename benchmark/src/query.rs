//! The query engines behind `query_open` and `query_scan`: one
//! `DataSpaces` (1024 × 512 f64 in 64 × 32 blocks over 8 shards) fronted
//! by a `QueryService` on its defaults. Variable `f` version 0 is
//! committed at set-up; every value is a closed form of its index and a
//! per-version salt, and small enough an integer that any summation
//! order gives the exact sum — so every answer can be checked exactly.
//! Beside the reads, the load generator keeps writing fresh versions of
//! variable `g` one row stripe at a time, committing and evicting as
//! each version completes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpio::DataArray;
use dataspaces::{
    DataSpaces, DsConfig, QueryKind, QueryOutput, QueryService, QueryServiceConfig, Reduction,
    Region,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{attempt, finish, ms, us};
use crate::report::{Metric, Quantiles, Summary};
use crate::stats::{
    block_median_rate, median, open_loop_due_times, open_loop_latency, percentile, summarize, Fnv,
    Rung,
};
use crate::trace::{span, Tracer};

pub const DOMAIN: [u64; 2] = [1024, 512];
const BLOCK: [u64; 2] = [64, 32];
const SHARDS: usize = 8;
/// A version of `g` is written as this many row stripes.
const STRIPES: u64 = 32;
/// Latency limit on the gated percentile of the open-loop workload.
pub const LIMIT_MS: f64 = 10.0;
/// Rates of the open-loop rungs, queries per second.
pub const RATES: [f64; 3] = [200.0, 400.0, 800.0];
/// Share of the run's seconds each rung gets; the middle rung, whose
/// percentiles are the gated ones, gets half.
const RUNG_SHARE: [f64; 3] = [0.25, 0.5, 0.25];
const WARMUP_SECONDS: f64 = 0.5;
/// One range answer in this many is kept and compared element by
/// element (every reduction is compared).
const RANGE_SAMPLE: u64 = 16;

/// Value of cell `(i, j)`; `salt` distinguishes variables and versions.
pub fn cell(i: u64, j: u64, salt: u64) -> f64 {
    (i * DOMAIN[1] + j + salt) as f64
}

fn salt_of_g(version: u64) -> u64 {
    1000 * (version + 1)
}

fn region_data(region: &Region, salt: u64) -> Vec<f64> {
    let (r0, c0) = (region.corner[0], region.corner[1]);
    let mut v = Vec::with_capacity(region.volume() as usize);
    for i in r0..r0 + region.extent[0] {
        for j in c0..c0 + region.extent[1] {
            v.push(cell(i, j, salt));
        }
    }
    v
}

/// Exact sum of [`cell`] over a region, from the closed form.
fn region_sum(region: &Region, salt: u64) -> f64 {
    let (r0, c0) = (region.corner[0] as u128, region.corner[1] as u128);
    let (h, w) = (region.extent[0] as u128, region.extent[1] as u128);
    let sum_i = h * r0 + h * (h - 1) / 2;
    let sum_j = w * c0 + w * (w - 1) / 2;
    (DOMAIN[1] as u128 * w * sum_i + h * sum_j + salt as u128 * h * w) as f64
}

fn region_max(region: &Region, salt: u64) -> f64 {
    cell(
        region.corner[0] + region.extent[0] - 1,
        region.corner[1] + region.extent[1] - 1,
        salt,
    )
}

/// Whether a served answer equals the closed form.
fn answer_is_right(kind: &QueryKind, output: &QueryOutput) -> bool {
    match (kind, output) {
        (QueryKind::Range(r), QueryOutput::Data(d)) => d
            .as_f64()
            .is_some_and(|d| d == region_data(r, 0).as_slice()),
        (QueryKind::Reduce(r, Reduction::Sum), QueryOutput::Value(v)) => *v == region_sum(r, 0),
        (QueryKind::Reduce(r, Reduction::Max), QueryOutput::Value(v)) => *v == region_max(r, 0),
        _ => false,
    }
}

fn stripe_region(stripe: u64) -> Region {
    let rows = DOMAIN[0] / STRIPES;
    Region::new(vec![stripe * rows, 0], vec![rows, DOMAIN[1]])
}

pub struct QuerySpace {
    pub space: Arc<DataSpaces>,
    pub service: QueryService,
    /// First version of `g` the next section's writer may use, so
    /// sections of one run never write a version twice.
    next_g_version: AtomicU64,
}

/// `(puts, blocks_touched)` of the space so far.
fn space_counts(space: &DataSpaces) -> (u64, u64) {
    let stats = space.stats();
    (
        stats.puts.load(Ordering::Relaxed),
        stats.blocks_touched.load(Ordering::Relaxed),
    )
}

impl QuerySpace {
    /// Build the space, commit `f` v0, start the service.
    pub fn setup() -> Result<QuerySpace, String> {
        let space = Arc::new(DataSpaces::new(DsConfig::new(
            DOMAIN.to_vec(),
            BLOCK.to_vec(),
            SHARDS,
        )));
        for s in 0..STRIPES {
            let region = stripe_region(s);
            let data = DataArray::F64(region_data(&region, 0));
            space
                .put("f", 0, &region, data)
                .map_err(|e| format!("set-up put: {e}"))?;
        }
        space.commit("f", 0);
        let service = QueryService::new(Arc::clone(&space), QueryServiceConfig::default());
        Ok(QuerySpace {
            space,
            service,
            next_g_version: AtomicU64::new(0),
        })
    }
}

/// The writer beside the readers: stripes of fresh versions of `g`.
#[derive(Default)]
pub struct GWriter {
    version: u64,
    stripe: u64,
    put_us: Vec<f64>,
    commit_us: Vec<f64>,
    evict_us: Vec<f64>,
    failed: u64,
    puts: u64,
}

impl GWriter {
    fn start(qs: &QuerySpace) -> GWriter {
        GWriter {
            version: qs.next_g_version.load(Ordering::SeqCst),
            ..Default::default()
        }
    }

    /// Leave the unfinished version behind: the next writer starts after it.
    fn stop(&self, qs: &QuerySpace) {
        qs.next_g_version.store(self.version + 1, Ordering::SeqCst);
    }

    /// Put the next stripe; commit and evict when a version completes.
    pub fn put_next(&mut self, space: &DataSpaces, tracer: Option<&Tracer>) {
        let region = stripe_region(self.stripe);
        let data = DataArray::F64(region_data(&region, salt_of_g(self.version)));
        attempt(1);
        let t = Instant::now();
        let put = {
            let _s = span(tracer, "dataspaces.put", self.version);
            space.put("g", self.version, &region, data)
        };
        self.put_us.push(us(t.elapsed()));
        self.puts += 1;
        self.failed += put.is_err() as u64;
        finish(1);
        self.stripe += 1;
        if self.stripe == STRIPES {
            let t = Instant::now();
            {
                let _s = span(tracer, "dataspaces.commit", self.version);
                space.commit("g", self.version);
            }
            self.commit_us.push(us(t.elapsed()));
            let t = Instant::now();
            {
                let _s = span(tracer, "dataspaces.evict_before", self.version);
                space.evict_before("g", self.version);
            }
            self.evict_us.push(us(t.elapsed()));
            self.stripe = 0;
            self.version += 1;
        }
    }

    /// The newest version of `g` this writer committed reads back as
    /// written.
    fn verify(&self, space: &DataSpaces) -> (u64, u64) {
        if self.commit_us.is_empty() {
            return (0, 0);
        }
        let last = self.version - 1;
        let whole = Region::whole(&DOMAIN);
        let ok = space
            .get("g", last, &whole, Duration::from_secs(5))
            .ok()
            .and_then(|d| {
                d.as_f64()
                    .map(|d| d == region_data(&whole, salt_of_g(last)))
            })
            .unwrap_or(false);
        if !ok {
            eprintln!("reference check failed: `g` version {last} does not read back as written");
        }
        (1, !ok as u64)
    }

    fn metrics(&self, detail: &mut Vec<Metric>) {
        let stripe_mb = (stripe_region(0).volume() * 8) as f64 / 1e6;
        if !self.put_us.is_empty() {
            let p50 = median(&self.put_us);
            detail.push(Metric::new("dataspaces.put_us", p50, "us"));
            detail.push(Metric::new(
                "dataspaces.put_mbps",
                stripe_mb / (p50 / 1e6),
                "MB/s",
            ));
        }
        if !self.commit_us.is_empty() {
            detail.push(Metric::new(
                "dataspaces.commit_us",
                median(&self.commit_us),
                "us",
            ));
            detail.push(Metric::new(
                "dataspaces.evict_us",
                median(&self.evict_us),
                "us",
            ));
        }
        detail.push(Metric::new(
            "dataspaces.versions_committed",
            self.commit_us.len() as f64,
            "count",
        ));
    }
}

/// Seeded draw of one open-loop query: 40 % range 64×64, 20 % sum
/// 64×64, 20 % range 256×128, 20 % sum 256×256; corners uniform over
/// every position that keeps the region inside the domain (not aligned
/// to blocks).
fn draw_open_query(rng: &mut StdRng) -> QueryKind {
    let u: f64 = rng.random_range(0.0..1.0);
    let (ext, reduce) = if u < 0.4 {
        ([64, 64], false)
    } else if u < 0.6 {
        ([64, 64], true)
    } else if u < 0.8 {
        ([256, 128], false)
    } else {
        ([256, 256], true)
    };
    let region = Region::new(
        vec![
            rng.random_range(0..=DOMAIN[0] - ext[0]),
            rng.random_range(0..=DOMAIN[1] - ext[1]),
        ],
        ext.to_vec(),
    );
    if reduce {
        QueryKind::Reduce(region, Reduction::Sum)
    } else {
        QueryKind::Range(region)
    }
}

fn hash_kind(h: &mut Fnv, kind: &QueryKind) {
    let (tag, r) = match kind {
        QueryKind::Range(r) => (0, r),
        QueryKind::Reduce(r, how) => (1 + *how as u64, r),
    };
    h.u64(tag);
    for v in r.corner.iter().chain(&r.extent) {
        h.u64(*v);
    }
}

/// Checksum of the first thousand open-loop queries a seed generates.
pub fn open_input_checksum(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv::default();
    for _ in 0..1000 {
        hash_kind(&mut h, &draw_open_query(&mut rng));
    }
    h.0
}

/// One submitted query on its way to the collector.
struct Pending {
    idx: u64,
    rung: usize,
    due: Duration,
    sent: Duration,
    kind: QueryKind,
    ticket: Option<dataspaces::QueryTicket>,
}

/// One query as the collector saw it complete.
struct Done {
    rung: usize,
    /// A 64×64 range query — the modal class of the mix.
    modal: bool,
    latency_ms: f64,
    late_ms: f64,
    wait_us: f64,
    exec_us: f64,
    refused: bool,
    failed: bool,
    /// Completion, seconds from the schedule's start.
    done_s: f64,
    due_s: f64,
}

pub struct OpenResult {
    done: Vec<Done>,
    checks: u64,
    mismatches: u64,
    writer: GWriter,
    /// `SpaceStats` deltas over the run.
    puts: u64,
    blocks_touched: u64,
}

/// Open loop: a submitter follows the fixed schedule (warm-up, then the
/// three rungs) and a collector waits on the tickets in submission
/// order. Latency runs from the time a query was *due*.
pub fn run_open(qs: &QuerySpace, seed: u64, seconds: f64, tracer: Option<&Tracer>) -> OpenResult {
    let mut rungs = vec![Rung {
        rate: RATES[0],
        count: (RATES[0] * WARMUP_SECONDS) as usize,
    }];
    for (rate, share) in RATES.iter().zip(RUNG_SHARE) {
        rungs.push(Rung {
            rate: *rate,
            count: ((rate * seconds * share) as usize).max(50),
        });
    }
    let due = open_loop_due_times(&rungs);
    let rung_of: Vec<usize> = rungs
        .iter()
        .enumerate()
        .flat_map(|(i, r)| std::iter::repeat_n(i, r.count))
        .collect();
    let (puts0, blocks0) = space_counts(&qs.space);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut writer = GWriter::start(qs);
    let (tx, rx) = mpsc::channel::<Pending>();
    let n_events = due.len();
    let epoch = Instant::now();
    let (done, checks, mismatches) = std::thread::scope(|scope| {
        let collector = std::thread::Builder::new()
            .name("collector".into())
            .spawn_scoped(scope, move || {
                let mut done = Vec::with_capacity(n_events);
                let mut kept: Vec<(QueryKind, QueryOutput)> = Vec::new();
                for p in rx {
                    let outcome = p.ticket.map(|t| {
                        let _s = span(tracer, "dataspaces.service.ticket_wait", p.idx);
                        t.wait(Duration::from_secs(10))
                    });
                    let now = epoch.elapsed();
                    let (latency, late) = open_loop_latency(p.due, p.sent, now);
                    let mut d = Done {
                        rung: p.rung,
                        modal: matches!(&p.kind, QueryKind::Range(r) if r.extent == [64, 64]),
                        latency_ms: ms(latency),
                        late_ms: ms(late),
                        wait_us: 0.0,
                        exec_us: 0.0,
                        refused: outcome.is_none(),
                        failed: true,
                        done_s: now.as_secs_f64(),
                        due_s: p.due.as_secs_f64(),
                    };
                    if let Some(Ok(resp)) = outcome {
                        d.failed = false;
                        d.wait_us = us(resp.waited);
                        d.exec_us = us(resp.exec);
                        let is_range = matches!(p.kind, QueryKind::Range(_));
                        if !is_range || p.idx % RANGE_SAMPLE == 0 {
                            kept.push((p.kind, resp.output));
                        }
                    }
                    finish(1);
                    done.push(d);
                }
                // Reference checks, after every latency has been taken.
                let wrong = kept
                    .iter()
                    .filter(|(kind, out)| !answer_is_right(kind, out))
                    .count();
                (done, kept.len() as u64, wrong as u64)
            })
            .expect("spawn collector");
        for (idx, (&due_at, &rung)) in due.iter().zip(&rung_of).enumerate() {
            let idx = idx as u64;
            let kind = draw_open_query(&mut rng);
            let now = epoch.elapsed();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            attempt(1);
            let sent = epoch.elapsed();
            let ticket = {
                let _s = span(tracer, "dataspaces.service.submit", idx);
                qs.service.submit("f", 0, kind.clone()).ok()
            };
            tx.send(Pending {
                idx,
                rung,
                due: due_at,
                sent,
                kind,
                ticket,
            })
            .expect("collector outlives the submitter");
            if idx % 8 == 7 {
                writer.put_next(&qs.space, tracer);
            }
        }
        drop(tx);
        collector.join().expect("collector does not panic")
    });
    writer.stop(qs);
    let (puts1, blocks1) = space_counts(&qs.space);
    OpenResult {
        done,
        checks,
        mismatches,
        writer,
        puts: puts1 - puts0,
        blocks_touched: blocks1 - blocks0,
    }
}

/// Fold an open-loop run. The operation's latency is a query's execution
/// time in the service at the 400 q/s rung.
pub fn summarize_open(qs: &QuerySpace, r: &OpenResult) -> Summary {
    let measured: Vec<&Done> = r.done.iter().filter(|d| d.rung > 0).collect();
    let good: Vec<&Done> = measured.iter().copied().filter(|d| !d.failed).collect();
    let lat_of = |rung: usize| -> Vec<f64> {
        measured
            .iter()
            .filter(|d| d.rung == rung)
            // A failed or refused query misses any latency limit.
            .map(|d| {
                if d.failed {
                    f64::INFINITY
                } else {
                    d.latency_ms
                }
            })
            .collect()
    };
    let mid = lat_of(2);
    // Execution time in the service (session bind + band scans + merge)
    // of the mix's modal query, the 64×64 range, at the same rung — one
    // class, because a quantile of the whole mix sits on the boundary
    // between two classes and moves with the seed's draw. The queue wait before it and the collector's
    // wake-up after it are each one thread wake-up, which on this VM
    // takes 20 or 70 µs for a whole run depending on where the scheduler
    // put the threads — more than any bound admits — so they stay in the
    // detail (`wait_p50_us`, `query_p50_ms`) and the gate reads `exec`.
    let exec_ms: Vec<f64> = measured
        .iter()
        .filter(|d| d.rung == 2 && d.modal)
        .map(|d| {
            if d.failed {
                f64::INFINITY
            } else {
                d.exec_us / 1e3
            }
        })
        .collect();
    let mut detail = Vec::new();
    let mut sustained = 0.0;
    for (i, rate) in RATES.iter().enumerate() {
        let l = lat_of(i + 1);
        let p95 = percentile(&l, 0.95);
        detail.push(Metric::new(
            format!("dataspaces.service.p50_ms_at_{rate:.0}"),
            median(&l),
            "ms",
        ));
        detail.push(Metric::new(
            format!("dataspaces.service.p95_ms_at_{rate:.0}"),
            p95,
            "ms",
        ));
        // Keeping pace: the rung's last completions are no later
        // relative to their due times than its first ones by more than
        // the limit (no growing backlog).
        let of_rung: Vec<&&Done> = measured.iter().filter(|d| d.rung == i + 1).collect();
        let tenth = (of_rung.len() / 10).max(1);
        let lag = |ds: &[&&Done]| median(&ds.iter().map(|d| d.latency_ms).collect::<Vec<_>>());
        let growing = lag(&of_rung[of_rung.len() - tenth..]) - lag(&of_rung[..tenth]) > LIMIT_MS;
        if p95 <= LIMIT_MS && !growing {
            sustained = *rate;
        }
    }
    let all: Vec<f64> = good.iter().map(|d| d.latency_ms).collect();
    let s = summarize(&all);
    if let Some((label, v)) = s.tail {
        detail.push(Metric::new(
            format!("dataspaces.service.query_{label}_ms"),
            v,
            "ms",
        ));
    }
    let col = |f: fn(&Done) -> f64| -> Vec<f64> { good.iter().map(|d| f(d)).collect() };
    let refused = measured.iter().filter(|d| d.refused).count() as u64;
    let failed = measured.iter().filter(|d| d.failed).count() as u64;
    let missed = measured
        .iter()
        .filter(|d| !d.failed && d.latency_ms > LIMIT_MS)
        .count() as u64;
    let first_due = measured.first().map(|d| d.due_s).unwrap_or(0.0);
    let last_done = measured.iter().map(|d| d.done_s).fold(0.0, f64::max);
    let completed = measured.len() as u64 - failed;
    let ops_per_s = completed as f64 / (last_done - first_due).max(1e-9);
    detail.extend([
        Metric::new("query_p50_ms", median(&mid), "ms"),
        Metric::new("query_p95_ms", percentile(&mid, 0.95), "ms"),
        Metric::new("dataspaces.service.sustained_qps", sustained, "q/s"),
        Metric::new(
            "dataspaces.service.wait_p50_us",
            median(&col(|d| d.wait_us)),
            "us",
        ),
        Metric::new(
            "dataspaces.service.exec_p50_us",
            median(&col(|d| d.exec_us)),
            "us",
        ),
        Metric::new(
            "dataspaces.service.gen_late_p99_ms",
            percentile(&col(|d| d.late_ms), 0.99),
            "ms",
        ),
        Metric::new("timed_queries", measured.len() as f64, "count"),
    ]);
    r.writer.metrics(&mut detail);
    let (wchecks, wwrong) = r.writer.verify(&qs.space);
    let per_op = |v: u64| v as f64 / r.done.len().max(1) as f64;
    let counts = vec![
        Metric::new("dataspaces.puts", per_op(r.puts), "count/op"),
        Metric::new(
            "dataspaces.blocks_touched",
            per_op(r.blocks_touched),
            "count/op",
        ),
        Metric::new("dataspaces.service.refused", refused as f64, "count"),
        Metric::new("dataspaces.service.deadline_missed", missed as f64, "count"),
    ];
    let op_ms = Quantiles::of(&exec_ms);
    Summary {
        attempted: measured.len() as u64 + r.writer.puts,
        failed: failed + r.writer.failed,
        checks: r.checks + wchecks,
        mismatches: r.mismatches + wwrong,
        // Warm-up included: what the run's CPU time covers.
        ops: r.done.len() as u64,
        op_ms,
        ops_per_s,
        op_time_ms: op_ms.p50,
        cpu_s: 0.0,
        detail,
        counts,
    }
}

/// The four queries of one closed-loop round: whole-domain range
/// (4 MiB), quarter-domain range, whole-domain reduce-Max, half-domain
/// reduce-Sum; the partial regions' corners are seeded draws.
fn draw_scan_round(rng: &mut StdRng) -> [QueryKind; 4] {
    let quarter = [DOMAIN[0] / 2, DOMAIN[1] / 2];
    let half = [DOMAIN[0] / 2, DOMAIN[1]];
    [
        QueryKind::Range(Region::whole(&DOMAIN)),
        QueryKind::Range(Region::new(
            vec![
                rng.random_range(0..=DOMAIN[0] - quarter[0]),
                rng.random_range(0..=DOMAIN[1] - quarter[1]),
            ],
            quarter.to_vec(),
        )),
        QueryKind::Reduce(Region::whole(&DOMAIN), Reduction::Max),
        QueryKind::Reduce(
            Region::new(
                vec![rng.random_range(0..=DOMAIN[0] - half[0]), 0],
                half.to_vec(),
            ),
            Reduction::Sum,
        ),
    ]
}

pub fn scan_input_checksum(seed: u64) -> u64 {
    let mut h = Fnv::default();
    for client in 0..SCAN_CLIENTS as u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (client + 1));
        for _ in 0..250 {
            for kind in draw_scan_round(&mut rng) {
                hash_kind(&mut h, &kind);
            }
        }
    }
    h.0
}

pub const SCAN_CLIENTS: usize = 2;
const SCAN_KINDS: [&str; 4] = ["range_whole", "range_quarter", "max_whole", "sum_half"];

/// One closed-loop client's record.
struct ClientLog {
    /// Per round: summed latency of its four queries, ms.
    round_ms: Vec<f64>,
    /// Per kind: every latency, ms.
    kind_ms: [Vec<f64>; 4],
    wait_us: Vec<f64>,
    exec_us: Vec<f64>,
    failed: u64,
    checks: u64,
    mismatches: u64,
    writer: GWriter,
}

pub struct ScanResult {
    clients: Vec<ClientLog>,
    /// `SpaceStats` deltas over the run.
    puts: u64,
    blocks_touched: u64,
}

/// Closed loop: each client sends its next query only when the previous
/// answer is back. Answers are checked between queries, outside the
/// latency timers; client 0 also puts one stripe of `g` per round.
pub fn run_scan(qs: &QuerySpace, seed: u64, seconds: f64, tracer: Option<&Tracer>) -> ScanResult {
    let (puts0, blocks0) = space_counts(&qs.space);
    let deadline = Duration::from_secs_f64(seconds);
    let clients: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SCAN_CLIENTS)
            .map(|client| {
                std::thread::Builder::new()
                    .name(format!("client{client}"))
                    .spawn_scoped(scope, move || {
                        let mut rng = StdRng::seed_from_u64(seed ^ (client as u64 + 1));
                        let mut log = ClientLog {
                            round_ms: Vec::new(),
                            kind_ms: Default::default(),
                            wait_us: Vec::new(),
                            exec_us: Vec::new(),
                            failed: 0,
                            checks: 0,
                            mismatches: 0,
                            writer: GWriter::start(qs),
                        };
                        let started = Instant::now();
                        let mut q = 0u64;
                        while started.elapsed() < deadline || log.round_ms.len() < 10 {
                            let mut round = 0.0;
                            for (k, kind) in draw_scan_round(&mut rng).into_iter().enumerate() {
                                attempt(1);
                                let op = (client as u64) << 32 | q;
                                let t = Instant::now();
                                let resp = {
                                    let _s = span(tracer, "dataspaces.service.query", op);
                                    qs.service.query("f", 0, kind.clone())
                                };
                                let lat = ms(t.elapsed());
                                finish(1);
                                round += lat;
                                log.kind_ms[k].push(lat);
                                match resp {
                                    Ok(resp) => {
                                        log.wait_us.push(us(resp.waited));
                                        log.exec_us.push(us(resp.exec));
                                        let is_range = matches!(kind, QueryKind::Range(_));
                                        if !is_range || q % RANGE_SAMPLE < 2 {
                                            log.checks += 1;
                                            if !answer_is_right(&kind, &resp.output) {
                                                log.mismatches += 1;
                                                eprintln!(
                                                    "reference check failed: client {client} query {q} ({})",
                                                    SCAN_KINDS[k]
                                                );
                                            }
                                        }
                                    }
                                    Err(e) => {
                                        log.failed += 1;
                                        eprintln!("client {client} query {q}: {e}");
                                    }
                                }
                                q += 1;
                            }
                            log.round_ms.push(round);
                            if client == 0 {
                                log.writer.put_next(&qs.space, tracer);
                            }
                        }
                        log
                    })
                    .expect("spawn client")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client does not panic"))
            .collect()
    });
    clients[0].writer.stop(qs);
    let (puts1, blocks1) = space_counts(&qs.space);
    ScanResult {
        clients,
        puts: puts1 - puts0,
        blocks_touched: blocks1 - blocks0,
    }
}

/// Fold a closed-loop run. The operation is one round of four queries
/// as its client saw it.
pub fn summarize_scan(qs: &QuerySpace, r: &ScanResult) -> Summary {
    let rounds: Vec<f64> = r.clients.iter().flat_map(|c| c.round_ms.clone()).collect();
    // Each client's rate over its own waiting time (checks between
    // queries are think time, not service time), block-median; the
    // clients' rates add.
    let ops_per_s: f64 = r
        .clients
        .iter()
        .map(|c| {
            let mut acc = 0.0;
            let finish: Vec<f64> = c
                .round_ms
                .iter()
                .map(|ms| {
                    acc += ms / 1e3;
                    acc
                })
                .collect();
            block_median_rate(0.0, &finish)
        })
        .sum();
    let all: Vec<f64> = r
        .clients
        .iter()
        .flat_map(|c| c.kind_ms.iter().flatten().copied())
        .collect();
    let mut detail = vec![
        Metric::new("query_p50_ms", median(&all), "ms"),
        Metric::new("query_p95_ms", percentile(&all, 0.95), "ms"),
        Metric::new("query_qps", ops_per_s * 4.0, "q/s"),
        Metric::new("round_p50_ms", median(&rounds), "ms"),
        Metric::new("timed_queries", all.len() as f64, "count"),
    ];
    for (k, name) in SCAN_KINDS.iter().enumerate() {
        let v: Vec<f64> = r
            .clients
            .iter()
            .flat_map(|c| c.kind_ms[k].iter().copied())
            .collect();
        detail.push(Metric::new(
            format!("dataspaces.service.{name}_p50_ms"),
            median(&v),
            "ms",
        ));
    }
    let col = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        r.clients
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    };
    let (wait, exec) = (col(|c| &c.wait_us), col(|c| &c.exec_us));
    if !wait.is_empty() {
        detail.push(Metric::new(
            "dataspaces.service.wait_p50_us",
            median(&wait),
            "us",
        ));
        detail.push(Metric::new(
            "dataspaces.service.exec_p50_us",
            median(&exec),
            "us",
        ));
    }
    if let Some((label, v)) = summarize(&all).tail {
        detail.push(Metric::new(
            format!("dataspaces.service.query_{label}_ms"),
            v,
            "ms",
        ));
    }
    let writer = &r.clients[0].writer;
    writer.metrics(&mut detail);
    let (wchecks, wwrong) = writer.verify(&qs.space);
    let per_op = |v: u64| v as f64 / rounds.len().max(1) as f64;
    let counts = vec![
        Metric::new("dataspaces.puts", per_op(r.puts), "count/op"),
        Metric::new(
            "dataspaces.blocks_touched",
            per_op(r.blocks_touched),
            "count/op",
        ),
        Metric::new("dataspaces.service.refused", 0.0, "count"),
        Metric::new("dataspaces.service.deadline_missed", 0.0, "count"),
    ];
    let op_ms = Quantiles::of(&rounds);
    Summary {
        attempted: all.len() as u64 + writer.puts,
        failed: r.clients.iter().map(|c| c.failed).sum::<u64>() + writer.failed,
        checks: r.clients.iter().map(|c| c.checks).sum::<u64>() + wchecks,
        mismatches: r.clients.iter().map(|c| c.mismatches).sum::<u64>() + wwrong,
        ops: rounds.len() as u64,
        op_ms,
        ops_per_s,
        op_time_ms: op_ms.p50,
        cpu_s: 0.0,
        detail,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_agree_with_enumeration() {
        let r = Region::new(vec![37, 101], vec![64, 64]);
        let data = region_data(&r, 5);
        assert_eq!(data.iter().sum::<f64>(), region_sum(&r, 5));
        assert_eq!(
            data.iter().copied().fold(f64::MIN, f64::max),
            region_max(&r, 5)
        );
        let whole = Region::whole(&DOMAIN);
        assert_eq!(
            region_data(&whole, 0).iter().sum::<f64>(),
            region_sum(&whole, 0)
        );
    }

    #[test]
    fn same_seed_same_queries_different_seed_different_corners() {
        assert_eq!(open_input_checksum(7), open_input_checksum(7));
        assert_ne!(open_input_checksum(7), open_input_checksum(8));
        assert_eq!(scan_input_checksum(7), scan_input_checksum(7));
        assert_ne!(scan_input_checksum(7), scan_input_checksum(8));
    }

    #[test]
    fn draws_stay_inside_the_domain() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = DsConfig::new(DOMAIN.to_vec(), BLOCK.to_vec(), SHARDS);
        for _ in 0..2000 {
            let (QueryKind::Range(r) | QueryKind::Reduce(r, _)) = draw_open_query(&mut rng);
            cfg.check(&r).expect("inside the domain");
        }
    }
}
