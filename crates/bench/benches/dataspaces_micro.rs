//! DataSpaces microbenchmarks: put, get, and reduction query throughput
//! over a 2-D particle-index-shaped domain.

use std::hint::black_box;
use std::time::Duration;

use bpio::DataArray;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dataspaces::{DataSpaces, DsConfig, Reduction, Region};

fn space() -> DataSpaces {
    DataSpaces::new(DsConfig::new(vec![4096, 64], vec![128, 8], 8))
}

fn bench_put(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataspaces_put");
    for rows in [256u64, 4096] {
        let region = Region::new(vec![0, 0], vec![rows, 64]);
        let data = DataArray::F64(vec![1.0; (rows * 64) as usize]);
        g.throughput(Throughput::Bytes(rows * 64 * 8));
        g.bench_with_input(BenchmarkId::new("region_rows", rows), &data, |b, data| {
            let ds = space();
            let mut v = 0;
            b.iter(|| {
                ds.put("f", v, &region, data.clone()).unwrap();
                v += 1;
                black_box(v)
            })
        });
    }
    g.finish();
}

fn bench_get(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataspaces_get");
    let ds = space();
    let whole = Region::whole(&[4096, 64]);
    ds.put("f", 0, &whole, DataArray::F64(vec![2.0; 4096 * 64]))
        .unwrap();
    ds.commit("f", 0);
    for rows in [64u64, 1024] {
        let q = Region::new(vec![128, 0], vec![rows, 64]);
        g.throughput(Throughput::Bytes(rows * 64 * 8));
        g.bench_with_input(BenchmarkId::new("region_rows", rows), &q, |b, q| {
            b.iter(|| black_box(ds.get("f", 0, q, Duration::from_secs(1)).unwrap()))
        });
    }
    g.finish();
}

fn bench_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataspaces_reduce");
    let ds = space();
    let whole = Region::whole(&[4096, 64]);
    ds.put("f", 0, &whole, DataArray::F64(vec![3.0; 4096 * 64]))
        .unwrap();
    ds.commit("f", 0);
    g.throughput(Throughput::Elements(4096 * 64));
    g.bench_function("max_whole_domain", |b| {
        b.iter(|| {
            black_box(
                ds.reduce("f", 0, &whole, Reduction::Max, Duration::from_secs(1))
                    .unwrap(),
            )
        })
    });
    g.finish();
}

/// The scan kernels on the benchmark harness's query shape
/// (`benchmark/src/query.rs`: 1024 × 512 f64 in 64 × 32 blocks over 8
/// shards), next to the harness's `dataspaces.*` probes.
fn bench_query_shape(c: &mut Criterion) {
    const DOMAIN: [u64; 2] = [1024, 512];
    let ds = DataSpaces::new(DsConfig::new(DOMAIN.to_vec(), vec![64, 32], 8));
    let whole = Region::whole(&DOMAIN);
    let ramp: Vec<f64> = (0..whole.volume()).map(|i| i as f64).collect();
    ds.put("f", 0, &whole, DataArray::F64(ramp)).unwrap();
    ds.commit("f", 0);
    let session = ds.session_now("f", 0).unwrap();

    let mut g = c.benchmark_group("dataspaces_query_shape");
    g.throughput(Throughput::Bytes(whole.volume() * 8));
    g.bench_function("get_whole_domain", |b| {
        b.iter(|| black_box(session.get(&whole).unwrap()))
    });
    g.throughput(Throughput::Elements(whole.volume()));
    for (name, how) in [("max", Reduction::Max), ("sum", Reduction::Sum)] {
        g.bench_function(format!("reduce_{name}_whole_domain"), |b| {
            b.iter(|| black_box(session.reduce(&whole, how).unwrap()))
        });
    }
    // Rows 37..549: the first and last block rows are cut, so their
    // blocks are scanned; the rows between are served from summaries.
    let half = Region::new(vec![37, 0], vec![DOMAIN[0] / 2, DOMAIN[1]]);
    g.throughput(Throughput::Elements(half.volume()));
    g.bench_function("reduce_sum_half_domain_unaligned", |b| {
        b.iter(|| black_box(session.reduce(&half, Reduction::Sum).unwrap()))
    });
    let stripe = Region::new(vec![0, 0], vec![32, DOMAIN[1]]);
    let data = DataArray::F64(vec![1.0; stripe.volume() as usize]);
    g.throughput(Throughput::Bytes(stripe.volume() * 8));
    g.bench_function("put_stripe", |b| {
        let mut v = 0;
        b.iter(|| {
            v += 1;
            ds.put("g", v, &stripe, data.clone()).unwrap();
            ds.evict_before("g", v);
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_put, bench_get, bench_reduce, bench_query_shape
}
criterion_main!(benches);
