//! Substrate micro-benchmarks: codec parsing, cache policies, reuse
//! distances, histograms, and generation throughput.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a benchmark aborts on a broken fixture"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cbs_cache::{policy_by_name, CachePolicy, ReuseDistances, SweepGrid, POLICY_NAMES};
use cbs_stats::LogHistogram;
use cbs_synth::presets::{self, CorpusConfig};
use cbs_trace::codec::alicloud;
use cbs_trace::{BlockId, IoRequest, MergeByTime, RequestBatch};

/// Bounds every group's runtime for the single-core CI box: small
/// sample counts and short measurement windows — these benches exist to
/// catch regressions of 2x, not 2%.
fn configure<M: criterion::measurement::Measurement>(group: &mut criterion::BenchmarkGroup<'_, M>) {
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
}

fn bench_codec(c: &mut Criterion) {
    let trace = cbs_bench::alicloud_trace();
    let lines: Vec<String> = trace
        .requests()
        .iter()
        .take(10_000)
        .map(alicloud::format_record)
        .collect();
    let mut group = c.benchmark_group("codec");
    configure(&mut group);
    group.throughput(criterion::Throughput::Elements(lines.len() as u64));
    group.bench_function("alicloud_parse_10k_records", |b| {
        b.iter(|| {
            for line in &lines {
                black_box(alicloud::parse_record(line).unwrap());
            }
        });
    });
    group.bench_function("alicloud_format_10k_records", |b| {
        let reqs: Vec<_> = trace.requests().iter().take(10_000).collect();
        b.iter(|| {
            for req in &reqs {
                black_box(alicloud::format_record(req));
            }
        });
    });
    group.finish();
}

fn access_pattern(n: usize) -> Vec<BlockId> {
    // zipf-ish synthetic pattern: mix of hot and cold blocks
    (0..n)
        .map(|i| {
            let x = (i * 2654435761) % 1000;
            BlockId::new(if x < 700 { x % 50 } else { x } as u64)
        })
        .collect()
}

fn bench_cache_policies(c: &mut Criterion) {
    let pattern = access_pattern(100_000);
    let mut group = c.benchmark_group("cache_policies");
    configure(&mut group);
    group.throughput(criterion::Throughput::Elements(pattern.len() as u64));
    for &name in POLICY_NAMES {
        group.bench_function(format!("{name}_100k_accesses"), |b| {
            b.iter(|| {
                let mut cache = policy_by_name(name, 128).expect("known policy");
                for &blk in &pattern {
                    black_box(cache.access(blk));
                }
            });
        });
    }
    group.bench_function("reuse_distance_100k_accesses", |b| {
        b.iter(|| {
            let mut rd = ReuseDistances::new();
            for &blk in &pattern {
                black_box(rd.access(blk));
            }
        });
    });
    group.finish();

    // The sweep's collapsed LRU stack lane alone, single-threaded: LRU
    // capacities only, no workers, so the time is span reduction plus
    // the lane and nothing waits on a channel.
    let config = CorpusConfig::new(128, 4, 4242).with_intensity_scale(0.05);
    let requests: Vec<IoRequest> = presets::alicloud_like(&config)
        .stream()
        .take(200_000)
        .collect();
    let batches: Vec<RequestBatch> = requests.chunks(65_536).map(RequestBatch::from).collect();
    let mut group = c.benchmark_group("cache_sweep");
    configure(&mut group);
    group.throughput(criterion::Throughput::Elements(requests.len() as u64));
    group.bench_function("lru_stack_sweep", |b| {
        b.iter(|| {
            let mut grid = SweepGrid::new().with_workers(0);
            for capacity in [4_096, 16_384, 65_536, 262_144, 1_048_576] {
                grid = grid.lru_capacity(capacity).expect("non-zero capacity");
            }
            let mut sweep = grid.start();
            for batch in &batches {
                sweep.observe_batch(batch);
            }
            black_box(sweep.finish())
        });
    });
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let values: Vec<u64> = (0..100_000u64)
        .map(|i| (i * 48271) % 10_000_000 + 1)
        .collect();
    let mut group = c.benchmark_group("stats");
    configure(&mut group);
    group.throughput(criterion::Throughput::Elements(values.len() as u64));
    group.bench_function("log_histogram_record_100k", |b| {
        b.iter(|| {
            let mut h = LogHistogram::with_default_precision();
            for &v in &values {
                h.record(v);
            }
            black_box(h)
        });
    });
    group.bench_function("log_histogram_quantiles", |b| {
        let mut h = LogHistogram::with_default_precision();
        for &v in &values {
            h.record(v);
        }
        b.iter(|| {
            for q in [0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
                black_box(h.quantile(q));
            }
        });
    });
    group.bench_function("exact_quantiles_100k", |b| {
        let floats: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        b.iter(|| {
            let q = cbs_stats::Quantiles::from_unsorted(floats.clone());
            black_box(q.paper_percentiles())
        });
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    configure(&mut group);
    group.bench_function("alicloud_like_corpus", |b| {
        let config = CorpusConfig::new(8, 1, 7).with_intensity_scale(0.002);
        b.iter(|| black_box(presets::alicloud_like(&config).generate()));
    });
    group.bench_function("merge_by_time", |b| {
        let trace = cbs_bench::alicloud_trace();
        let runs: Vec<Vec<_>> = trace.volumes().map(|v| v.requests().to_vec()).collect();
        b.iter(|| {
            let merged: usize =
                MergeByTime::new(runs.iter().map(|r| r.iter().copied()).collect()).count();
            black_box(merged)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_cache_policies,
    bench_stats,
    bench_generation
);
criterion_main!(benches);
