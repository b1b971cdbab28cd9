//! Ablation benches for the design choices called out in `DESIGN.md`:
//! randomness window/threshold, block size, cache policy at the
//! Fig. 18 operating points, and quantile back-ends.
//!
//! These are *measurement* ablations: each variant runs the same
//! analysis with one knob changed, so the report shows both the cost
//! and (via eprintln at setup) the metric shift.

#![allow(clippy::expect_used, reason = "a benchmark aborts on a broken fixture")]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cbs_analysis::{analyze_trace, AnalysisConfig};
use cbs_cache::{policy_by_name, CacheSim, POLICY_NAMES};
use cbs_stats::{LogHistogram, Quantiles, Reservoir};
use cbs_trace::{BlockAccessColumn, BlockSize, RequestBatch};

/// Bounds every group's runtime for the single-core CI box: small
/// sample counts and short measurement windows — these benches exist to
/// catch regressions of 2x, not 2%.
fn configure<M: criterion::measurement::Measurement>(group: &mut criterion::BenchmarkGroup<'_, M>) {
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
}

fn bench_randomness_knobs(c: &mut Criterion) {
    let trace = cbs_bench::alicloud_trace();
    let mut group = c.benchmark_group("ablation_randomness");
    configure(&mut group);
    for window in [8usize, 32, 128] {
        group.bench_function(format!("window_{window}"), |b| {
            let config = AnalysisConfig {
                randomness_window: window,
                ..AnalysisConfig::default()
            };
            b.iter(|| black_box(analyze_trace(&trace, &config)));
        });
    }
    for threshold_kib in [64u64, 128, 256] {
        group.bench_function(format!("threshold_{threshold_kib}k"), |b| {
            let config = AnalysisConfig {
                randomness_threshold: threshold_kib * 1024,
                ..AnalysisConfig::default()
            };
            b.iter(|| black_box(analyze_trace(&trace, &config)));
        });
    }
    group.finish();
}

fn bench_block_size(c: &mut Criterion) {
    let trace = cbs_bench::alicloud_trace();
    let mut group = c.benchmark_group("ablation_block_size");
    configure(&mut group);
    for kib in [4u32, 16, 64] {
        group.bench_function(format!("block_{kib}k"), |b| {
            let config = AnalysisConfig {
                block_size: BlockSize::new(kib * 1024).expect("power of two"),
                ..AnalysisConfig::default()
            };
            b.iter(|| black_box(analyze_trace(&trace, &config)));
        });
    }
    group.finish();
}

fn bench_policies_at_fig18_points(c: &mut Criterion) {
    // Simulate each policy at the Fig. 18 cache points on the busiest
    // volume of the corpus.
    let trace = cbs_bench::alicloud_trace();
    let config = AnalysisConfig::default();
    let metrics = analyze_trace(&trace, &config).expect("valid config");
    let busiest = metrics
        .iter()
        .max_by_key(|m| m.requests())
        .expect("non-empty corpus");
    let requests = trace
        .volume(busiest.id)
        .expect("metrics from trace")
        .requests()
        .to_vec();
    let capacity = busiest.cache_blocks_for_fraction(0.10).max(8);

    // Expand the request stream to its block/op column ONCE — every
    // policy variant then measures pure policy cost over the shared
    // column instead of re-walking `span_of` per policy (the sweep
    // engine's shared-expansion path).
    let batch = RequestBatch::from(requests.as_slice());
    let mut column = BlockAccessColumn::with_capacity(batch.len());
    batch.expand_blocks_into(config.block_size, &mut column);

    let mut group = c.benchmark_group("ablation_fig18_policies");
    configure(&mut group);
    group.throughput(criterion::Throughput::Elements(requests.len() as u64));
    for &name in POLICY_NAMES {
        group.bench_function(name, |b| {
            b.iter(|| {
                let policy = policy_by_name(name, capacity).expect("known policy");
                let mut sim = CacheSim::new(policy, config.block_size);
                sim.run_column(&column);
                black_box(sim.stats())
            });
        });
    }
    group.bench_function("belady_opt", |b| {
        b.iter(|| black_box(cbs_cache::simulate_opt(column.blocks(), capacity)));
    });
    group.bench_function("mrc_from_reuse_distances", |b| {
        // the analyzer's alternative: one pass yields *every* capacity
        b.iter(|| {
            let mut rd = cbs_cache::ReuseDistances::new();
            for (blk, _) in column.iter() {
                rd.access(blk);
            }
            black_box(rd.to_mrc().miss_ratio_at(capacity))
        });
    });
    group.finish();
}

fn bench_quantile_backends(c: &mut Criterion) {
    let values: Vec<u64> = (0..200_000u64)
        .map(|i| (i * 6364136223846793005) % 50_000_000 + 1)
        .collect();
    let mut group = c.benchmark_group("ablation_quantiles");
    configure(&mut group);
    group.throughput(criterion::Throughput::Elements(values.len() as u64));
    group.bench_function("exact_sorted", |b| {
        b.iter(|| {
            let q = Quantiles::from_unsorted(values.iter().map(|&v| v as f64).collect());
            black_box(q.median())
        });
    });
    group.bench_function("log_histogram", |b| {
        b.iter(|| {
            let mut h = LogHistogram::with_default_precision();
            for &v in &values {
                h.record(v);
            }
            black_box(h.quantile(0.5))
        });
    });
    group.bench_function("reservoir_4k", |b| {
        b.iter(|| {
            let mut r = Reservoir::new(4096, 11);
            for &v in &values {
                r.offer(v as f64);
            }
            black_box(r.to_quantiles().median())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_randomness_knobs,
    bench_block_size,
    bench_policies_at_fig18_points,
    bench_quantile_backends
);
criterion_main!(benches);
