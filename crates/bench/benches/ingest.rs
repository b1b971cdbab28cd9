//! Ingest-path benchmarks: chunked parallel decode throughput (MB/s,
//! records/s) and end-to-end analyze throughput, batch vs streaming.
//!
//! Decode groups compare the sequential `AliCloudReader` against
//! `ParallelDecoder` at 1 thread (pipeline overhead) and at the
//! machine's core count (scaling). Analyze groups compare the
//! materialize-then-`Workbench::analyze` path against the sharded
//! one-pass `StreamingWorkbench`, fed either from the lazy corpus
//! stream or through the parallel decoder.
//!
//! Run `cargo run --release -p cbs-bench --bin ingest_perf` for the
//! larger-corpus numbers recorded in `EXPERIMENTS.md`.

#![allow(clippy::unwrap_used, reason = "a benchmark aborts on a broken fixture")]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use cbs_core::{StreamingWorkbench, Workbench};
use cbs_trace::codec::alicloud::{AliCloudReader, AliCloudWriter};
use cbs_trace::{CbtReader, CbtWriter, IoRequest, ParallelDecoder, Trace};

/// Bounds every group's runtime for the single-core CI box.
fn configure<M: criterion::measurement::Measurement>(group: &mut criterion::BenchmarkGroup<'_, M>) {
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
}

fn csv_fixture() -> (Vec<u8>, u64) {
    let trace = cbs_bench::alicloud_trace();
    let mut csv = Vec::new();
    let mut w = AliCloudWriter::new(&mut csv);
    for req in trace.requests() {
        w.write_request(req).unwrap();
    }
    (csv, trace.request_count() as u64)
}

fn bench_decode(c: &mut Criterion) {
    let (csv, records) = csv_fixture();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut group = c.benchmark_group("ingest_decode");
    configure(&mut group);
    group.throughput(Throughput::Bytes(csv.len() as u64));

    group.bench_function("sequential_reader", |b| {
        b.iter(|| {
            let n = AliCloudReader::new(&csv[..]).fold(0u64, |acc, r| {
                r.unwrap();
                acc + 1
            });
            assert_eq!(n, records);
            black_box(n)
        });
    });
    for threads in [1, cores] {
        let decoder = ParallelDecoder::new().with_threads(threads);
        group.bench_function(format!("parallel_{threads}_threads"), |b| {
            b.iter(|| {
                let mut n = 0u64;
                let stats = decoder
                    .decode_alicloud(&csv[..], |batch| n += batch.len() as u64)
                    .unwrap();
                assert_eq!(n, records);
                black_box(stats)
            });
        });
        if cores == 1 {
            break; // 1 and `cores` are the same configuration
        }
    }
    // CBT re-ingest of the same records; throughput stays CSV-bytes so
    // the MB/s numbers are directly comparable ("csv-equivalent").
    let cbt = {
        let mut w = CbtWriter::new(Vec::new());
        for req in AliCloudReader::new(&csv[..]) {
            w.write_request(&req.unwrap()).unwrap();
        }
        w.finish().unwrap()
    };
    group.bench_function("cbt_reader", |b| {
        b.iter(|| {
            let mut reader = CbtReader::new(&cbt[..]);
            let mut n = 0u64;
            while let Some(batch) = reader.read_batch().unwrap() {
                n += batch.len() as u64;
            }
            assert_eq!(n, records);
            black_box(n)
        });
    });
    group.finish();
}

/// Sweeps the [`StreamingWorkbench`] tuning knobs one at a time around
/// the defaults; `DEFAULT_BATCH_SIZE` and `DEFAULT_CHANNEL_DEPTH` are
/// picked from this group's results (see their doc comments).
fn bench_streaming_tuning(c: &mut Criterion) {
    let requests: Vec<IoRequest> = cbs_bench::alicloud_trace().iter_time_ordered().collect();

    let mut group = c.benchmark_group("streaming_tuning");
    configure(&mut group);
    group.throughput(Throughput::Elements(requests.len() as u64));

    for batch_size in [512usize, 2048, 8192, 32768] {
        group.bench_function(format!("batch_size_{batch_size}"), |b| {
            b.iter(|| {
                let wb = StreamingWorkbench::new().with_batch_size(batch_size);
                black_box(wb.analyze(requests.iter().copied()).len())
            });
        });
    }
    for depth in [1usize, 2, 4, 8] {
        group.bench_function(format!("channel_depth_{depth}"), |b| {
            b.iter(|| {
                let wb = StreamingWorkbench::new().with_channel_depth(depth);
                black_box(wb.analyze(requests.iter().copied()).len())
            });
        });
    }
    group.finish();
}

fn bench_analyze(c: &mut Criterion) {
    let (csv, records) = csv_fixture();
    let generator = {
        let config = cbs_synth::presets::CorpusConfig::new(16, 2, 4242).with_intensity_scale(0.002);
        cbs_synth::presets::alicloud_like(&config)
    };

    let mut group = c.benchmark_group("ingest_analyze");
    configure(&mut group);
    group.throughput(Throughput::Elements(records));

    // Batch: decode everything into a Trace, then analyze.
    group.bench_function("batch_decode_then_analyze", |b| {
        b.iter(|| {
            let trace: Trace = AliCloudReader::new(&csv[..])
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
                .into_iter()
                .collect();
            black_box(Workbench::new(trace).analyze().metrics().len())
        });
    });

    // Streaming: parallel decode feeding the sharded analyzer; the
    // trace is never materialized.
    group.bench_function("streaming_decode_analyze", |b| {
        let decoder = ParallelDecoder::new();
        b.iter(|| {
            let mut session = StreamingWorkbench::new().start();
            decoder
                .decode_alicloud(&csv[..], |batch| session.observe_batch(batch))
                .unwrap();
            black_box(session.finish().len())
        });
    });

    // Batch from the synthetic generator (materialize, sort, analyze).
    group.bench_function("batch_generate_then_analyze", |b| {
        b.iter(|| {
            let trace = generator.generate();
            black_box(Workbench::new(trace).analyze().metrics().len())
        });
    });

    // Streaming straight off the lazy generator: O(volumes) memory.
    group.bench_function("streaming_generate_analyze", |b| {
        b.iter(|| black_box(StreamingWorkbench::new().analyze(generator.stream()).len()));
    });

    group.finish();
}

criterion_group!(benches, bench_decode, bench_analyze, bench_streaming_tuning);
criterion_main!(benches);
