//! Ingest performance measurement harness.
//!
//! Produces the numbers recorded in `EXPERIMENTS.md` and
//! `BENCH_ingest.json`: chunked parallel decode throughput (MB/s,
//! records/s, CSV vs CBT, 1 vs N threads) and end-to-end analyze
//! throughput with peak RSS — batch, streaming, streaming from
//! columnar batches, and streaming from a CBT file.
//!
//! Peak RSS (`VmHWM` in `/proc/self/status`) is a process-lifetime
//! high-water mark, so the orchestrator re-execs itself with a phase
//! argument and each phase runs in a fresh subprocess:
//!
//! ```sh
//! cargo run --release -p cbs-bench --bin ingest_perf           # all phases
//! cargo run --release -p cbs-bench --bin ingest_perf stream 10 # one phase
//! cargo run --release -p cbs-bench --bin ingest_perf smoke     # CI gate
//! ```
//!
//! `--threads N` pins the worker-thread count used by the decode
//! phase (default: the core count); when `N == 1` the redundant
//! `parallel_n_threads` measurement is skipped because it would repeat
//! `parallel_1_thread`. Every phase records the thread count it
//! actually used.
//!
//! `--shards 1,2,4,8` sets the shard counts the orchestrator sweeps
//! through `stream-shards` phases (one subprocess per count), producing
//! the scaling curve in `EXPERIMENTS.md` together with the per-shard
//! load split and imbalance the skew-aware router achieved. The
//! `stream-cbt-mmap` phase measures the zero-copy re-ingest path:
//! `Mmap` + `CbtSliceReader` lending borrowed batches straight to
//! `observe_request_batch_ref`, no per-batch row materialization.
//!
//! `--workers 1,2,4,8` sets the worker counts the `analyze-partitioned`
//! phase sweeps the by-volume driver through (one subprocess,
//! one curve row per count, every run asserted bit-identical to the
//! sequential baseline before its timing is reported).
//!
//! Each phase prints a single-line JSON object; the orchestrator
//! assembles them into `BENCH_ingest.json`. Streaming phases attach a
//! `cbs-obs` registry and embed its export under `"metrics"` plus
//! coarse stage timings under `"stages"`; set `INGEST_PERF_NO_OBS=1`
//! to run the stream phase without a registry and measure the
//! observability overhead by A/B comparison (see `EXPERIMENTS.md`).

use std::io::Write as _;
use std::time::Instant;

use cbs_core::{StreamingWorkbench, Workbench};
use cbs_obs::{Registry, Stopwatch};
use cbs_synth::presets::{self, CorpusConfig};
use cbs_trace::codec::alicloud::{AliCloudReader, AliCloudWriter};
use cbs_trace::{CbtReader, CbtSliceReader, CbtWriter, Mmap, ParallelDecoder, RequestBatch, Trace};

/// A corpus whose lazy stream comfortably exceeds the largest
/// `--stream` target so `.take(n)` yields exactly `n` requests.
fn big_corpus() -> cbs_synth::CorpusGenerator {
    let config = CorpusConfig::new(128, 4, 4242).with_intensity_scale(0.05);
    presets::alicloud_like(&config)
}

/// The same corpus with every address region clamped to 64 MiB, so the
/// aggregate working set saturates after a few million requests. Used
/// to show streaming RSS tracks *unique blocks*, not request count.
fn bounded_corpus() -> cbs_synth::CorpusGenerator {
    const REGION_CAP: u64 = 64 << 20;
    let profiles = big_corpus()
        .profiles()
        .iter()
        .map(|p| {
            let mut p = p.clone();
            p.read_spatial.region_len = p.read_spatial.region_len.min(REGION_CAP);
            p.write_spatial.region_len = p.write_spatial.region_len.min(REGION_CAP);
            if let Some(job) = &mut p.daily_rewrite {
                job.region_len = job.region_len.min(REGION_CAP);
            }
            p
        })
        .collect();
    cbs_synth::CorpusGenerator::new(profiles).expect("clamped profiles stay valid")
}

fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Requests per stage-timing chunk: coarse enough that the two
/// `Stopwatch` reads per chunk vanish against ~8k observe calls.
const STAGE_CHUNK: usize = 8192;

/// Stream-analyze `millions`M requests without materializing them,
/// splitting wall time into generate vs observe stages per
/// [`STAGE_CHUNK`] requests and exporting pipeline metrics.
fn phase_stream(millions: u64, bounded: bool) {
    let n = (millions * 1_000_000) as usize;
    let generator = if bounded {
        bounded_corpus()
    } else {
        big_corpus()
    };
    let phase = if bounded {
        "stream_bounded_wss"
    } else {
        "stream"
    };
    let registry = Registry::new();
    // INGEST_PERF_NO_OBS=1 drops the registry so the observability
    // overhead itself can be measured (`"metrics"` comes out empty).
    let workbench = if std::env::var_os("INGEST_PERF_NO_OBS").is_some() {
        StreamingWorkbench::new()
    } else {
        StreamingWorkbench::new().with_registry(&registry)
    };
    let shards = workbench.shards();
    let start = Instant::now();
    let mut session = workbench.start();
    let mut stream = generator.stream().take(n);
    let mut buf = Vec::with_capacity(STAGE_CHUNK);
    let (mut generate_nanos, mut observe_nanos) = (0u64, 0u64);
    loop {
        buf.clear();
        let clock = Stopwatch::start();
        buf.extend(stream.by_ref().take(STAGE_CHUNK));
        generate_nanos += clock.elapsed_nanos();
        if buf.is_empty() {
            break;
        }
        let clock = Stopwatch::start();
        for &req in &buf {
            session.observe(req);
        }
        observe_nanos += clock.elapsed_nanos();
    }
    let observed = session.observed();
    let volumes = session.finish().len();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(observed, n as u64, "corpus smaller than requested target");
    println!(
        "{{\"phase\":\"{phase}\",\"requests\":{observed},\"volumes\":{volumes},\
         \"n_threads\":{shards},\"seconds\":{secs:.3},\"requests_per_sec\":{:.0},\
         \"stages\":{{\"generate_nanos\":{generate_nanos},\"observe_nanos\":{observe_nanos}}},\
         \"metrics\":{},\"peak_rss_kb\":{}}}",
        observed as f64 / secs,
        registry.to_json(),
        peak_rss_kb()
    );
}

/// Stream-analyze `millions`M requests fed as columnar
/// [`RequestBatch`]es through [`cbs_core::StreamingSession::observe_request_batch`]
/// — the entry point CBT re-ingest uses, without the decode cost.
fn phase_stream_batched(millions: u64) {
    const FEED_BATCH: usize = 8192;
    let n = (millions * 1_000_000) as usize;
    let registry = Registry::new();
    let workbench = StreamingWorkbench::new().with_registry(&registry);
    let shards = workbench.shards();
    let start = Instant::now();
    let mut session = workbench.start();
    let mut feed = RequestBatch::with_capacity(FEED_BATCH);
    let (mut generate_nanos, mut observe_nanos) = (0u64, 0u64);
    let mut clock = Stopwatch::start();
    for req in big_corpus().stream().take(n) {
        feed.push(&req);
        if feed.len() == FEED_BATCH {
            generate_nanos += clock.elapsed_nanos();
            let routing = Stopwatch::start();
            session.observe_request_batch(&feed);
            observe_nanos += routing.elapsed_nanos();
            feed.clear();
            clock = Stopwatch::start();
        }
    }
    generate_nanos += clock.elapsed_nanos();
    let routing = Stopwatch::start();
    session.observe_request_batch(&feed);
    observe_nanos += routing.elapsed_nanos();
    let observed = session.observed();
    let volumes = session.finish().len();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(observed, n as u64, "corpus smaller than requested target");
    println!(
        "{{\"phase\":\"stream_batched\",\"requests\":{observed},\"volumes\":{volumes},\
         \"n_threads\":{shards},\"seconds\":{secs:.3},\"requests_per_sec\":{:.0},\
         \"stages\":{{\"generate_nanos\":{generate_nanos},\"observe_nanos\":{observe_nanos}}},\
         \"metrics\":{},\"peak_rss_kb\":{}}}",
        observed as f64 / secs,
        registry.to_json(),
        peak_rss_kb()
    );
}

/// Convert `millions`M requests to a CBT file (untimed), then time the
/// full re-ingest: CBT decode → columnar batches → streaming analysis.
fn phase_stream_cbt(millions: u64) {
    let n = (millions * 1_000_000) as usize;
    let path = std::env::temp_dir().join(format!("ingest_perf_{}.cbt", std::process::id()));
    {
        let file = std::fs::File::create(&path).expect("create temp cbt");
        let mut writer = CbtWriter::new(std::io::BufWriter::new(file));
        for req in big_corpus().stream().take(n) {
            writer.write_request(&req).expect("encode cbt");
        }
        writer
            .finish()
            .expect("finish cbt")
            .flush()
            .expect("flush cbt");
    }
    let cbt_bytes = std::fs::metadata(&path).expect("stat temp cbt").len();

    let registry = Registry::new();
    let workbench = StreamingWorkbench::new().with_registry(&registry);
    let shards = workbench.shards();
    let start = Instant::now();
    let mut session = workbench.start();
    let file = std::fs::File::open(&path).expect("open temp cbt");
    let mut reader = CbtReader::new(std::io::BufReader::new(file)).with_registry(&registry);
    // One CBT block per stage-timing chunk: decode vs route.
    let (mut decode_nanos, mut route_nanos) = (0u64, 0u64);
    loop {
        let clock = Stopwatch::start();
        let batch = reader.read_batch().expect("decode cbt");
        decode_nanos += clock.elapsed_nanos();
        let Some(batch) = batch else { break };
        let clock = Stopwatch::start();
        session.observe_request_batch(&batch);
        route_nanos += clock.elapsed_nanos();
    }
    let observed = session.observed();
    let volumes = session.finish().len();
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    assert_eq!(observed, n as u64, "cbt file shorter than written");
    println!(
        "{{\"phase\":\"stream_cbt\",\"requests\":{observed},\"volumes\":{volumes},\
         \"n_threads\":{shards},\"cbt_bytes\":{cbt_bytes},\"seconds\":{secs:.3},\
         \"requests_per_sec\":{:.0},\
         \"stages\":{{\"decode_nanos\":{decode_nanos},\"route_nanos\":{route_nanos}}},\
         \"metrics\":{},\"peak_rss_kb\":{}}}",
        observed as f64 / secs,
        registry.to_json(),
        peak_rss_kb()
    );
}

/// Convert `millions`M requests to a CBT file (untimed), then time the
/// zero-copy re-ingest: mmap the file, decode each block in place with
/// [`CbtSliceReader`], and lend the borrowed columns straight to the
/// router via `observe_request_batch_ref` — no read syscalls in the
/// loop and no per-batch row materialization.
fn phase_stream_cbt_mmap(millions: u64) {
    let n = (millions * 1_000_000) as usize;
    let path = std::env::temp_dir().join(format!("ingest_perf_mmap_{}.cbt", std::process::id()));
    {
        let file = std::fs::File::create(&path).expect("create temp cbt");
        let mut writer = CbtWriter::new(std::io::BufWriter::new(file));
        for req in big_corpus().stream().take(n) {
            writer.write_request(&req).expect("encode cbt");
        }
        writer
            .finish()
            .expect("finish cbt")
            .flush()
            .expect("flush cbt");
    }
    let cbt_bytes = std::fs::metadata(&path).expect("stat temp cbt").len();

    let registry = Registry::new();
    let workbench = StreamingWorkbench::new().with_registry(&registry);
    let shards = workbench.shards();
    let start = Instant::now();
    let mut session = workbench.start();
    let map = Mmap::open(&path).expect("map temp cbt");
    let mut reader = CbtSliceReader::new(&map).with_registry(&registry);
    let (mut decode_nanos, mut route_nanos) = (0u64, 0u64);
    loop {
        let clock = Stopwatch::start();
        let batch = reader.read_batch_ref().expect("decode cbt");
        decode_nanos += clock.elapsed_nanos();
        let Some(batch) = batch else { break };
        let clock = Stopwatch::start();
        session.observe_request_batch_ref(batch);
        route_nanos += clock.elapsed_nanos();
    }
    let observed = session.observed();
    let volumes = session.finish().len();
    let secs = start.elapsed().as_secs_f64();
    drop(map);
    let _ = std::fs::remove_file(&path);
    assert_eq!(observed, n as u64, "cbt file shorter than written");
    println!(
        "{{\"phase\":\"stream_cbt_mmap\",\"requests\":{observed},\"volumes\":{volumes},\
         \"n_threads\":{shards},\"cbt_bytes\":{cbt_bytes},\"seconds\":{secs:.3},\
         \"requests_per_sec\":{:.0},\
         \"stages\":{{\"decode_nanos\":{decode_nanos},\"route_nanos\":{route_nanos}}},\
         \"metrics\":{},\"peak_rss_kb\":{}}}",
        observed as f64 / secs,
        registry.to_json(),
        peak_rss_kb()
    );
}

/// Stream-analyze `millions`M requests through exactly `shards` worker
/// shards, fed as columnar batches, and report the per-shard load split
/// the skew-aware router produced. One subprocess per shard count gives
/// the scaling curve in `EXPERIMENTS.md`.
fn phase_stream_shards(millions: u64, shards: usize) {
    const FEED_BATCH: usize = 8192;
    let n = (millions * 1_000_000) as usize;
    let registry = Registry::new();
    let workbench = StreamingWorkbench::new()
        .with_shards(shards)
        .with_registry(&registry);
    let shards = workbench.shards();
    let start = Instant::now();
    let mut session = workbench.start();
    let mut feed = RequestBatch::with_capacity(FEED_BATCH);
    for req in big_corpus().stream().take(n) {
        feed.push(&req);
        if feed.len() == FEED_BATCH {
            session.observe_request_batch(&feed);
            feed.clear();
        }
    }
    session.observe_request_batch(&feed);
    let observed = session.observed();
    let volumes = session.finish().len();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(observed, n as u64, "corpus smaller than requested target");
    let loads: Vec<u64> = (0..shards)
        .map(|s| registry.counter(&format!("stream.shard{s}.requests")).get())
        .collect();
    assert_eq!(loads.iter().sum::<u64>(), observed, "shard loads diverge");
    // Imbalance: hottest shard relative to a perfectly even split
    // (1.0 = perfect; `shards` = everything on one worker).
    let imbalance =
        loads.iter().copied().max().unwrap_or(0) as f64 / (observed as f64 / shards as f64);
    let loads_json = loads
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"phase\":\"stream_shards\",\"requests\":{observed},\"volumes\":{volumes},\
         \"shards\":{shards},\"seconds\":{secs:.3},\"requests_per_sec\":{:.0},\
         \"shard_requests\":[{loads_json}],\"imbalance\":{imbalance:.3},\
         \"backpressure_nanos\":{},\"wall_nanos\":{},\"peak_rss_kb\":{}}}",
        observed as f64 / secs,
        registry.counter("stream.backpressure_nanos").get(),
        (secs * 1e9) as u64,
        peak_rss_kb()
    );
}

/// Materialize `millions`M requests into a `Trace`, then sweep the
/// by-volume driver across a worker-count curve: one-thread baseline
/// first, then [`Workbench::analyze_with_threads`] at each worker
/// count, asserting every run's per-volume records are bit-identical
/// to the baseline before timing is reported. Also reports the
/// workers=1 run against the baseline (the same call, so the delta is
/// run-to-run noise).
fn phase_analyze_partitioned(millions: u64, workers_list: &[usize]) {
    let n = (millions * 1_000_000) as usize;
    let requests: Vec<_> = big_corpus().stream().take(n).collect();
    let trace = Trace::from_requests(requests);
    let volumes = trace.volume_count();

    // Sequential baseline: one worker thread. Clone the
    // corpus *outside* the timed region — analyze() consumes its input
    // and a multi-hundred-MiB memcpy would otherwise dominate warm-up.
    let input = trace.clone();
    let start = Instant::now();
    let baseline = Workbench::new(input).analyze_with_threads(1);
    let seq_secs = start.elapsed().as_secs_f64();

    let mut curve = Vec::new();
    let secs_for = |workers: usize| -> f64 {
        let input = trace.clone();
        let start = Instant::now();
        let run = Workbench::new(input).analyze_with_threads(workers);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            run.metrics(),
            baseline.metrics(),
            "partitioned run diverged at {workers} workers"
        );
        secs
    };
    for &workers in workers_list {
        let secs = secs_for(workers);
        curve.push(format!(
            "{{\"workers\":{workers},\"seconds\":{secs:.3},\"requests_per_sec\":{:.0}}}",
            n as f64 / secs
        ));
    }
    let find = |w: usize| workers_list.iter().position(|&x| x == w).map(|i| &curve[i]);
    let secs_of = |entry: &String| -> f64 {
        // Parse back the seconds we formatted two lines up; cheaper
        // than carrying a parallel vec through the JSON assembly.
        entry
            .split("\"seconds\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("curve entry carries seconds")
    };
    let speedup = match (find(1), find(4)) {
        (Some(w1), Some(w4)) => format!(",\"speedup_4_vs_1\":{:.2}", secs_of(w1) / secs_of(w4)),
        _ => String::new(),
    };
    let overhead = find(1)
        .map(|w1| {
            format!(
                ",\"merge_overhead_frac\":{:.3}",
                (secs_of(w1) - seq_secs) / seq_secs
            )
        })
        .unwrap_or_default();
    println!(
        "{{\"phase\":\"analyze_partitioned\",\"requests\":{n},\"volumes\":{volumes},\
         \"sequential_seconds\":{seq_secs:.3},\"workers_curve\":[{}]{speedup}{overhead},\
         \"verdicts_identical\":true,\"peak_rss_kb\":{}}}",
        curve.join(","),
        peak_rss_kb()
    );
}

/// Materialize the same `millions`M requests into a `Trace`, then
/// batch-analyze — the memory baseline the streaming path avoids.
fn phase_batch(millions: u64) {
    let n = (millions * 1_000_000) as usize;
    let start = Instant::now();
    let requests: Vec<_> = big_corpus().stream().take(n).collect();
    let trace = Trace::from_requests(requests);
    let analysis = Workbench::new(trace).analyze();
    let volumes = analysis.metrics().len();
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{{\"phase\":\"batch\",\"requests\":{n},\"volumes\":{volumes},\"n_threads\":1,\
         \"seconds\":{secs:.3},\"requests_per_sec\":{:.0},\"peak_rss_kb\":{}}}",
        n as f64 / secs,
        peak_rss_kb()
    );
}

/// Decode throughput over the same in-memory corpus, CSV vs CBT:
/// sequential CSV reader, `ParallelDecoder` at 1 and (unless
/// `threads == 1`) at `threads` workers, and the CBT block reader.
fn phase_decode(millions: u64, threads: usize) {
    let n = (millions * 1_000_000) as usize;
    let mut csv = Vec::new();
    let mut cbt_writer = CbtWriter::new(Vec::new());
    {
        let mut w = AliCloudWriter::new(&mut csv);
        for req in big_corpus().stream().take(n) {
            w.write_request(&req).unwrap();
            cbt_writer.write_request(&req).unwrap();
        }
    }
    let cbt = cbt_writer.finish().unwrap();
    let bytes = csv.len() as u64;
    let cbt_bytes = cbt.len() as u64;

    let time = |f: &dyn Fn() -> u64| {
        // Best of 3: decode throughput, not allocator warm-up.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            assert_eq!(f(), n as u64);
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };

    let seq = time(&|| {
        AliCloudReader::new(&csv[..]).fold(0u64, |acc, r| {
            r.unwrap();
            acc + 1
        })
    });
    let par = |workers: usize| {
        let decoder = ParallelDecoder::new().with_threads(workers);
        let csv = &csv;
        time(&move || {
            let mut total = 0u64;
            decoder
                .decode_alicloud(&csv[..], |batch| total += batch.len() as u64)
                .unwrap();
            total
        })
    };
    let par1 = par(1);
    // `parallel_1_thread` already covers N == 1; re-running it would
    // only duplicate the measurement under another name.
    let parn = (threads > 1).then(|| par(threads));
    let cbt_secs = time(&|| {
        let mut reader = CbtReader::new(&cbt[..]);
        let mut total = 0u64;
        while let Some(batch) = reader.read_batch().unwrap() {
            total += batch.len() as u64;
        }
        total
    });
    // Zero-copy decode: borrowed batches over the in-memory buffer,
    // then the same thing over an mmapped file (the page-cache path).
    let cbt_slice_secs = time(&|| {
        let mut reader = CbtSliceReader::new(&cbt[..]);
        let mut total = 0u64;
        while let Some(batch) = reader.read_batch_ref().unwrap() {
            total += batch.len() as u64;
        }
        total
    });
    let path = std::env::temp_dir().join(format!("ingest_perf_decode_{}.cbt", std::process::id()));
    std::fs::write(&path, &cbt).expect("write temp cbt");
    let map = Mmap::open(&path).expect("map temp cbt");
    let cbt_mmap_secs = time(&|| {
        let mut reader = CbtSliceReader::new(&map);
        let mut total = 0u64;
        while let Some(batch) = reader.read_batch_ref().unwrap() {
            total += batch.len() as u64;
        }
        total
    });
    drop(map);
    let _ = std::fs::remove_file(&path);

    let mb = bytes as f64 / (1u64 << 20) as f64;
    let cbt_mb = cbt_bytes as f64 / (1u64 << 20) as f64;
    let parn_json = match parn {
        Some(t) => format!(
            ",\"parallel_n_threads\":{{\"seconds\":{t:.3},\"mb_per_sec\":{:.1},\
             \"records_per_sec\":{:.0}}},\"speedup_vs_sequential\":{:.2}",
            mb / t,
            n as f64 / t,
            seq / t
        ),
        None => String::new(),
    };
    println!(
        "{{\"phase\":\"decode\",\"records\":{n},\"bytes\":{bytes},\"cbt_bytes\":{cbt_bytes},\
         \"n_threads\":{threads},\
         \"sequential\":{{\"seconds\":{seq:.3},\"mb_per_sec\":{:.1},\"records_per_sec\":{:.0}}},\
         \"parallel_1_thread\":{{\"seconds\":{par1:.3},\"mb_per_sec\":{:.1},\"records_per_sec\":{:.0}}}\
         {parn_json},\
         \"cbt\":{{\"seconds\":{cbt_secs:.3},\"mb_per_sec\":{:.1},\"csv_equiv_mb_per_sec\":{:.1},\
         \"records_per_sec\":{:.0},\"speedup_vs_csv_sequential\":{:.2}}},\
         \"cbt_slice\":{{\"seconds\":{cbt_slice_secs:.3},\"mb_per_sec\":{:.1},\
         \"records_per_sec\":{:.0},\"speedup_vs_cbt_buffered\":{:.2}}},\
         \"cbt_mmap\":{{\"seconds\":{cbt_mmap_secs:.3},\"mb_per_sec\":{:.1},\
         \"records_per_sec\":{:.0},\"speedup_vs_cbt_buffered\":{:.2}}},\
         \"peak_rss_kb\":{}}}",
        mb / seq,
        n as f64 / seq,
        mb / par1,
        n as f64 / par1,
        cbt_mb / cbt_secs,
        mb / cbt_secs,
        n as f64 / cbt_secs,
        seq / cbt_secs,
        cbt_mb / cbt_slice_secs,
        n as f64 / cbt_slice_secs,
        cbt_secs / cbt_slice_secs,
        cbt_mb / cbt_mmap_secs,
        n as f64 / cbt_mmap_secs,
        cbt_secs / cbt_mmap_secs,
        peak_rss_kb()
    );
}

/// Fast CI gate over a small fixed corpus: asserts CSV → CBT → decode
/// round-trips bit-identically, asserts batch / streaming / batched /
/// CBT-fed analyses agree exactly, asserts the `cbs-obs` registry
/// reconciles with the pipeline's own accounting, asserts a corrupt CBT
/// stream poisons instead of truncating, and prints the ingest rate.
fn phase_smoke() {
    const N: usize = 200_000;
    let config = CorpusConfig::new(24, 2, 777).with_intensity_scale(0.05);
    let requests: Vec<_> = presets::alicloud_like(&config).stream().take(N).collect();
    assert_eq!(requests.len(), N, "smoke corpus too small");

    // CSV → CBT → decode round-trip, bit-identical, with the decoder
    // publishing into a registry that must agree with what it returned.
    let registry = Registry::new();
    let mut csv = Vec::new();
    {
        let mut w = AliCloudWriter::new(&mut csv);
        for req in &requests {
            w.write_request(req).unwrap();
        }
    }
    let decoded_csv = ParallelDecoder::new()
        .with_registry(&registry)
        .decode_alicloud_slice(&csv)
        .unwrap();
    assert_eq!(decoded_csv, requests, "CSV decode mismatch");
    assert_eq!(
        registry.counter("decode.records").get(),
        N as u64,
        "decode.records diverges from decoded request count"
    );
    assert_eq!(
        registry.gauge("decode.malformed_line").get(),
        0,
        "clean corpus flagged a malformed line"
    );
    let mut writer = CbtWriter::new(Vec::new());
    writer
        .write_batch(&RequestBatch::from(requests.as_slice()))
        .unwrap();
    let cbt = writer.finish().unwrap();
    let mut decoded_cbt = Vec::new();
    let mut reader = CbtReader::new(&cbt[..]);
    while let Some(batch) = reader.read_batch().unwrap() {
        decoded_cbt.extend(batch.iter());
    }
    assert_eq!(decoded_cbt, requests, "CBT round-trip mismatch");

    // Batch workbench vs streaming (scalar and columnar feeds).
    let batch = Workbench::new(Trace::from_requests(requests.clone())).analyze();
    let start = Instant::now();
    let streaming = StreamingWorkbench::new().analyze(requests.iter().copied());
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(streaming, batch.metrics(), "streaming metrics diverge");
    // By-volume driver: inline and any worker count must reproduce the
    // batch metrics bit-for-bit.
    for workers in [0usize, 2, 8] {
        let partitioned =
            Workbench::new(Trace::from_requests(requests.clone())).analyze_with_threads(workers);
        assert_eq!(
            partitioned.metrics(),
            batch.metrics(),
            "partitioned metrics diverge at {workers} workers"
        );
    }
    let workbench = StreamingWorkbench::new().with_registry(&registry);
    let shards = workbench.shards();
    let mut session = workbench.start();
    let mut reader = CbtReader::new(&cbt[..]).with_registry(&registry);
    while let Some(batch) = reader.read_batch().unwrap() {
        session.observe_request_batch(&batch);
    }
    assert_eq!(session.observed(), N as u64);
    let from_cbt = session.finish();
    assert_eq!(from_cbt, batch.metrics(), "CBT-fed metrics diverge");

    // Zero-copy path: mmap the same stream from a real file and lend
    // borrowed batches straight to a fresh session. Also times the
    // wall clock so the backpressure budget below has a denominator.
    let path = std::env::temp_dir().join(format!("ingest_perf_smoke_{}.cbt", std::process::id()));
    std::fs::write(&path, &cbt).expect("write temp cbt");
    let map = Mmap::open(&path).expect("map temp cbt");
    let bp_registry = Registry::new();
    let mut session = StreamingWorkbench::new()
        .with_registry(&bp_registry)
        .start();
    let clock = Stopwatch::start();
    let mut reader = CbtSliceReader::new(&map);
    while let Some(b) = reader.read_batch_ref().unwrap() {
        session.observe_request_batch_ref(b);
    }
    assert_eq!(session.observed(), N as u64);
    let from_mmap = session.finish();
    let mmap_wall_nanos = clock.elapsed_nanos();
    assert_eq!(from_mmap, batch.metrics(), "mmap-fed metrics diverge");
    drop(map);
    let _ = std::fs::remove_file(&path);

    // Registry reconciliation: every independently counted stage agrees
    // with ground truth, and the export is deterministic.
    assert_eq!(registry.counter("cbt.records").get(), N as u64);
    assert_eq!(registry.counter("stream.observed").get(), N as u64);
    let shard_total: u64 = (0..shards)
        .map(|s| registry.counter(&format!("stream.shard{s}.requests")).get())
        .sum();
    assert_eq!(shard_total, N as u64, "shard counters diverge from feed");
    assert_eq!(
        registry.to_json(),
        registry.to_json(),
        "metrics export is non-deterministic"
    );

    // Poison gate: a corrupt CBT stream must keep returning errors —
    // never a clean-looking early EOF.
    let mut damaged = cbt.clone();
    let last = damaged.len() - 1;
    damaged[last] ^= 0xff;
    let mut reader = CbtReader::new(&damaged[..]);
    let mut clean_records = 0u64;
    let err = loop {
        match reader.read_batch() {
            Ok(Some(batch)) => clean_records += batch.len() as u64,
            Ok(None) => panic!("corrupt CBT stream ended as a clean EOF"),
            Err(e) => break e,
        }
    };
    assert!(clean_records < N as u64, "corruption was never detected");
    drop(err);
    for _ in 0..3 {
        assert!(
            reader.read_batch().is_err(),
            "poisoned CBT reader produced a non-error read"
        );
    }
    // The zero-copy reader must reject the same corruption and stay
    // poisoned too — borrowed batches are not allowed to be sloppier.
    let mut sliced = CbtSliceReader::new(&damaged[..]);
    let mut slice_clean = 0u64;
    loop {
        match sliced.read_batch_ref() {
            Ok(Some(b)) => slice_clean += b.len() as u64,
            Ok(None) => panic!("corrupt CBT stream ended as a clean EOF (slice reader)"),
            Err(_) => break,
        }
    }
    assert!(slice_clean < N as u64, "slice reader missed the corruption");
    for _ in 0..3 {
        assert!(
            sliced.read_batch_ref().is_err(),
            "poisoned slice reader produced a non-error read"
        );
    }

    // CI budgets, env-overridable so slow machines can loosen them:
    // a streaming throughput floor and a cap on the fraction of the
    // mmap-fed wall clock spent blocked on full shard channels.
    let env_f64 = |name: &str, default: f64| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let rps = N as f64 / secs;
    let min_rps = env_f64("INGEST_SMOKE_MIN_RPS", 100_000.0);
    assert!(
        rps >= min_rps,
        "streaming ingest too slow: {rps:.0} req/s < floor {min_rps:.0} \
         (override with INGEST_SMOKE_MIN_RPS)"
    );
    let bp_nanos = bp_registry.counter("stream.backpressure_nanos").get();
    let bp_ratio = bp_nanos as f64 / mmap_wall_nanos as f64;
    let max_bp = env_f64("INGEST_SMOKE_MAX_BACKPRESSURE", 0.9);
    assert!(
        bp_ratio <= max_bp,
        "backpressure ate {:.0}% of the mmap-fed wall clock (budget {:.0}%; \
         override with INGEST_SMOKE_MAX_BACKPRESSURE)",
        bp_ratio * 100.0,
        max_bp * 100.0
    );

    println!(
        "smoke ok: {N} requests, cbt {} bytes ({:.2}x vs csv), \
         round-trip + equivalence (buffered, CBT-fed, mmap-fed) + metrics \
         reconciliation + poison gates verified, {rps:.0} req/s streaming \
         (floor {min_rps:.0}), backpressure {:.1}% of wall (budget {:.0}%)",
        cbt.len(),
        csv.len() as f64 / cbt.len() as f64,
        bp_ratio * 100.0,
        max_bp * 100.0
    );
}

/// Run each phase as a fresh subprocess (isolated `VmHWM`) and write
/// the collected JSON lines to `BENCH_ingest.json`.
fn orchestrate(
    stream_millions: &[u64],
    batch_millions: &[u64],
    decode_millions: u64,
    threads: usize,
    shard_list: &[usize],
    workers_list: &[usize],
) {
    let exe = std::env::current_exe().expect("current_exe");
    let run = |args: &[String]| -> String {
        eprintln!("→ ingest_perf {}", args.join(" "));
        let out = std::process::Command::new(&exe)
            .args(args)
            .arg("--threads")
            .arg(threads.to_string())
            .output()
            .expect("spawn phase subprocess");
        assert!(
            out.status.success(),
            "phase {:?} failed:\n{}",
            args,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("phase stdout utf-8");
        let line = stdout
            .lines()
            .last()
            .expect("phase printed no JSON")
            .to_owned();
        eprintln!("  {line}");
        line
    };

    let mut results = Vec::new();
    for &m in stream_millions {
        results.push(run(&["stream".into(), m.to_string()]));
    }
    results.push(run(&["stream-batched".into(), 10.to_string()]));
    results.push(run(&["stream-cbt".into(), 10.to_string()]));
    results.push(run(&["stream-cbt-mmap".into(), 10.to_string()]));
    for &s in shard_list {
        results.push(run(&[
            "stream-shards".into(),
            10.to_string(),
            "--shards".into(),
            s.to_string(),
        ]));
    }
    for &m in stream_millions {
        results.push(run(&["stream-bounded".into(), m.to_string()]));
    }
    for &m in batch_millions {
        results.push(run(&["batch".into(), m.to_string()]));
    }
    results.push(run(&[
        "analyze-partitioned".into(),
        10.to_string(),
        "--workers".into(),
        workers_list
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(","),
    ]));
    results.push(run(&["decode".into(), decode_millions.to_string()]));

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut f = std::fs::File::create("BENCH_ingest.json").expect("create BENCH_ingest.json");
    writeln!(
        f,
        "{{\n  \"bench\": \"ingest\",\n  \"cores\": {cores},\n  \"results\": [\n    {}\n  ]\n}}",
        results.join(",\n    ")
    )
    .expect("write BENCH_ingest.json");
    eprintln!("wrote BENCH_ingest.json");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = std::thread::available_parallelism().map_or(1, |c| c.get());
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let value = args.get(i + 1).and_then(|s| s.parse().ok());
        match value {
            Some(n) if n >= 1 => {
                threads = n;
                args.drain(i..=i + 1);
            }
            _ => {
                eprintln!("--threads expects a positive integer");
                std::process::exit(2);
            }
        }
    }
    let mut shard_list: Vec<usize> = vec![1, 2, 4, 8];
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        let parsed: Option<Vec<usize>> = args.get(i + 1).and_then(|list| {
            list.split(',')
                .map(|p| p.trim().parse::<usize>().ok().filter(|&n| n >= 1))
                .collect()
        });
        match parsed {
            Some(list) if !list.is_empty() => {
                shard_list = list;
                args.drain(i..=i + 1);
            }
            _ => {
                eprintln!("--shards expects a comma-separated list of positive integers");
                std::process::exit(2);
            }
        }
    }
    let mut workers_list: Vec<usize> = vec![1, 2, 4, 8];
    if let Some(i) = args.iter().position(|a| a == "--workers") {
        let parsed: Option<Vec<usize>> = args.get(i + 1).and_then(|list| {
            list.split(',')
                .map(|p| p.trim().parse::<usize>().ok().filter(|&n| n >= 1))
                .collect()
        });
        match parsed {
            Some(list) if !list.is_empty() => {
                workers_list = list;
                args.drain(i..=i + 1);
            }
            _ => {
                eprintln!("--workers expects a comma-separated list of positive integers");
                std::process::exit(2);
            }
        }
    }
    let millions = |i: usize, default: u64| -> u64 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    match args.first().map(String::as_str) {
        Some("stream") => phase_stream(millions(1, 10), false),
        Some("stream-batched") => phase_stream_batched(millions(1, 10)),
        Some("stream-cbt") => phase_stream_cbt(millions(1, 10)),
        Some("stream-cbt-mmap") => phase_stream_cbt_mmap(millions(1, 10)),
        Some("stream-shards") => phase_stream_shards(millions(1, 10), shard_list[0]),
        Some("stream-bounded") => phase_stream(millions(1, 10), true),
        Some("batch") => phase_batch(millions(1, 10)),
        Some("analyze-partitioned") => phase_analyze_partitioned(millions(1, 10), &workers_list),
        Some("decode") => phase_decode(millions(1, 2), threads),
        Some("smoke") => phase_smoke(),
        Some(other) => {
            eprintln!(
                "unknown phase {other:?}; expected stream|stream-batched|stream-cbt|\
                 stream-cbt-mmap|stream-shards|stream-bounded|batch|analyze-partitioned|\
                 decode|smoke"
            );
            std::process::exit(2);
        }
        None => orchestrate(
            &[2, 10, 20],
            &[10, 20],
            2,
            threads,
            &shard_list,
            &workers_list,
        ),
    }
}
