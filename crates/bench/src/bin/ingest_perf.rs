//! Ingest recorder behind `BENCH_ingest.json`.
//!
//! Records what the gating benchmark (`benchmark/`, which times 1 M
//! requests per pass on every change) cannot: streaming analysis at
//! 2 / 10 / 20 M requests with peak RSS, the same with a bounded
//! working set (RSS tracks unique blocks, not request count), the
//! materializing batch path as the memory baseline, and two scaling
//! curves.
//!
//! Peak RSS (`VmHWM`) is a process-lifetime high-water mark, so the
//! orchestrator re-executes itself with a phase argument and each phase
//! runs in a fresh subprocess:
//!
//! ```sh
//! cargo run --release -p cbs-bench --bin ingest_perf           # all phases
//! cargo run --release -p cbs-bench --bin ingest_perf stream 10 # one phase
//! ```
//!
//! `--shards 1,2,4,8` sets the shard-thread counts the orchestrator
//! sweeps through `stream-shards` phases (one subprocess per count),
//! with the per-share load split and imbalance the skew-aware router
//! achieved. `N` shard threads make `N + 1` shares: the caller analyzes
//! the last one itself, so a phase keeps `N + 1` threads busy.
//! The `stream-cbt-mmap` phase measures the zero-copy re-ingest path at
//! scale: `Mmap` + `CbtSliceReader` lending borrowed batches straight
//! to `observe_request_batch_ref`.
//!
//! `--workers 1,2,4,8` sets the worker counts the `analyze-partitioned`
//! phase sweeps the by-volume driver through (one subprocess, one curve
//! row per count, every run asserted bit-identical to the sequential
//! baseline before its timing is reported).
//!
//! Each phase prints a single-line JSON object; the orchestrator
//! assembles them into `BENCH_ingest.json`. Streaming phases attach a
//! `cbs-obs` registry and embed its export under `"metrics"` plus
//! coarse stage timings under `"stages"`.

#![allow(
    clippy::expect_used,
    clippy::disallowed_methods,
    clippy::let_underscore_must_use,
    reason = "a measurement binary: it times its phases, aborts on a broken setup and removes scratch files best-effort"
)]

use std::io::Write as _;
use std::time::Instant;

use cbs_bench::{big_corpus, peak_rss_kb, run_phase, write_bench_file};
use cbs_core::{StreamingWorkbench, Workbench};
use cbs_obs::{Registry, Stopwatch};
use cbs_trace::{CbtSliceReader, CbtWriter, Mmap, RequestBatch, Trace};

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
    let workbench = StreamingWorkbench::new().with_registry(&registry);
    let threads = workbench.shards() + 1;
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
         \"n_threads\":{threads},\"seconds\":{secs:.3},\"requests_per_sec\":{:.0},\
         \"stages\":{{\"generate_nanos\":{generate_nanos},\"observe_nanos\":{observe_nanos}}},\
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
    let threads = workbench.shards() + 1;
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
         \"n_threads\":{threads},\"cbt_bytes\":{cbt_bytes},\"seconds\":{secs:.3},\
         \"requests_per_sec\":{:.0},\
         \"stages\":{{\"decode_nanos\":{decode_nanos},\"route_nanos\":{route_nanos}}},\
         \"metrics\":{},\"peak_rss_kb\":{}}}",
        observed as f64 / secs,
        registry.to_json(),
        peak_rss_kb()
    );
}

/// Stream-analyze `millions`M requests through exactly `shards` shard
/// threads plus the caller's own share, fed as columnar batches, and
/// report the per-share load split the skew-aware router produced. One
/// subprocess per shard count gives the scaling curve in
/// `EXPERIMENTS.md`.
fn phase_stream_shards(millions: u64, shards: usize) {
    const FEED_BATCH: usize = 8192;
    let n = (millions * 1_000_000) as usize;
    let registry = Registry::new();
    let workbench = StreamingWorkbench::new()
        .with_shards(shards)
        .with_registry(&registry);
    let shards = workbench.shards();
    let shares = shards + 1;
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
    let loads: Vec<u64> = (0..shares)
        .map(|s| registry.counter(&format!("stream.shard{s}.requests")).get())
        .collect();
    assert_eq!(loads.iter().sum::<u64>(), observed, "shard loads diverge");
    // Imbalance: hottest share relative to a perfectly even split
    // (1.0 = perfect; `shares` = everything on one share).
    let imbalance =
        loads.iter().copied().max().unwrap_or(0) as f64 / (observed as f64 / shares as f64);
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
/// to the baseline before timing is reported.
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

    let curve: Vec<(usize, f64)> = workers_list
        .iter()
        .map(|&workers| {
            let input = trace.clone();
            let start = Instant::now();
            let run = Workbench::new(input).analyze_with_threads(workers);
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(
                run.metrics(),
                baseline.metrics(),
                "partitioned run diverged at {workers} workers"
            );
            (workers, secs)
        })
        .collect();
    let secs_at = |w: usize| curve.iter().find(|&&(x, _)| x == w).map(|&(_, s)| s);
    let speedup = match (secs_at(1), secs_at(4)) {
        (Some(w1), Some(w4)) => format!(",\"speedup_4_vs_1\":{:.2}", w1 / w4),
        _ => String::new(),
    };
    let curve_json = curve
        .iter()
        .map(|&(workers, secs)| {
            format!(
                "{{\"workers\":{workers},\"seconds\":{secs:.3},\"requests_per_sec\":{:.0}}}",
                n as f64 / secs
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"phase\":\"analyze_partitioned\",\"requests\":{n},\"volumes\":{volumes},\
         \"sequential_seconds\":{seq_secs:.3},\"workers_curve\":[{curve_json}]{speedup},\
         \"verdicts_identical\":true,\"peak_rss_kb\":{}}}",
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

/// Run each phase as a fresh subprocess (isolated `VmHWM`) and write
/// the collected JSON lines to `BENCH_ingest.json`.
fn orchestrate(
    stream_millions: &[u64],
    batch_millions: &[u64],
    shard_list: &[usize],
    workers_list: &[usize],
) {
    let mut results = Vec::new();
    for &m in stream_millions {
        results.push(run_phase(&["stream", &m.to_string()]));
    }
    results.push(run_phase(&["stream-cbt-mmap", "10"]));
    for &s in shard_list {
        results.push(run_phase(&[
            "stream-shards",
            "10",
            "--shards",
            &s.to_string(),
        ]));
    }
    for &m in stream_millions {
        results.push(run_phase(&["stream-bounded", &m.to_string()]));
    }
    for &m in batch_millions {
        results.push(run_phase(&["batch", &m.to_string()]));
    }
    let workers = workers_list
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    results.push(run_phase(&[
        "analyze-partitioned",
        "10",
        "--workers",
        &workers,
    ]));
    write_bench_file("ingest", &results);
}

/// Removes `--<flag> a,b,c` from `args` and returns the positive
/// integers it lists, `default` when the flag is absent, or exits with
/// usage status 2 on a malformed list.
fn take_list_flag(args: &mut Vec<String>, flag: &str, default: &[usize]) -> Vec<usize> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return default.to_vec();
    };
    let parsed: Option<Vec<usize>> = args.get(i + 1).and_then(|list| {
        list.split(',')
            .map(|p| p.trim().parse::<usize>().ok().filter(|&n| n >= 1))
            .collect()
    });
    match parsed {
        Some(list) if !list.is_empty() => {
            args.drain(i..=i + 1);
            list
        }
        _ => {
            eprintln!("{flag} expects a comma-separated list of positive integers");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let shard_list = take_list_flag(&mut args, "--shards", &[1, 2, 4, 8]);
    let workers_list = take_list_flag(&mut args, "--workers", &[1, 2, 4, 8]);
    let millions = |i: usize, default: u64| -> u64 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    match args.first().map(String::as_str) {
        Some("stream") => phase_stream(millions(1, 10), false),
        Some("stream-cbt-mmap") => phase_stream_cbt_mmap(millions(1, 10)),
        Some("stream-shards") => phase_stream_shards(millions(1, 10), shard_list[0]),
        Some("stream-bounded") => phase_stream(millions(1, 10), true),
        Some("batch") => phase_batch(millions(1, 10)),
        Some("analyze-partitioned") => phase_analyze_partitioned(millions(1, 10), &workers_list),
        Some(other) => {
            eprintln!(
                "unknown phase {other:?}; expected stream|stream-cbt-mmap|stream-shards|\
                 stream-bounded|batch|analyze-partitioned"
            );
            std::process::exit(2);
        }
        None => orchestrate(&[2, 10, 20], &[10, 20], &shard_list, &workers_list),
    }
}
