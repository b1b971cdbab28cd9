//! Cache-sweep recorder behind `BENCH_cache.json`.
//!
//! Records what the gating benchmark (`benchmark/`, which sweeps small
//! corpora with one lane thread on every change) cannot: the 7 × 5
//! policy × capacity grid over 10 M requests with peak RSS, as the
//! naive per-(policy, capacity) `CacheSim` loop (one CBT decode +
//! block expansion + simulation per pair) against the single-pass sweep
//! engine, exact and SHARDS-sampled, at a chosen lane-thread count —
//! plus the measured SHARDS approximation error per sampling rate. The
//! naive grid is the 10 M bit-identity reference for the exact sweep.
//!
//! Like `ingest_perf`, the orchestrator re-executes itself so each
//! phase runs in a fresh subprocess (isolated `VmHWM` peak RSS):
//!
//! ```sh
//! cargo run --release -p cbs-bench --bin cache_perf             # all phases
//! cargo run --release -p cbs-bench --bin cache_perf naive 10    # one phase
//! ```
//!
//! Each phase prints a single-line JSON object; the orchestrator
//! assembles them into `BENCH_cache.json`, asserts the naive and
//! exact-sweep `"grid"` stats are byte-identical, and records the
//! wall-clock speedups. `--threads N` runs the sweep on `N` threads:
//! `N - 1` lane workers beside the caller, which decodes, expands and
//! runs the last share of the lanes itself; the default matches the
//! machine.

#![allow(
    clippy::expect_used,
    clippy::disallowed_methods,
    clippy::let_underscore_must_use,
    reason = "a measurement binary: it times its phases, aborts on a broken setup and removes scratch files best-effort"
)]

use std::io::Write as _;
use std::time::Instant;

use cbs_bench::{big_corpus, peak_rss_kb, run_phase, write_bench_file};
use cbs_cache::{policy_by_name, CacheSim, CacheStats, SweepGrid, POLICY_NAMES};
use cbs_obs::Registry;
use cbs_trace::{BlockAccessColumn, BlockSize, CbtReader, CbtWriter, IoRequest};

/// The benchmark grid: every policy at five capacities (16 MiB to
/// 4 GiB of 4 KiB blocks) — a Fig. 18-style ablation surface.
const CAPACITIES: [usize; 5] = [4_096, 16_384, 65_536, 262_144, 1_048_576];

/// Writes `millions`M corpus requests to a temp CBT file (untimed
/// setup shared by the naive and sweep phases) and returns its path.
fn write_corpus_cbt(millions: u64) -> std::path::PathBuf {
    let n = (millions * 1_000_000) as usize;
    let path = std::env::temp_dir().join(format!("cache_perf_{}.cbt", std::process::id()));
    let file = std::fs::File::create(&path).expect("create temp cbt");
    let mut writer = CbtWriter::new(std::io::BufWriter::new(file));
    let mut written = 0usize;
    for req in big_corpus().stream().take(n) {
        writer.write_request(&req).expect("encode cbt");
        written += 1;
    }
    writer
        .finish()
        .expect("finish cbt")
        .flush()
        .expect("flush cbt");
    assert_eq!(written, n, "corpus smaller than requested target");
    path
}

/// The identity + stats of every grid pair as a deterministic JSON
/// array. The orchestrator byte-compares this between the naive and
/// exact-sweep phases: equal strings mean bit-identical integer hit
/// counts (the miss ratios derive from them).
fn grid_json(entries: &[(String, usize, CacheStats)]) -> String {
    let rows: Vec<String> = entries
        .iter()
        .map(|(policy, capacity, stats)| {
            format!(
                "{{\"policy\":\"{policy}\",\"capacity\":{capacity},\
                 \"read_accesses\":{},\"read_hits\":{},\
                 \"write_accesses\":{},\"write_hits\":{}}}",
                stats.read_accesses(),
                stats.read_hits(),
                stats.write_accesses(),
                stats.write_hits()
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// The naive baseline: one full CBT decode + block expansion +
/// `CacheSim` run per (policy, capacity) pair — what ablation scripts
/// did before the sweep engine.
fn phase_naive(millions: u64) {
    let path = write_corpus_cbt(millions);
    let n = millions * 1_000_000;
    let block_size = BlockSize::DEFAULT;

    let start = Instant::now();
    let mut entries = Vec::new();
    let mut pair_seconds = Vec::new();
    for &name in POLICY_NAMES {
        for &capacity in &CAPACITIES {
            let pair_start = Instant::now();
            let policy = policy_by_name(name, capacity).expect("known policy");
            let mut sim = CacheSim::new(policy, block_size);
            let mut scratch = BlockAccessColumn::new();
            let file = std::fs::File::open(&path).expect("open temp cbt");
            let mut reader = CbtReader::new(std::io::BufReader::new(file));
            let mut decoded = 0u64;
            while let Some(batch) = reader.read_batch().expect("decode cbt") {
                decoded += batch.len() as u64;
                sim.run_batch(&batch, &mut scratch);
            }
            assert_eq!(decoded, n, "cbt file shorter than written");
            let secs = pair_start.elapsed().as_secs_f64();
            pair_seconds.push(format!(
                "{{\"policy\":\"{name}\",\"capacity\":{capacity},\"seconds\":{secs:.3}}}"
            ));
            entries.push((name.to_owned(), capacity, sim.stats()));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    println!(
        "{{\"phase\":\"naive\",\"requests\":{n},\"pairs\":{},\"n_threads\":1,\
         \"seconds\":{secs:.3},\"grid\":{},\"pair_seconds\":[{}],\"peak_rss_kb\":{}}}",
        entries.len(),
        grid_json(&entries),
        pair_seconds.join(","),
        peak_rss_kb()
    );
}

/// Builds the benchmark grid: exact when `sampled` is false (every
/// pair an exact lane), otherwise the headline configuration — LRU
/// capacities on the collapsed exact stack lane, every other policy as
/// a SHARDS-sampled lane, plus the sampled MRC.
fn bench_grid(workers: usize, sampled: bool, registry: &Registry) -> SweepGrid {
    let mut grid = SweepGrid::new()
        .with_workers(workers)
        .with_registry(registry);
    for &name in POLICY_NAMES {
        for &capacity in &CAPACITIES {
            grid = if sampled && name != "lru" {
                grid.sampled_policy(name, capacity).expect("known policy")
            } else {
                grid.policy(name, capacity).expect("known policy")
            };
        }
    }
    if sampled {
        grid = grid.with_sampled_mrc();
    }
    grid
}

/// Drives a sweep from the CBT file and prints its JSON line.
fn phase_sweep(millions: u64, workers: usize, sampled: bool) {
    let path = write_corpus_cbt(millions);
    let n = millions * 1_000_000;
    let registry = Registry::new();
    let grid = bench_grid(workers, sampled, &registry);

    let start = Instant::now();
    let mut sweep = grid.start();
    let file = std::fs::File::open(&path).expect("open temp cbt");
    let mut reader = CbtReader::new(std::io::BufReader::new(file));
    while let Some(batch) = reader.read_batch().expect("decode cbt") {
        sweep.observe_batch(&batch);
    }
    let report = sweep.finish();
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.requests(), n, "cbt file shorter than written");

    let phase = if sampled {
        "sweep_sampled"
    } else {
        "sweep_exact"
    };
    let entries: Vec<(String, usize, CacheStats)> = report
        .lanes()
        .iter()
        .filter(|l| !l.sampled)
        .map(|l| (l.policy.clone(), l.capacity, l.stats))
        .collect();
    let lane_nanos: Vec<String> = report
        .lanes()
        .iter()
        .map(|l| {
            format!(
                "{{\"policy\":\"{}\",\"capacity\":{},\"sampled\":{},\"nanos\":{},\
                 \"accesses\":{}}}",
                l.policy, l.capacity, l.sampled, l.nanos, l.accesses
            )
        })
        .collect();
    println!(
        "{{\"phase\":\"{phase}\",\"requests\":{n},\"pairs\":{},\"n_threads\":{},\
         \"seconds\":{secs:.3},\"accesses\":{},\"sampled_accesses\":{},\
         \"sampled_fraction\":{:.6},\"expand_nanos\":{},\"sample_rate\":{},\
         \"grid\":{},\"lanes\":[{}],\"metrics\":{},\"peak_rss_kb\":{}}}",
        report.lanes().len(),
        workers + 1,
        report.accesses(),
        report.sampled_accesses(),
        report.sampled_fraction(),
        report.expand_nanos(),
        report.sample_rate(),
        grid_json(&entries),
        lane_nanos.join(","),
        registry.to_json(),
        peak_rss_kb()
    );
}

/// Measures the SHARDS miss-ratio-curve approximation error per
/// sampling rate against the exact stack-lane curve, over an
/// AliCloud-like corpus. The sweep engine runs both curves; the error
/// is the max absolute miss-ratio gap over the evaluation capacities.
fn phase_shards(millions: u64) {
    let n = (millions * 1_000_000) as usize;
    let requests: Vec<IoRequest> = big_corpus().stream().take(n).collect();
    assert_eq!(requests.len(), n, "corpus smaller than requested target");
    // Bend-and-tail region (512 – 1 Mi blocks): the sampler's rescaled
    // distances have a resolution of ~1/rate and the SHARDS-adj
    // correction lands at distance 0, so the head of the curve is a
    // quantisation artifact; ε is stated where the benchmark grid
    // (4 Ki – 1 Mi) actually operates. Mirrors tests/shards_error.rs.
    let eval: Vec<usize> = (9..=20).map(|i| 1usize << i).collect();

    let mut rows = Vec::new();
    for rate in [0.1, 0.01, 0.001] {
        let start = Instant::now();
        let report = SweepGrid::new()
            .with_workers(0)
            .with_sample_rate(rate)
            .expect("valid rate")
            .lru_capacity(1)
            .expect("non-zero")
            .with_sampled_mrc()
            .sweep(requests.iter().copied());
        let secs = start.elapsed().as_secs_f64();
        let exact = report.lru_mrc().expect("stack lane ran");
        let sampled = report.sampled_mrc().expect("sampled mrc requested");
        let max_err = eval
            .iter()
            .map(|&c| (exact.miss_ratio_at(c) - sampled.miss_ratio_at(c)).abs())
            .fold(0.0f64, f64::max);
        rows.push(format!(
            "{{\"rate\":{rate},\"sampled_fraction\":{:.6},\"max_abs_error\":{max_err:.6},\
             \"seconds\":{secs:.3}}}",
            report.sampled_fraction()
        ));
    }
    println!(
        "{{\"phase\":\"shards\",\"requests\":{n},\"n_threads\":1,\"rates\":[{}],\
         \"peak_rss_kb\":{}}}",
        rows.join(","),
        peak_rss_kb()
    );
}

/// Extracts the `"grid":[...]` slice of a phase's JSON line.
fn grid_slice(line: &str) -> &str {
    let start = line.find("\"grid\":[").expect("phase line has a grid");
    let rest = &line[start..];
    let end = rest.find(']').expect("grid array closes");
    &rest[..=end]
}

/// Extracts the `"seconds":X` value of a phase's JSON line.
fn seconds_of(line: &str) -> f64 {
    let start = line.find("\"seconds\":").expect("phase line has seconds") + "\"seconds\":".len();
    line[start..]
        .split(&[',', '}'][..])
        .next()
        .and_then(|s| s.parse().ok())
        .expect("seconds parses")
}

/// The `naive` grid recorded in the `BENCH_cache.json` about to be
/// overwritten, whitespace-free, if that run covered `requests`
/// requests of the same corpus.
fn recorded_naive_grid(requests: u64) -> Option<String> {
    let text: String = std::fs::read_to_string("BENCH_cache.json")
        .ok()?
        .split_whitespace()
        .collect();
    let naive = &text[text.find("\"phase\":\"naive\"")?..];
    let header = &naive[..naive.find("\"grid\":[")?];
    header
        .contains(&format!("\"requests\":{requests},"))
        .then(|| grid_slice(naive).to_owned())
}

/// Run each phase as a fresh subprocess, verify the naive and
/// exact-sweep grids agree bit-for-bit, and write `BENCH_cache.json`
/// with the speedup summary.
fn orchestrate(millions: u64, shards_millions: u64, threads: usize) {
    let threads = threads.to_string();
    let run = |phase: &str, millions: u64| {
        run_phase(&[phase, &millions.to_string(), "--threads", &threads])
    };
    let naive = run("naive", millions);
    let exact = run("sweep-exact", millions);
    let sampled = run("sweep-sampled", millions);
    let shards = run("shards", shards_millions);

    assert_eq!(
        grid_slice(&naive),
        grid_slice(&exact),
        "exact sweep grid diverges from the naive loop"
    );
    // Re-recording may move the timings, never the policies' answers:
    // the hit counts must equal the ones the file held before.
    match recorded_naive_grid(millions * 1_000_000) {
        Some(recorded) => assert_eq!(
            grid_slice(&naive),
            recorded,
            "naive grid diverges from the one recorded in BENCH_cache.json"
        ),
        None => eprintln!("  no recorded naive grid of this size to compare with"),
    }
    let naive_secs = seconds_of(&naive);
    let exact_speedup = naive_secs / seconds_of(&exact);
    let sampled_speedup = naive_secs / seconds_of(&sampled);
    let summary = format!(
        "{{\"phase\":\"summary\",\"grids_bit_identical\":true,\
         \"exact_sweep_speedup\":{exact_speedup:.2},\
         \"sampled_sweep_speedup\":{sampled_speedup:.2}}}"
    );
    eprintln!("  {summary}");

    write_bench_file("cache", &[naive, exact, sampled, shards, summary]);
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
    // The caller decodes, expands and runs one share of the lanes; the
    // other `threads - 1` threads run the rest. On a single-core host
    // the sweep runs inline.
    let workers = threads.saturating_sub(1);
    let millions = |i: usize, default: u64| -> u64 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    match args.first().map(String::as_str) {
        Some("naive") => phase_naive(millions(1, 10)),
        Some("sweep-exact") => phase_sweep(millions(1, 10), workers, false),
        Some("sweep-sampled") => phase_sweep(millions(1, 10), workers, true),
        Some("shards") => phase_shards(millions(1, 2)),
        Some(other) => {
            eprintln!("unknown phase {other:?}; expected naive|sweep-exact|sweep-sampled|shards");
            std::process::exit(2);
        }
        None => orchestrate(10, 2, threads),
    }
}
