//! Replay recorder behind `BENCH_replay.json`.
//!
//! Records what the gating benchmark (`benchmark/`, one saturated
//! null-backend lane on every change) cannot: achieved-vs-offered
//! throughput of the open-loop replay engine at a rate multiplier the
//! engine can keep up with, per-request issue-lag percentiles, the
//! lane-count curve, the mem, file and O_DIRECT backends, and
//! re-analysis equivalence at that scale (the replayed stream fed back
//! through `Workbench` must be metric-identical to analyzing the source
//! directly).
//!
//! Peak RSS (`VmHWM`) is a process-lifetime high-water mark, so the
//! orchestrator re-execs itself with phase arguments and each phase
//! runs in a fresh subprocess:
//!
//! ```sh
//! cargo run --release -p cbs-bench --bin replay_perf                       # all phases
//! cargo run --release -p cbs-bench --bin replay_perf --lanes 1,2,4,8       # custom lane curve
//! cargo run --release -p cbs-bench --bin replay_perf replay 1000 1000 null identity
//! cargo run --release -p cbs-bench --bin replay_perf lanes 1000 1000 null 4
//! ```
//!
//! `replay <thousands> <multiplier> <backend> <remap>` replays the
//! first `thousands`·1000 requests of the fixed one-hour synthetic
//! corpus at ×`multiplier` onto `null`/`mem`/`file`/`direct`, remapped
//! by `identity`/`fanout:N`/`merge:N`, and prints a single-line JSON
//! object; the orchestrator assembles the lines into
//! `BENCH_replay.json`. `lanes <thousands> <multiplier> <backend>
//! <count>` replays the same prefix through the multi-lane issue
//! engine ([`LaneSet`]) with `count` per-volume lanes and additionally
//! reports both ends of the lane channels — the feeder's time blocked
//! on full ones (`backpressure_nanos`) against the lanes' time idle
//! between issue runs (`idle_nanos`, summed over lanes): whichever is
//! large names the side that binds — and the per-lane lag breakdown.
//!
//! The orchestrated null-backend ×1000 row and every lane-curve row
//! must keep `achieved_offered_ratio` at or above `MIN_RATIO`; on
//! multi-core hosts the best lane count must also bring merged p99
//! issue lag under `MAX_BEST_P99_NANOS` (single-core hosts record the
//! curve but cannot beat the decode ceiling, see EXPERIMENTS.md). A
//! recording that misses either is not written.

#![allow(
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    reason = "a measurement binary: it aborts on a broken setup and removes scratch files best-effort"
)]

use cbs_bench::{peak_rss_kb, run_phase, write_bench_file};
use cbs_core::Workbench;
use cbs_replay::{
    DirectFileBackend, FileBackend, LaneSet, MemBackend, MultiLaneReport, NullBackend, Remap,
    ReplayReport, Replayer, StorageBackend, Timing,
};
use cbs_synth::presets::{self, CorpusConfig};
use cbs_trace::{IoRequest, Trace};

/// The fixed replay corpus: one hour of AliCloud-like traffic across
/// 128 volumes. Intensity is tuned so the stream comfortably exceeds
/// the largest `replay` target (so `.take(n)` yields exactly `n`)
/// while the ×1000-compressed offered rate (~0.7M rps) stays inside
/// what a single replay thread can physically issue (~3.6M rps) —
/// the bench measures scheduler fidelity, not an unpayable debt.
fn corpus() -> cbs_synth::CorpusGenerator {
    let config = CorpusConfig::new(128, 0, 90210)
        .with_extra_hours(1)
        .with_intensity_scale(0.03);
    presets::alicloud_like(&config)
}

/// The floor on `achieved_offered_ratio` for the ×1000 acceptance row
/// and every lane-curve row.
const MIN_RATIO: f64 = 0.95;

/// On ≥ 2 cores, the best lane count's merged p99 issue lag must stay
/// under this (1 ms).
const MAX_BEST_P99_NANOS: f64 = 1_000_000.0;

/// A process-unique scratch directory for the file-backed backends.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cbs_replay_perf_{}_{tag}", std::process::id()))
}

/// Pulls a numeric field out of a single-line JSON row emitted by a
/// phase subprocess (first occurrence wins; nested `p99`s come after
/// the merged one by construction).
fn row_f64(row: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\": ");
    row.split(&tag)
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("field {key:?} missing from row {row}"))
}

/// Materializes exactly `n` requests of the fixed corpus.
fn materialize(n: usize) -> Vec<IoRequest> {
    let requests: Vec<IoRequest> = corpus().stream().take(n).collect();
    assert_eq!(
        requests.len(),
        n,
        "corpus too small: raise intensity_scale in corpus()"
    );
    requests
}

/// Runs one replay over `requests` and returns (report, replayed copy).
fn run_replay<B: StorageBackend>(
    backend: B,
    multiplier: f64,
    remap: Remap,
    requests: &[IoRequest],
) -> (ReplayReport, Vec<IoRequest>) {
    let mut replayer = Replayer::new(backend)
        .with_timing(Timing::multiplier(multiplier).expect("multiplier in range"))
        .with_remap(remap);
    let mut replayed = Vec::with_capacity(requests.len());
    let report = replayer
        .run_observed(requests.iter().copied(), |req| replayed.push(req))
        .expect("replay failed");
    (report, replayed)
}

/// The measured phase: replay, then re-analyze the replayed stream and
/// compare against direct analysis of the source.
fn phase_replay(thousands: u64, multiplier: f64, backend: &str, remap_spec: &str) {
    let n = (thousands * 1000) as usize;
    let remap = Remap::parse(remap_spec).expect("remap spec");
    let requests = materialize(n);

    let (report, replayed) = match backend {
        "null" => run_replay(NullBackend::new(), multiplier, remap, &requests),
        "mem" => run_replay(MemBackend::new(), multiplier, remap, &requests),
        "file" => {
            let dir = scratch_dir("file");
            let out = run_replay(
                FileBackend::new(&dir).expect("file backend"),
                multiplier,
                remap,
                &requests,
            );
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
        "direct" => {
            let dir = scratch_dir("direct");
            let b = DirectFileBackend::new(&dir).expect("direct backend");
            if let Some(reason) = b.fallback_reason() {
                eprintln!("note: buffered fallback — {reason}");
            }
            let out = run_replay(b, multiplier, remap, &requests);
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
        other => panic!("unknown backend {other:?}; expected null|mem|file|direct"),
    };
    assert_eq!(report.requests, n as u64);

    // Re-analysis equivalence: identity remap must reproduce the
    // source metrics exactly; fan-out/merge relocate volumes, so for
    // them equivalence is checked on totals (the per-volume laws are
    // proptested in crates/replay/tests/remap_laws.rs).
    let direct = Workbench::new(Trace::from_requests(requests.clone())).analyze();
    let re = Workbench::new(Trace::from_requests(replayed)).analyze();
    let identical = match remap {
        Remap::Identity => direct.metrics() == re.metrics(),
        _ => {
            let sum = |a: &cbs_core::Analysis| {
                a.metrics()
                    .iter()
                    .fold((0u64, 0u64), |(r, w), m| (r + m.reads, w + m.writes))
            };
            sum(&direct) == sum(&re)
        }
    };
    assert!(identical, "replayed stream re-analyzed differently");

    let volumes = direct.metrics().len();
    println!(
        "{{\"phase\": \"replay\", \"backend\": \"{}\", \"remap\": \"{}\", \
         \"rate_multiplier\": {}, \"requests\": {}, \"bytes\": {}, \
         \"volumes\": {}, \"wall_nanos\": {}, \"offered_nanos\": {}, \
         \"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \
         \"achieved_offered_ratio\": {:.4}, \
         \"issue_lag\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}, \
         \"seconds\": {:.3}, \"reanalysis_identical\": {}, \"peak_rss_kb\": {}}}",
        backend,
        remap.label(),
        multiplier,
        report.requests,
        report.bytes,
        volumes,
        report.wall_nanos,
        report.offered_nanos,
        report.offered_rps(),
        report.achieved_rps(),
        report.achieved_offered_ratio(),
        report.issue_lag.p50,
        report.issue_lag.p90,
        report.issue_lag.p99,
        report.issue_lag.max,
        report.wall_nanos as f64 / 1e9,
        identical,
        peak_rss_kb(),
    );
}

/// Runs one multi-lane identity replay over `requests` and returns
/// (merged report + per-lane breakdown, replayed copy).
fn run_lane_replay<B: StorageBackend + Send + 'static>(
    lanes: usize,
    make_backend: impl FnMut(usize) -> B,
    multiplier: f64,
    requests: &[IoRequest],
) -> (MultiLaneReport, Vec<IoRequest>) {
    let mut set = LaneSet::new(lanes, make_backend)
        .with_timing(Timing::multiplier(multiplier).expect("multiplier in range"));
    let mut replayed = Vec::with_capacity(requests.len());
    let report = set
        .run_observed(requests.iter().copied(), |req| replayed.push(req))
        .expect("lane replay failed");
    (report, replayed)
}

/// The lane-curve phase: replay through `lanes` per-volume issue lanes
/// and report merged schedule fidelity plus the per-lane breakdown.
fn phase_lanes(thousands: u64, multiplier: f64, backend: &str, lanes: usize) {
    let n = (thousands * 1000) as usize;
    let requests = materialize(n);

    let (multi, replayed) = match backend {
        "null" => run_lane_replay(lanes, |_| NullBackend::new(), multiplier, &requests),
        "mem" => run_lane_replay(lanes, |_| MemBackend::new(), multiplier, &requests),
        "file" => {
            let dir = scratch_dir("lanes_file");
            let out = run_lane_replay(
                lanes,
                |lane| FileBackend::new(dir.join(format!("lane{lane}"))).expect("file backend"),
                multiplier,
                &requests,
            );
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
        "direct" => {
            let dir = scratch_dir("lanes_direct");
            let out = run_lane_replay(
                lanes,
                |lane| {
                    let b = DirectFileBackend::new(dir.join(format!("lane{lane}")))
                        .expect("direct backend");
                    if let Some(reason) = b.fallback_reason() {
                        eprintln!("note: lane {lane} buffered fallback — {reason}");
                    }
                    b
                },
                multiplier,
                &requests,
            );
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
        other => panic!("unknown backend {other:?}; expected null|mem|file|direct"),
    };
    assert_eq!(multi.merged.requests, n as u64);
    assert_eq!(multi.lanes(), lanes, "engine must materialize every lane");

    let direct = Workbench::new(Trace::from_requests(requests.clone())).analyze();
    let re = Workbench::new(Trace::from_requests(replayed)).analyze();
    let identical = direct.metrics() == re.metrics();
    assert!(identical, "lane-replayed stream re-analyzed differently");

    let report = &multi.merged;
    let per_lane: Vec<String> = multi
        .per_lane
        .iter()
        .map(|l| {
            format!(
                "{{\"lane\": {}, \"requests\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
                l.lane, l.requests, l.issue_lag.p50, l.issue_lag.p99, l.issue_lag.max
            )
        })
        .collect();
    println!(
        "{{\"phase\": \"lanes\", \"backend\": \"{}\", \"remap\": \"identity\", \
         \"rate_multiplier\": {}, \"lanes\": {}, \"requests\": {}, \"bytes\": {}, \
         \"volumes\": {}, \"wall_nanos\": {}, \"offered_nanos\": {}, \
         \"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \
         \"achieved_offered_ratio\": {:.4}, \"backpressure_nanos\": {}, \
         \"idle_nanos\": {}, \
         \"issue_lag\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}, \
         \"per_lane_lag\": [{}], \
         \"seconds\": {:.3}, \"reanalysis_identical\": {}, \"peak_rss_kb\": {}}}",
        backend,
        multiplier,
        lanes,
        report.requests,
        report.bytes,
        direct.metrics().len(),
        report.wall_nanos,
        report.offered_nanos,
        report.offered_rps(),
        report.achieved_rps(),
        report.achieved_offered_ratio(),
        multi.feed_backpressure_nanos,
        multi.per_lane.iter().map(|l| l.idle_nanos).sum::<u64>(),
        report.issue_lag.p50,
        report.issue_lag.p90,
        report.issue_lag.p99,
        report.issue_lag.max,
        per_lane.join(", "),
        report.wall_nanos as f64 / 1e9,
        identical,
        peak_rss_kb(),
    );
}

/// Run each phase as a fresh subprocess (isolated `VmHWM`) and write
/// the collected JSON lines to `BENCH_replay.json`. `lane_counts` is
/// the `--lanes` curve (default 1,2,4,8).
fn orchestrate(lane_counts: &[usize]) {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut results = Vec::new();
    // The acceptance row: 1M requests, null backend, ×1000.
    let main_row = run_phase(&["replay", "1000", "1000", "null", "identity"]);
    let ratio = row_f64(&main_row, "achieved_offered_ratio");
    assert!(
        ratio >= MIN_RATIO,
        "acceptance: null ×1000 achieved/offered {ratio:.3} < {MIN_RATIO}"
    );
    results.push(main_row);
    // Remap variants at the same scale.
    results.push(run_phase(&["replay", "1000", "1000", "null", "fanout:4"]));
    results.push(run_phase(&["replay", "1000", "1000", "null", "merge:4"]));
    // Real work per request: in-memory page store (smaller corpus so
    // the materialized pages stay modest, gentler multiplier so the
    // offered rate stays inside the page-copy bandwidth).
    results.push(run_phase(&["replay", "250", "50", "mem", "identity"]));
    // A slower multiplier point for the rate sweep (smaller corpus so
    // the offered schedule still compresses to seconds).
    results.push(run_phase(&["replay", "100", "100", "null", "identity"]));

    // The lane-scaling curve at the acceptance scale: every row must
    // keep up with the offered schedule, and the best lane count must
    // bring merged p99 issue lag under the budget.
    // The p99 budget presumes lanes can actually run in parallel: the
    // corpus's compressed bursts offer ~4.6M rps sustained, above the
    // ~4M rps decode-alone ceiling of one core, so on a single-core
    // host every engine saturates and the budget is reported, not
    // asserted (the ratio floor still is).
    let mut best_p99 = f64::INFINITY;
    for &count in lane_counts {
        let row = run_phase(&["lanes", "1000", "1000", "null", &count.to_string()]);
        let lane_ratio = row_f64(&row, "achieved_offered_ratio");
        assert!(
            lane_ratio >= MIN_RATIO,
            "acceptance: {count}-lane ×1000 achieved/offered {lane_ratio:.3} < {MIN_RATIO}"
        );
        best_p99 = best_p99.min(row_f64(&row, "p99"));
        results.push(row);
    }
    if cores >= 2 {
        assert!(
            best_p99 <= MAX_BEST_P99_NANOS,
            "acceptance: best lane-curve p99 issue lag {best_p99} ns > {MAX_BEST_P99_NANOS} ns"
        );
    } else {
        eprintln!(
            "note: single-core host — lane-curve best p99 {best_p99} ns recorded, \
             {MAX_BEST_P99_NANOS} ns budget not asserted (bursts exceed one core's decode ceiling)"
        );
    }

    // O_DIRECT vs buffered fidelity on the real VFS path: slowed
    // pacing (×0.25) over a short prefix so the offered rate (~1.2K
    // rps) sits inside O_DIRECT's per-op service rate and the
    // comparison isolates backend service time, not scheduler debt.
    results.push(run_phase(&["replay", "3", "0.25", "file", "identity"]));
    results.push(run_phase(&["replay", "3", "0.25", "direct", "identity"]));

    write_bench_file("replay", &results);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("replay") => {
            let thousands: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
            let multiplier: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1000.0);
            let backend = args.get(3).map(String::as_str).unwrap_or("null");
            let remap = args.get(4).map(String::as_str).unwrap_or("identity");
            phase_replay(thousands, multiplier, backend, remap);
        }
        Some("lanes") => {
            let thousands: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
            let multiplier: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1000.0);
            let backend = args.get(3).map(String::as_str).unwrap_or("null");
            let lanes: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(2);
            phase_lanes(thousands, multiplier, backend, lanes);
        }
        Some("--lanes") => {
            let counts: Vec<usize> = args
                .get(1)
                .map(|s| s.split(',').filter_map(|c| c.trim().parse().ok()).collect())
                .unwrap_or_default();
            assert!(
                !counts.is_empty(),
                "--lanes expects a comma-separated list, e.g. --lanes 1,2,4,8"
            );
            orchestrate(&counts);
        }
        Some(other) => {
            eprintln!("unknown phase {other:?}; expected replay|lanes|--lanes");
            std::process::exit(2);
        }
        None => orchestrate(&[1, 2, 4, 8]),
    }
}
