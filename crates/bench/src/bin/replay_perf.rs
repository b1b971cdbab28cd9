//! Replay performance measurement harness.
//!
//! Produces the numbers recorded in `EXPERIMENTS.md` and
//! `BENCH_replay.json`: achieved-vs-offered throughput of the
//! open-loop replay engine at a rate multiplier over a synthetic
//! corpus, per-request issue-lag percentiles, and re-analysis
//! equivalence (the replayed stream fed back through `Workbench` must
//! be metric-identical to analyzing the source directly).
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
//! cargo run --release -p cbs-bench --bin replay_perf smoke                 # CI gate
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
//! Budgets (env-overridable): the orchestrated null-backend ×1000 row
//! and every lane-curve row assert `achieved_offered_ratio >=
//! REPLAY_PERF_MIN_RATIO` (default 0.95 — the acceptance criterion);
//! on multi-core hosts the best lane count must additionally bring
//! merged p99 issue lag under `REPLAY_PERF_MAX_BEST_P99_NANOS`
//! (default 1 ms — single-core hosts record the curve but can't beat
//! the decode ceiling, see EXPERIMENTS.md); the `smoke` phase
//! asserts `REPLAY_SMOKE_MIN_RATIO` (default 0.90) on a small corpus
//! plus re-analysis equivalence, remap conservation, and single-lane
//! parity of the `REPLAY_SMOKE_LANES`-lane (default 2) engine.

#![allow(
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    reason = "a measurement binary: it aborts on a broken setup and removes scratch files best-effort"
)]

use std::io::Write as _;

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
    let intensity = env_f64("REPLAY_CORPUS_INTENSITY", 0.03);
    let config = CorpusConfig::new(128, 0, 90210)
        .with_extra_hours(1)
        .with_intensity_scale(intensity);
    presets::alicloud_like(&config)
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

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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

    let volumes = direct.trace().volume_count();
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
    // Lookahead = lanes × depth × LANE_BATCH_REQUESTS pre-decoded
    // requests. Deeper channels keep the feeder runnable longer; on
    // few-core hosts that steals CPU from the issue lanes during
    // compressed bursts, so the engine default (8) measures best —
    // REPLAY_LANE_DEPTH overrides for lookahead experiments.
    let depth = env_f64(
        "REPLAY_LANE_DEPTH",
        cbs_replay::DEFAULT_LANE_CHANNEL_DEPTH as f64,
    ) as usize;
    let mut set = LaneSet::new(lanes, make_backend)
        .with_timing(Timing::multiplier(multiplier).expect("multiplier in range"))
        .with_channel_depth(depth);
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
        direct.trace().volume_count(),
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

/// CI gate: small corpus, strict invariants, env-overridable ratio
/// budget. Prints a human line, not JSON.
fn phase_smoke() {
    const N: usize = 100_000;
    // The corpus's first 100K requests sit in its densest burst
    // region: at ×1000 they'd offer ~4.4M rps, above the ~3.6M rps a
    // single issue thread can physically sustain — the gate would then
    // measure host speed, not scheduler fidelity. ×250 offers ~1.1M
    // rps, 3× headroom, while still exercising the compressed path
    // (the 1M-request ×1000 acceptance row lives in the orchestrated
    // run, whose span makes its offered rate sustainable).
    const SMOKE_RATE: f64 = 250.0;
    let requests = materialize(N);
    let min_ratio = env_f64("REPLAY_SMOKE_MIN_RATIO", 0.90);

    // 1. Null-backend identity replay: keeps up with the offered
    //    schedule and re-analyzes metric-identical.
    let (report, replayed) = run_replay(NullBackend::new(), SMOKE_RATE, Remap::Identity, &requests);
    assert_eq!(report.requests, N as u64);
    assert_eq!(
        report.issue_lag.count, N as u64,
        "one lag sample per request"
    );
    let ratio = report.achieved_offered_ratio();
    assert!(
        ratio >= min_ratio,
        "replay fell behind: achieved/offered {ratio:.3} < floor {min_ratio} \
         (override with REPLAY_SMOKE_MIN_RATIO)"
    );
    let direct = Workbench::new(Trace::from_requests(requests.clone())).analyze();
    let re = Workbench::new(Trace::from_requests(replayed)).analyze();
    assert_eq!(
        direct.metrics(),
        re.metrics(),
        "null replay re-analyzed differently from the source"
    );

    // 2. Remap conservation through the full engine: fanout:4 then
    //    merge:4 is the identity on metrics; counts conserved at every
    //    step.
    let (fan_report, fanned) =
        run_replay(NullBackend::new(), SMOKE_RATE, Remap::FanOut(4), &requests);
    assert_eq!(fan_report.requests, N as u64);
    assert_eq!(
        fan_report.bytes, report.bytes,
        "fan-out must conserve bytes"
    );
    let (_, folded) = run_replay(NullBackend::new(), SMOKE_RATE, Remap::Merge(4), &fanned);
    let re_folded = Workbench::new(Trace::from_requests(folded)).analyze();
    assert_eq!(
        direct.metrics(),
        re_folded.metrics(),
        "fanout:4 ∘ merge:4 is not the identity"
    );

    // 3. Mem backend: writes materialize pages, deterministically.
    let run_mem = || {
        let mut replayer = Replayer::new(MemBackend::new())
            .with_timing(Timing::multiplier(1000.0).expect("valid rate"));
        replayer
            .run(requests.iter().copied().take(2000))
            .expect("mem replay");
        replayer.backend().page_count()
    };
    let pages = run_mem();
    assert!(pages > 0, "writes never materialized a page");
    assert_eq!(pages, run_mem(), "mem backend is non-deterministic");

    // 4. Multi-lane parity: the merged lane report equals the
    //    single-lane report on every conserved quantity, keeps up with
    //    the same offered schedule, and re-analyzes identical.
    let lanes: usize = std::env::var("REPLAY_SMOKE_LANES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let (multi, lane_replayed) =
        run_lane_replay(lanes, |_| NullBackend::new(), SMOKE_RATE, &requests);
    assert_eq!(multi.lanes(), lanes);
    assert_eq!(
        multi.merged.requests, report.requests,
        "lane fold lost requests"
    );
    assert_eq!(multi.merged.bytes, report.bytes, "lane fold lost bytes");
    assert_eq!(multi.merged.reads, report.reads, "lane fold lost reads");
    assert_eq!(multi.merged.writes, report.writes, "lane fold lost writes");
    assert_eq!(
        multi.merged.offered_nanos, report.offered_nanos,
        "feeder must offer exactly the single-lane schedule"
    );
    assert_eq!(
        multi.merged.issue_lag.count, report.issue_lag.count,
        "one merged lag sample per request"
    );
    let lane_ratio = multi.merged.achieved_offered_ratio();
    assert!(
        lane_ratio >= min_ratio,
        "{lanes}-lane replay fell behind: achieved/offered {lane_ratio:.3} < floor {min_ratio} \
         (override with REPLAY_SMOKE_MIN_RATIO / REPLAY_SMOKE_LANES)"
    );
    let re_lanes = Workbench::new(Trace::from_requests(lane_replayed)).analyze();
    assert_eq!(
        direct.metrics(),
        re_lanes.metrics(),
        "{lanes}-lane replay re-analyzed differently from the source"
    );

    // 5. Config validation: out-of-range multipliers and zero remap
    //    factors cannot reach the scheduler.
    assert!(Timing::multiplier(1000.1).is_err());
    assert!(Timing::multiplier(0.05).is_err());
    assert!(Remap::parse("fanout:0").is_err());
    assert!(Remap::parse("bogus").is_err());

    println!(
        "smoke ok: {N} requests, ×{SMOKE_RATE} null replay achieved/offered {ratio:.3} \
         (floor {min_ratio}), p99 issue lag {} ns, re-analysis identical, \
         fanout∘merge identity verified, mem backend {pages} pages deterministic, \
         {lanes}-lane report single-lane-identical (achieved/offered {lane_ratio:.3})",
        report.issue_lag.p99
    );
}

/// Run each phase as a fresh subprocess (isolated `VmHWM`) and write
/// the collected JSON lines to `BENCH_replay.json`. `lane_counts` is
/// the `--lanes` curve (default 1,2,4,8).
fn orchestrate(lane_counts: &[usize]) {
    let exe = std::env::current_exe().expect("current_exe");
    let run = |args: &[&str]| -> String {
        eprintln!("→ replay_perf {}", args.join(" "));
        let out = std::process::Command::new(&exe)
            .args(args)
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

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut results = Vec::new();
    // The acceptance row: 1M requests, null backend, ×1000.
    let main_row = run(&["replay", "1000", "1000", "null", "identity"]);
    let min_ratio = env_f64("REPLAY_PERF_MIN_RATIO", 0.95);
    let ratio = row_f64(&main_row, "achieved_offered_ratio");
    assert!(
        ratio >= min_ratio,
        "acceptance: null ×1000 achieved/offered {ratio:.3} < {min_ratio} \
         (override with REPLAY_PERF_MIN_RATIO)"
    );
    results.push(main_row);
    // Remap variants at the same scale.
    results.push(run(&["replay", "1000", "1000", "null", "fanout:4"]));
    results.push(run(&["replay", "1000", "1000", "null", "merge:4"]));
    // Real work per request: in-memory page store (smaller corpus so
    // the materialized pages stay modest, gentler multiplier so the
    // offered rate stays inside the page-copy bandwidth).
    results.push(run(&["replay", "250", "50", "mem", "identity"]));
    // A slower multiplier point for the rate sweep (smaller corpus so
    // the offered schedule still compresses to seconds).
    results.push(run(&["replay", "100", "100", "null", "identity"]));

    // The lane-scaling curve at the acceptance scale: every row must
    // keep up with the offered schedule, and the best lane count must
    // bring merged p99 issue lag under the budget (default 1 ms).
    // The p99 budget presumes lanes can actually run in parallel: the
    // corpus's compressed bursts offer ~4.6M rps sustained, above the
    // ~4M rps decode-alone ceiling of one core, so on a single-core
    // host every engine saturates and the budget is reported, not
    // asserted (the ratio floor still is).
    let max_best_p99 = env_f64("REPLAY_PERF_MAX_BEST_P99_NANOS", 1_000_000.0);
    let mut best_p99 = f64::INFINITY;
    for &count in lane_counts {
        let row = run(&["lanes", "1000", "1000", "null", &count.to_string()]);
        let lane_ratio = row_f64(&row, "achieved_offered_ratio");
        assert!(
            lane_ratio >= min_ratio,
            "acceptance: {count}-lane ×1000 achieved/offered {lane_ratio:.3} < {min_ratio} \
             (override with REPLAY_PERF_MIN_RATIO)"
        );
        best_p99 = best_p99.min(row_f64(&row, "p99"));
        results.push(row);
    }
    if cores >= 2 {
        assert!(
            best_p99 <= max_best_p99,
            "acceptance: best lane-curve p99 issue lag {best_p99} ns > {max_best_p99} ns \
             (override with REPLAY_PERF_MAX_BEST_P99_NANOS)"
        );
    } else {
        eprintln!(
            "note: single-core host — lane-curve best p99 {best_p99} ns recorded, \
             {max_best_p99} ns budget not asserted (bursts exceed one core's decode ceiling)"
        );
    }

    // O_DIRECT vs buffered fidelity on the real VFS path: slowed
    // pacing (×0.25) over a short prefix so the offered rate (~1.2K
    // rps) sits inside O_DIRECT's per-op service rate and the
    // comparison isolates backend service time, not scheduler debt.
    results.push(run(&["replay", "3", "0.25", "file", "identity"]));
    results.push(run(&["replay", "3", "0.25", "direct", "identity"]));

    let mut f = std::fs::File::create("BENCH_replay.json").expect("create BENCH_replay.json");
    writeln!(
        f,
        "{{\n  \"bench\": \"replay\",\n  \"cores\": {cores},\n  \"results\": [\n    {}\n  ]\n}}",
        results.join(",\n    ")
    )
    .expect("write BENCH_replay.json");
    eprintln!("wrote BENCH_replay.json");
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
        Some("smoke") => phase_smoke(),
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
            eprintln!("unknown phase {other:?}; expected replay|lanes|smoke|--lanes");
            std::process::exit(2);
        }
        None => orchestrate(&[1, 2, 4, 8]),
    }
}
