//! Plumbing shared by the three `BENCH_*.json` recorders: `ingest_perf`,
//! `cache_perf` and `replay_perf`.
//!
//! Timing the product on every change is the gating benchmark's job
//! (`benchmark/`), and checking its answers is the test suite's. The
//! recorders keep only the rows the gate cannot take: 10 M+ requests
//! and peak RSS at that scale, the shard, worker, sweep-thread and
//! replay-lane curves, SHARDS error, and the file and O_DIRECT replay
//! backends.
//!
//! Peak RSS (`VmHWM`) is a process-lifetime high-water mark, so each
//! recorder's orchestrator re-executes itself once per phase
//! ([`run_phase`]) and collects the one JSON line every phase prints
//! into its `BENCH_*.json` file ([`write_bench_file`]).

#![forbid(unsafe_code)]

use std::io::Write as _;

use cbs_synth::presets::{self, CorpusConfig};

/// The AliCloud-like corpus of the ingest and cache recorders: 128
/// volumes over 4 days, whose lazy stream exceeds the largest (20 M)
/// target, so `.take(n)` yields exactly `n` requests.
pub fn big_corpus() -> cbs_synth::CorpusGenerator {
    let config = CorpusConfig::new(128, 4, 4242).with_intensity_scale(0.05);
    presets::alicloud_like(&config)
}

/// This process's peak resident set in KiB (`VmHWM`), or 0 where
/// `/proc/self/status` cannot be read.
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Runs this executable again with `args`, as one phase in a fresh
/// process, and returns the JSON line the phase printed last.
///
/// # Panics
///
/// When the phase cannot be spawned, fails, or prints nothing: a
/// recorder stops rather than write a partial file.
#[expect(
    clippy::expect_used,
    reason = "a recorder stops rather than write a partial BENCH file"
)]
pub fn run_phase(args: &[&str]) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let name = exe
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    eprintln!("→ {name} {}", args.join(" "));
    let out = std::process::Command::new(&exe)
        .args(args)
        .output()
        .expect("spawn phase subprocess");
    assert!(
        out.status.success(),
        "phase {args:?} failed:\n{}",
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
}

/// Writes `BENCH_<bench>.json` into the working directory: the bench
/// name, the host's core count, and one phase row a line.
///
/// # Panics
///
/// When the file cannot be written.
#[expect(
    clippy::expect_used,
    reason = "a recorder stops rather than leave a partial BENCH file unreported"
)]
pub fn write_bench_file(bench: &str, rows: &[String]) {
    let path = format!("BENCH_{bench}.json");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut f = std::fs::File::create(&path).expect("create BENCH file");
    writeln!(
        f,
        "{{\n  \"bench\": \"{bench}\",\n  \"cores\": {cores},\n  \"results\": [\n    {}\n  ]\n}}",
        rows.join(",\n    ")
    )
    .expect("write BENCH file");
    eprintln!("wrote {path}");
}
