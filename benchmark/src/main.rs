//! `cbs-benchmark` — the gating benchmark of cbs-workbench.
//!
//! ```text
//! cbs-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! cbs-benchmark [--seed N] [--seconds S] [--quick]              all six, writes <out>/results.json
//! cbs-benchmark --compare a.json b.json                         verdict per workload × metric
//! ```
//!
//! See README.md for what is measured and why. Every timed pass runs in a
//! fresh child process (this binary re-executed with `child`), one at a
//! time, so peak RSS and CPU time belong to that pass alone.

mod catalog;
mod compare;
mod json;
mod setup;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use catalog::{END_TO_END, PER_LAYER};
use stats::{summarize, Summary};
use workloads::{Probe, Workload};

/// Set-ups per invocation; `setup_s` is the fastest.
const SETUPS: usize = 5;
/// The ledger must account for all but this share of a traced pass.
const MAX_UNATTRIBUTED: f64 = 0.05;

const USAGE: &str = "usage: cbs-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--threads T] [--out DIR] [--quick]
       cbs-benchmark --compare A.json B.json";

#[derive(Debug, Clone)]
struct Config {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    out: PathBuf,
    quick: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("--compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => parse(&args).and_then(|config| match config.workload {
            Some(workload) => one_workload(workload, &config),
            None => suite(&config),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("cbs-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<Config, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut config = Config {
        workload: None,
        seed: 4242,
        seconds: 16.0,
        trace: false,
        threads: nproc.min(4),
        out: PathBuf::from("benchmark/out"),
        quick: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            // One pass per round: smoke-tests the harness, measures nothing.
            config.quick = true;
            config.seconds = 0.0;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => config.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => config.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&config.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => config.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--threads" => {
                config.threads = value.parse().ok().filter(|&t| t >= 1).ok_or_else(bad)?;
            }
            "--out" => config.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(config)
}

// ----------------------------------------------------------------- child

/// What one timed pass measured, as the child reports it to its parent.
#[derive(Debug, Clone, Default)]
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_kib: f64,
    requests: u64,
    errors: u64,
    digest: u64,
    layers: BTreeMap<String, f64>,
}

/// User + system CPU time of this process, in seconds: every thread,
/// those that have ended too. The process CPU-time clock reads in
/// nanoseconds; `/proc/self/stat` counts 10 ms ticks, over 1 % of a pass.
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable timespec of the layout 64-bit
    // Linux gives it, and the call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "the process CPU-time clock is always there");
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

fn peak_rss_kib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0.0)
}

/// `child <workload> <dir> <threads> <traced 0|1> <trace-file>`: one timed
/// pass; prints `key value` lines for the parent.
fn child(args: &[String]) -> Result<bool, String> {
    let [workload, dir, threads, traced, trace_file] = args else {
        return Err("child: bad arguments".into());
    };
    let workload = Workload::parse(workload).ok_or("child: unknown workload")?;
    let threads: usize = threads.parse().map_err(|_| "child: bad thread count")?;
    let mut probe = Probe::new(traced == "1");

    let cpu_before = cpu_seconds();
    let clock = Instant::now();
    let out = workloads::run_pass(workload, Path::new(dir), threads, &mut probe);
    let wall_s = clock.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let peak_rss_kib = peak_rss_kib();

    let result = out.result(&probe);
    println!("wall_s {wall_s:?}");
    println!("cpu_s {cpu_s:?}");
    println!("peak_rss_kib {peak_rss_kib:?}");
    println!("requests {}", result.requests);
    println!("errors {}", result.errors);
    println!("digest {}", result.digest);
    if probe.spans.enabled() {
        for (name, value) in &result.layers {
            println!("layer {name} {value:?}");
        }
        let unattributed = (wall_s - probe.spans.top_level_s()) / wall_s;
        println!("layer unattributed_frac {unattributed:?}");
        probe
            .spans
            .write_json(
                Path::new(trace_file),
                workload.name(),
                u64::from(std::process::id()),
            )
            .map_err(|e| format!("write {trace_file}: {e}"))?;
    }
    Ok(true)
}

fn parse_sample(stdout: &str) -> Result<Sample, String> {
    fn field<T: std::str::FromStr>(word: Option<&str>, line: &str) -> Result<T, String> {
        word.and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("child printed {line:?}"))
    }
    let mut sample = Sample::default();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("wall_s") => sample.wall_s = field(words.next(), line)?,
            Some("cpu_s") => sample.cpu_s = field(words.next(), line)?,
            Some("peak_rss_kib") => sample.peak_rss_kib = field(words.next(), line)?,
            Some("requests") => sample.requests = field(words.next(), line)?,
            Some("errors") => sample.errors = field(words.next(), line)?,
            Some("digest") => sample.digest = field(words.next(), line)?,
            Some("layer") => {
                let name: String = field(words.next(), line)?;
                sample.layers.insert(name, field(words.next(), line)?);
            }
            _ => return Err(format!("child printed {line:?}")),
        }
    }
    Ok(sample)
}

// ---------------------------------------------------------------- parent

/// Scratch directory for one invocation's corpora, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path) -> Result<Scratch, String> {
        let dir = out.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything measured for one workload in one invocation.
#[derive(Debug)]
struct Measured {
    workload: Workload,
    expected: u64,
    setup_s: Vec<f64>,
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
    /// Why the result is not correct; empty when it is.
    faults: Vec<String>,
}

impl Measured {
    fn attempted(&self) -> u64 {
        self.expected * self.untraced.len() as u64
    }

    /// Requests not accounted for plus errors, over the untraced passes.
    fn failed(&self) -> u64 {
        self.untraced
            .iter()
            .map(|s| self.expected.saturating_sub(s.requests) + s.errors)
            .sum::<u64>()
            .min(self.attempted())
    }

    fn walls(&self) -> Vec<f64> {
        self.untraced.iter().map(|s| s.wall_s).collect()
    }

    /// Per-run values of one end-to-end metric.
    fn end_to_end(&self, name: &str) -> Vec<f64> {
        let per_pass = |f: fn(&Sample, f64) -> f64| -> Vec<f64> {
            let requests = self.expected as f64;
            self.untraced.iter().map(|s| f(s, requests)).collect()
        };
        match name {
            "requests_per_s" => per_pass(|s, requests| requests / s.wall_s),
            "cpu_ns_per_req" => per_pass(|s, requests| s.cpu_s * 1e9 / requests),
            "peak_rss_mib" => per_pass(|s, _| s.peak_rss_kib / 1024.0),
            "setup_s" => self.setup_s.clone(),
            other => unreachable!("no end-to-end metric {other}"),
        }
    }

    /// Per-run values of one per-layer metric; a layer the workload does
    /// not touch reads 0.
    fn per_layer(&self, name: &str) -> Vec<f64> {
        if name == "trace_overhead_frac" {
            let base = summarize(&self.walls()).median;
            return self
                .traced
                .iter()
                .map(|s| (s.wall_s - base) / base)
                .collect();
        }
        self.traced
            .iter()
            .map(|s| s.layers.get(name).copied().unwrap_or(0.0))
            .collect()
    }
}

/// Sets up `workload` [`SETUPS`] times (generate, write, verify), then runs
/// timed passes: untraced ones for `untraced_s` seconds, then untraced and
/// traced ones alternating — so both see the same host conditions — for
/// `paired_s` seconds. A phase given `None` is skipped; one given 0 runs once.
fn measure(
    workload: Workload,
    config: &Config,
    untraced_s: Option<f64>,
    paired_s: Option<f64>,
) -> Result<Measured, String> {
    let scratch = Scratch::new(&config.out)?;
    let dir = &scratch.0;
    let expected = workload.requests(config.quick);
    let verify_requests = if config.quick { 10_000 } else { 30_000 };
    let mut measured = Measured {
        workload,
        expected,
        setup_s: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        faults: Vec::new(),
    };
    for _ in 0..SETUPS {
        let clock = Instant::now();
        setup::generate(workload, config.seed, expected, dir)?;
        if let Err(fault) = setup::verify(
            workload,
            config.seed,
            verify_requests,
            config.threads,
            &dir.join("verify"),
        ) {
            measured.faults.push(fault);
        }
        measured.setup_s.push(clock.elapsed().as_secs_f64());
    }

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let trace_file = config.out.join(format!("trace-{}.json", workload.name()));
    let pass = |traced: bool| -> Result<Sample, String> {
        let output = Command::new(&exe)
            .arg("child")
            .arg(workload.name())
            .arg(dir)
            .arg(config.threads.to_string())
            .arg(if traced { "1" } else { "0" })
            .arg(&trace_file)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn child: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "{} pass failed: {}",
                workload.name(),
                output.status
            ));
        }
        parse_sample(&String::from_utf8_lossy(&output.stdout))
    };
    for (seconds, paired) in [(untraced_s, false), (paired_s, true)] {
        let Some(seconds) = seconds else { continue };
        let clock = Instant::now();
        loop {
            measured.untraced.push(pass(false)?);
            if paired {
                measured.traced.push(pass(true)?);
            }
            if clock.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    let all = || measured.untraced.iter().chain(&measured.traced);
    if all().any(|s| s.digest != measured.untraced[0].digest) {
        measured.faults.push("digests differ between passes".into());
    }
    if all().any(|s| s.requests != expected || s.errors != 0) {
        measured
            .faults
            .push("a pass lost requests or hit errors".into());
    }
    if let Some(worst) = measured
        .per_layer("unattributed_frac")
        .into_iter()
        .reduce(f64::max)
        .filter(|&worst| worst > MAX_UNATTRIBUTED)
    {
        measured.faults.push(format!(
            "unattributed_frac {worst:.3} above {MAX_UNATTRIBUTED}"
        ));
    }
    Ok(measured)
}

fn number(value: f64) -> String {
    // JSON has no NaN or infinity; a metric that is one is a harness bug
    // worth seeing, so it is written as null rather than hidden as 0.
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// Prints every metric of `measured` by name, one per line, to stderr.
fn print_table(measured: &Measured, end_to_end: bool, per_layer: bool) {
    let name = measured.workload.name();
    // The reported value, then the samples it was taken from.
    let row = |metric: &str, unit: &str, value: f64, s: Summary| {
        eprintln!(
            "{name:<13} {metric:<30} {value:>16.6} {unit:<6} median {:.6} q1 {:.6} q3 {:.6} n {}",
            s.median, s.q1, s.q3, s.n
        );
    };
    let median_row = |metric: &str, unit: &str, s: Summary| row(metric, unit, s.median, s);
    if end_to_end {
        for m in END_TO_END {
            let samples = summarize(&measured.end_to_end(m.name));
            row(m.name, m.unit, m.value(samples), samples);
        }
        let failed_frac = measured.failed() as f64 / measured.attempted() as f64;
        eprintln!("{name:<13} {:<30} {failed_frac:>16.6} ratio", "failed_frac");
        median_row("wall_s", "s", summarize(&measured.walls()));
        eprintln!("{name:<13} wall_s of each pass {:.3?}", measured.walls());
        let cpus: Vec<f64> = measured.untraced.iter().map(|s| s.cpu_s).collect();
        eprintln!("{name:<13} cpu_s of each pass {cpus:.3?}");
    }
    if per_layer {
        // Layers this workload does not touch read 0: left out of the
        // table (they are in the JSON).
        for m in PER_LAYER {
            let values = measured.per_layer(m.name);
            if values.iter().any(|&v| v != 0.0) {
                median_row(m.name, m.unit, summarize(&values));
            }
        }
    }
    for fault in &measured.faults {
        eprintln!("{name:<13} FAULT {fault}");
    }
}

/// The driver's entry: one workload, one JSON object as the last line of
/// stdout, with the end-to-end metrics (`--trace 0`) or the per-layer
/// metrics (`--trace 1`).
fn one_workload(workload: Workload, config: &Config) -> Result<bool, String> {
    let (untraced_s, paired_s) = if config.trace {
        (None, Some(config.seconds))
    } else {
        (Some(config.seconds), None)
    };
    let measured = measure(workload, config, untraced_s, paired_s)?;
    print_table(&measured, !config.trace, config.trace);
    let values: Vec<(&str, &str, f64)> = if config.trace {
        let median = |m: &catalog::PerLayer| summarize(&measured.per_layer(m.name)).median;
        PER_LAYER.iter().map(|m| (m.name, m.unit, median(m))).collect()
    } else {
        let value = |m: &catalog::EndToEnd| m.value(summarize(&measured.end_to_end(m.name)));
        END_TO_END.iter().map(|m| (m.name, m.unit, value(m))).collect()
    };
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, value)| {
            let value = number(*value);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.faults.is_empty(),
        measured.attempted(),
        measured.failed(),
        metrics.join(", ")
    );
    Ok(true)
}

// ----------------------------------------------------------------- suite

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_json(config: &Config) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map_or("unknown", |rest| rest.trim_start_matches([' ', '\t', ':']));
    let sizes: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("\"{}\": {}", w.name(), w.requests(config.quick)))
        .collect();
    format!(
        "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"git_rev\": \"{}\", \"rustc\": \"{}\", \
         \"threads\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"sizes\": {{{}}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json::escape(cpu_model),
        json::escape(&command_line("git", &["rev-parse", "HEAD"])),
        json::escape(&command_line("rustc", &["--version"])),
        config.threads,
        config.seed,
        number(config.seconds),
        config.quick,
        sizes.join(", ")
    )
}

fn summary_json(s: Summary) -> String {
    format!(
        "\"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}",
        number(s.median),
        number(s.q1),
        number(s.q3),
        number(s.min),
        number(s.max),
        s.n
    )
}

fn workload_json(measured: &Measured) -> String {
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let samples = summarize(&measured.end_to_end(m.name));
            format!(
                "      \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"reported\": \"{}\", \"value\": {}, {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound,
                m.reported.as_str(),
                number(m.value(samples)),
                summary_json(samples)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "      \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                summary_json(summarize(&measured.per_layer(m.name)))
            )
        })
        .collect();
    let faults: Vec<String> = measured
        .faults
        .iter()
        .map(|f| format!("\"{}\"", json::escape(f)))
        .collect();
    format!(
        "{{\n    \"correct\": {}, \"faults\": [{}], \"attempted\": {}, \"failed\": {}, \
         \"failed_frac\": {}, \"digest\": \"{:016x}\",\n    \"wall_s\": {{{}}},\n    \
         \"end_to_end\": {{\n{}\n    }},\n    \"per_layer\": {{\n{}\n    }}\n  }}",
        measured.faults.is_empty(),
        faults.join(", "),
        measured.attempted(),
        measured.failed(),
        number(measured.failed() as f64 / measured.attempted() as f64),
        measured.untraced[0].digest,
        summary_json(summarize(&measured.walls())),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// All six workloads: untraced passes for `config.seconds` each, then one
/// traced round (an untraced and a traced pass); prints every metric and
/// writes `<out>/results.json`.
fn suite(config: &Config) -> Result<bool, String> {
    std::fs::create_dir_all(&config.out)
        .map_err(|e| format!("create {}: {e}", config.out.display()))?;
    let mut correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        eprintln!("--- {}", workload.name());
        let measured = measure(workload, config, Some(config.seconds), Some(0.0))?;
        print_table(&measured, true, true);
        correct &= measured.faults.is_empty();
        workloads.push(format!(
            "  \"{}\": {}",
            workload.name(),
            workload_json(&measured)
        ));
    }
    let path = config.out.join("results.json");
    let text = format!(
        "{{\n\"host\": {},\n\"workloads\": {{\n{}\n}}\n}}\n",
        host_json(config),
        workloads.join(",\n")
    );
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(correct)
}
