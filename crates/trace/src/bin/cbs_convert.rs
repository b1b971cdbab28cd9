//! `cbs-convert` — one-shot CSV → CBT trace conversion.
//!
//! Converts an AliCloud or MSR-Cambridge CSV trace into the columnar
//! binary trace format (CBT, see `cbs_trace::codec::cbt`) so large
//! corpora are parsed once and every later ingest reads delta/varint
//! columns at near-memcpy speed.
//!
//! ```text
//! cbs-convert alicloud <input.csv> <output.cbt>
//! cbs-convert msrc     <input.csv> <output.cbt> [--volumes <names.csv>]
//! cbs-convert info     <trace.cbt>
//! ```
//!
//! `-` as the input path reads stdin. MSRC conversion drops the
//! response-time column (CBT carries request fields only) and, with
//! `--volumes`, writes a sidecar mapping `id,hostname_disk` per line so
//! the interned volume ids stay interpretable. `--metrics` (any mode)
//! attaches a `cbs-obs` registry to the decoder/reader and dumps its
//! JSON export to stderr after the summary line — the quickest way to
//! see decode/CBT stage counters (bytes, records, CRC failures,
//! malformed-line position) for a real trace file.
//!
//! The summary line says where a conversion's time went and whether the
//! file was read at full speed: how long the calling thread waited for
//! decoded batches against how long it spent encoding them
//! (`convert.decode_wait` / `convert.encode` spans under `--metrics`),
//! and how many rows the decoder's row scanner refused and its general
//! parser had to decide (`decode.general_path_lines`) — a space-padded
//! or lower-case-opcode corpus converts at about half speed and now
//! says so.

#![allow(clippy::disallowed_methods, reason = "reports its own wall time")]

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::ExitCode;
use std::time::Instant;

use cbs_obs::{Registry, SpanTimer, Stopwatch};
use cbs_trace::codec::msrc::VolumeRegistry;
use cbs_trace::codec::parallel::ParallelDecoder;
use cbs_trace::{CbtReader, CbtWriter, RequestBatch};

const USAGE: &str = "usage: cbs-convert alicloud <input.csv> <output.cbt>
       cbs-convert msrc     <input.csv> <output.cbt> [--volumes <names.csv>]
       cbs-convert info     <trace.cbt>

Converts CSV traces to the columnar binary trace format (CBT).
`-` as the input path reads from stdin.
`--metrics` (any mode) dumps pipeline stage counters as JSON to stderr.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cbs-convert: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut args: Vec<String> = args.to_vec();
    let metrics = if let Some(i) = args.iter().position(|a| a == "--metrics") {
        args.remove(i);
        Some(Registry::new())
    } else {
        None
    };
    let mode = args.first().map(String::as_str);
    let result = match mode {
        Some(format @ ("alicloud" | "msrc")) if args.len() == 3 => {
            convert(format, &args[1], &args[2], None, metrics.as_ref())
        }
        Some("msrc") if args.len() == 5 && args[3] == "--volumes" => {
            convert("msrc", &args[1], &args[2], Some(&args[4]), metrics.as_ref())
        }
        Some("info") if args.len() == 2 => info(&args[1], metrics.as_ref()),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return Ok(());
        }
        _ => return Err(format!("bad arguments\n{USAGE}")),
    };
    // Dump even on failure: the counters show how far the pipeline got
    // (e.g. `decode.malformed_line` pinpoints a bad record).
    if let Some(registry) = &metrics {
        eprintln!("{}", registry.to_json());
    }
    result
}

fn open_input(path: &str) -> Result<Box<dyn Read + Send>, String> {
    if path == "-" {
        return Ok(Box::new(io::stdin()));
    }
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    Ok(Box::new(BufReader::new(file)))
}

fn create_output(path: &str) -> Result<BufWriter<File>, String> {
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    Ok(BufWriter::new(file))
}

/// Converts `input` (`format` is `alicloud` or `msrc`) and prints the
/// summary line; `volumes` is the MSRC sidecar path.
fn convert(
    format: &str,
    input: &str,
    output: &str,
    volumes: Option<&str>,
    metrics: Option<&Registry>,
) -> Result<(), String> {
    let reader = open_input(input)?;
    let fail = |e: &dyn std::fmt::Display| format!("write {output}: {e}");
    // Without `--metrics` the two timers only feed the summary line.
    let (decode_wait, encode) = match metrics {
        Some(registry) => (
            registry.span("convert.decode_wait"),
            registry.span("convert.encode"),
        ),
        None => (SpanTimer::new(), SpanTimer::new()),
    };
    let mut writer = CbtWriter::new(create_output(output)?);
    let mut write_error: Option<String> = None;
    let start = Instant::now();
    let decoder = match metrics {
        Some(registry) => ParallelDecoder::new().with_registry(registry),
        None => ParallelDecoder::new(),
    };
    let mut registry = VolumeRegistry::new();
    // The calling thread either waits for the next decoded batch (`idle`
    // runs from the end of one encode to the next arrival) or encodes it.
    let mut idle = Stopwatch::start();
    let sink = |batch: RequestBatch| {
        decode_wait.record_nanos(idle.elapsed_nanos());
        let busy = Stopwatch::start();
        if write_error.is_none() {
            write_error = writer.write_batch(&batch).err().map(|e| fail(&e));
        }
        encode.record_nanos(busy.elapsed_nanos());
        idle = Stopwatch::start();
    };
    let stats = if format == "msrc" {
        decoder.decode_msrc_batches(reader, &mut registry, sink)
    } else {
        decoder.decode_alicloud_batches(reader, sink)
    }
    .map_err(|e| format!("decode {input}: {e}"))?;
    if let Some(msg) = write_error {
        return Err(msg);
    }
    decode_wait.record_nanos(idle.elapsed_nanos());
    let busy = Stopwatch::start();
    let mut out = writer.finish().map_err(|e| fail(&e))?;
    out.flush().map_err(|e| fail(&e))?;
    let file = out.into_inner().map_err(|e| fail(&e))?;
    let out_bytes = file.metadata().map_err(|e| fail(&e))?.len();
    encode.record_nanos(busy.elapsed_nanos());
    if let Some(path) = volumes {
        let mut sidecar = create_output(path)?;
        for (id, name) in registry.iter() {
            writeln!(sidecar, "{},{}", id.get(), name).map_err(|e| format!("write {path}: {e}"))?;
        }
        sidecar.flush().map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("volumes  {} names -> {path}", registry.len());
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    eprintln!(
        "{format}  {} records  {:.1} MiB csv -> {:.1} MiB cbt ({:.2}x)  {secs:.2}s  \
         {:.0} records/s  (decode wait {:.2}s, encode {:.2}s, {} general-path lines)",
        stats.records,
        stats.bytes as f64 / (1 << 20) as f64,
        out_bytes as f64 / (1 << 20) as f64,
        stats.bytes as f64 / out_bytes.max(1) as f64,
        stats.records as f64 / secs,
        decode_wait.total_nanos() as f64 / 1e9,
        encode.total_nanos() as f64 / 1e9,
        stats.general_path_lines,
    );
    Ok(())
}

fn info(path: &str, metrics: Option<&Registry>) -> Result<(), String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut reader = CbtReader::new(BufReader::new(file));
    if let Some(registry) = metrics {
        reader = reader.with_registry(registry);
    }
    let mut blocks = 0u64;
    let mut records = 0u64;
    let mut volumes = std::collections::BTreeSet::new();
    let mut first_ts = None;
    let mut last_ts = None;
    loop {
        match reader.read_batch() {
            Ok(None) => break,
            Ok(Some(batch)) => {
                blocks += 1;
                records += batch.len() as u64;
                volumes.extend(batch.volumes().iter().copied());
                if let Some(ts) = batch.timestamps().first() {
                    first_ts.get_or_insert(*ts);
                }
                if let Some(ts) = batch.timestamps().last() {
                    last_ts = Some(*ts);
                }
            }
            Err(e) => return Err(format!("read {path}: {e}")),
        }
    }
    println!("blocks   {blocks}");
    println!("records  {records}");
    println!("volumes  {}", volumes.len());
    if let (Some(first), Some(last)) = (first_ts, last_ts) {
        println!("span     {} .. {} us", first.as_micros(), last.as_micros());
    }
    Ok(())
}
