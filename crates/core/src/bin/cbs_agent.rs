//! `cbs-agent` — the worker half of the process fan-out.
//!
//! Binds a loopback address, accepts one controller connection, and
//! serves one job: receive a JOB frame (version, corpus epoch, flags),
//! then VOLUME frames until FIN, analyzing each volume *whole* under
//! the corpus epoch; reply with one METRICS frame per volume (arrival
//! order), a SWEEP frame if the job requested one, and FIN.
//!
//! ```text
//! cbs-agent --listen 127.0.0.1:4801
//! ```
//!
//! Because each volume is analyzed whole with the same epoch and
//! config as a single-process run, the controller's merged verdicts
//! are byte-identical to `cbs-ctl --local` (the `agent-smoke` gate in
//! `scripts/check.sh` asserts this).

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::process::ExitCode;

use cbs_analysis::{AnalysisConfig, VolumeAnalyzer};
use cbs_core::wire::{
    self, Frame, WireError, JOB_FLAG_SWEEP, TAG_FIN, TAG_JOB, TAG_METRICS, TAG_SWEEP, TAG_VOLUME,
    WIRE_VERSION,
};
use cbs_core::SweepReport;
use cbs_trace::{Timestamp, VolumeView};

// The shared module also carries the controller's report printer.
#[path = "fanout/mod.rs"]
#[expect(dead_code, reason = "the agent never prints a report")]
mod fanout;

fn main() -> ExitCode {
    let mut listen = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next(),
            "--help" | "-h" => {
                println!("usage: cbs-agent --listen HOST:PORT");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("cbs-agent: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(listen) = listen else {
        eprintln!("cbs-agent: --listen HOST:PORT is required");
        return ExitCode::FAILURE;
    };

    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cbs-agent: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Announce readiness on stdout so a harness can wait for the bind
    // instead of sleeping.
    match listener.local_addr() {
        Ok(addr) => println!("cbs-agent listening on {addr}"),
        Err(_) => println!("cbs-agent listening on {listen}"),
    }
    #[expect(
        clippy::let_underscore_must_use,
        reason = "a lost readiness line only makes the harness wait"
    )]
    let _ = std::io::stdout().flush();

    let stream = match listener.accept() {
        Ok((s, _peer)) => s,
        Err(e) => {
            eprintln!("cbs-agent: accept failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match serve(stream) {
        Ok(volumes) => {
            eprintln!("cbs-agent: served {volumes} volume(s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cbs-agent: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Serves one controller connection; returns the number of volumes
/// analyzed.
fn serve(stream: std::net::TcpStream) -> Result<usize, WireError> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    let job = wire::read_frame(&mut reader)?;
    if job.tag != TAG_JOB {
        return Err(WireError::BadTag(job.tag));
    }
    let mut d = wire::Dec::new(&job.payload);
    let version = d.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::Invalid("wire version mismatch"));
    }
    let epoch = Timestamp::from_micros(d.u64()?);
    let flags = d.u8()?;
    d.finish()?;
    let want_sweep = flags & JOB_FLAG_SWEEP != 0;

    let config = AnalysisConfig::default();
    let mut metric_frames: Vec<Vec<u8>> = Vec::new();
    let mut sweep: Option<SweepReport> = None;
    let mut volumes = 0usize;

    loop {
        let Frame { tag, payload } = wire::read_frame(&mut reader)?;
        match tag {
            TAG_VOLUME => {
                let mut d = wire::Dec::new(&payload);
                let (id, requests) = wire::dec_volume_stream(&mut d)?;
                d.finish()?;
                let view = VolumeView::new(id, &requests);
                let metrics = VolumeAnalyzer::analyze_volume(view, epoch, &config)
                    .map_err(|_| WireError::Invalid("controller sent an invalid config"))?;
                let mut e = wire::Enc::new();
                wire::enc_volume_metrics(&mut e, &metrics);
                metric_frames.push(e.into_bytes());
                if want_sweep {
                    // Per-volume cache, merged: the corpus verdict is
                    // the union of per-volume simulations.
                    let report = fanout::sweep_grid().sweep(requests.iter().copied());
                    match &mut sweep {
                        Some(total) => total.merge(&report),
                        None => sweep = Some(report),
                    }
                }
                volumes += 1;
            }
            TAG_FIN => break,
            other => return Err(WireError::BadTag(other)),
        }
    }

    for frame in &metric_frames {
        wire::write_frame(&mut writer, TAG_METRICS, frame)?;
    }
    if want_sweep {
        // An agent with no volumes still reports the grid's identity
        // (an empty-stream sweep) so the controller's fold sees a
        // uniform lane layout.
        let report = sweep.unwrap_or_else(|| fanout::sweep_grid().sweep(std::iter::empty()));
        let mut e = wire::Enc::new();
        wire::enc_sweep_report(&mut e, &report);
        wire::write_frame(&mut writer, TAG_SWEEP, &e.into_bytes())?;
    }
    wire::write_frame(&mut writer, TAG_FIN, &[])?;
    writer.flush()?;
    Ok(volumes)
}
