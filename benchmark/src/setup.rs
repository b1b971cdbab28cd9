//! Set-up: seeded corpora written as the input files a pass reads, and the
//! verify stage that checks each pass against an independent reference.
//! All of it counts as `setup_s`.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use cbs_cache::{policy_by_name, CacheSim};
use cbs_core::Workbench;
use cbs_synth::presets::{self, CorpusConfig};
use cbs_synth::CorpusGenerator;
use cbs_trace::codec::{alicloud, msrc};
use cbs_trace::{BlockSize, CbtReader, CbtWriter, IoRequest, TimeDelta, Trace};

use crate::workloads::{
    convert_pass, replay_pass, stream_pass, sweep_pass, workers, Probe, Workload,
};

/// The three corpus shapes the workloads draw on.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The AliCloud preset: 128 volumes over 4 days, write-dominant, many
    /// small working sets.
    Ali,
    /// The MSRC preset: 36 volumes over 7 days, read-heavy in aggregate,
    /// few hot volumes with large working sets, one daily rewriter.
    Msrc,
    /// One dense hour of AliCloud-shaped traffic (~150 K requests/s
    /// recorded), so that ×1000 replay offers far more than can be issued.
    /// The one shape taken as a prefix: at intensity 3 which volumes burst
    /// in the first minute still moved throughput by 8 % over ten seeds;
    /// at 8 the host's own noise is all that is left.
    Dense,
}

/// Seed of the presets' per-volume parameters (rates, mixes, working sets).
///
/// A shape is what a workload was chosen for, so it is the same on every
/// run: `--seed` redraws each volume's request stream, not the volumes.
/// Drawing the volumes from `--seed` too made every seed a different
/// workload (`ali_stream` throughput spread 16 % over ten seeds, its peak
/// RSS 22 %), wider than any bound worth gating on.
const SHAPE_SEED: u64 = 4242;

impl Shape {
    /// A corpus of at least `requests` requests whose first `requests`
    /// cover most of its duration (`Dense` excepted, see there).
    ///
    /// `Ali` and `Msrc` scale the presets' intensity (their own knob for
    /// bounding request counts) so the whole multi-day corpus holds about
    /// 1.35 × `requests`: measured totals are 4.7–5.2 × 10⁸ × intensity for
    /// `Ali` and 1.1–1.6 × 10⁸ for `Msrc`. The first `requests` of a far
    /// denser corpus would be its first few hours, where which volumes
    /// happen to burst decides cost and memory (same spreads as above).
    fn generator(self, seed: u64, requests: u64) -> CorpusGenerator {
        let n = requests as f64;
        let shaped = match self {
            Shape::Ali => presets::alicloud_like(
                &CorpusConfig::new(128, 4, SHAPE_SEED).with_intensity_scale(n * 2.8e-9),
            ),
            Shape::Msrc => presets::msrc_like(
                &CorpusConfig::new(36, 7, SHAPE_SEED).with_intensity_scale(n * 1.2e-8),
            ),
            Shape::Dense => presets::alicloud_like(
                &CorpusConfig::new(128, 0, SHAPE_SEED)
                    .with_extra_hours(1)
                    .with_intensity_scale(8.0),
            ),
        };
        let profiles = shaped
            .profiles()
            .iter()
            .map(|profile| {
                let mut profile = profile.clone();
                profile.seed ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                profile
            })
            .collect();
        CorpusGenerator::new(profiles).expect("a reseeded profile stays valid")
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Cbt,
    AliCsv,
    MsrcCsv,
}

/// One input file of a workload.
#[derive(Debug, Clone, Copy)]
struct Input {
    shape: Shape,
    format: Format,
    file: &'static str,
}

fn inputs(workload: Workload) -> Vec<Input> {
    let input = |shape, format, file| Input {
        shape,
        format,
        file,
    };
    match workload {
        Workload::AliStream | Workload::SweepExact | Workload::SweepSampled => {
            vec![input(Shape::Ali, Format::Cbt, "input.cbt")]
        }
        Workload::MsrcStream => vec![input(Shape::Msrc, Format::Cbt, "input.cbt")],
        Workload::ReplayNull => vec![input(Shape::Dense, Format::Cbt, "input.cbt")],
        Workload::CsvConvert => vec![
            input(Shape::Ali, Format::AliCsv, "ali.csv"),
            input(Shape::Msrc, Format::MsrcCsv, "msrc.csv"),
        ],
    }
}

/// What the generator put into one input file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Written {
    pub requests: u64,
    pub bytes: u64,
    /// Order-sensitive fold of every column. MSRC CSV names volumes and
    /// the decoder numbers them by first appearance, so that format
    /// leaves the volume column out.
    pub checksum: u64,
}

impl Written {
    fn push(&mut self, req: &IoRequest, with_volume: bool) {
        let volume = if with_volume { req.volume().get() } else { 0 };
        for field in [
            u64::from(volume),
            u64::from(req.is_write()),
            req.offset(),
            u64::from(req.len()),
            req.ts().as_micros(),
        ] {
            self.checksum = (self.checksum ^ field).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.requests += 1;
        self.bytes += u64::from(req.len());
    }
}

fn write_input(
    format: Format,
    path: &Path,
    requests: impl Iterator<Item = IoRequest>,
) -> Result<Written, String> {
    let fail = |e: &dyn std::fmt::Display| format!("write {}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(|e| fail(&e))?);
    let mut written = Written::default();
    match format {
        Format::Cbt => {
            let mut writer = CbtWriter::new(out);
            for req in requests {
                writer.write_request(&req).map_err(|e| fail(&e))?;
                written.push(&req, true);
            }
            out = writer.finish().map_err(|e| fail(&e))?;
        }
        Format::AliCsv => {
            for req in requests {
                writeln!(out, "{}", alicloud::format_record(&req)).map_err(|e| fail(&e))?;
                written.push(&req, true);
            }
        }
        Format::MsrcCsv => {
            for req in requests {
                let host = format!("host{}", req.volume().get());
                let row = msrc::format_record(&req, &host, 0, TimeDelta::from_micros(100));
                writeln!(out, "{row}").map_err(|e| fail(&e))?;
                written.push(&req, false);
            }
        }
    }
    out.flush().map_err(|e| fail(&e))?;
    Ok(written)
}

/// Generates the inputs of `workload` into `dir`: `requests` requests,
/// split evenly over the workload's input files, all drawn from `seed`.
///
/// Errors if a corpus runs dry before its share: no workload may come up
/// short for some seeds and not others.
pub fn generate(
    workload: Workload,
    seed: u64,
    requests: u64,
    dir: &Path,
) -> Result<Vec<Written>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let inputs = inputs(workload);
    let share = requests / inputs.len() as u64;
    inputs
        .iter()
        .map(|input| {
            let stream = input
                .shape
                .generator(seed, share)
                .stream()
                .take(share as usize);
            let written = write_input(input.format, &dir.join(input.file), stream)?;
            if written.requests != share {
                return Err(format!(
                    "{}: corpus for seed {seed} ran dry at {} of {share} requests",
                    input.file, written.requests
                ));
            }
            Ok(written)
        })
        .collect()
}

/// The verify stage: generates a small corpus of `requests` requests into
/// `dir`, runs the workload's own pass over it, and compares the output
/// with a reference computed another way (batch analysis, `CacheSim`,
/// the generator's own counts).
pub fn verify(
    workload: Workload,
    seed: u64,
    requests: u64,
    threads: usize,
    dir: &Path,
) -> Result<(), String> {
    let written = generate(workload, seed, requests, dir)?;
    let corpus = |index: usize| -> Vec<IoRequest> {
        inputs(workload)[index]
            .shape
            .generator(seed, written[index].requests)
            .stream()
            .take(written[index].requests as usize)
            .collect()
    };
    let input = dir.join("input.cbt");
    let mut probe = Probe::new(false);
    let check = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("verify {}: {what}", workload.name()))
        }
    };
    match workload {
        Workload::AliStream | Workload::MsrcStream => {
            let out = stream_pass(&input, workers(threads), &mut probe);
            let reference = Workbench::new(Trace::from_requests(corpus(0))).analyze_with_threads(1);
            check(out.errors == 0, "decode or session error")?;
            check(out.observed == requests, "observed count differs")?;
            check(
                out.analysis.metrics() == reference.metrics(),
                "streaming metrics differ from the single-threaded batch analysis",
            )?;
            check(
                out.assessments == reference.assessments().len(),
                "assessment count differs",
            )
        }
        Workload::CsvConvert => {
            let out = convert_pass(dir, workers(threads), &mut probe);
            check(out.errors == 0, "decode or encode error")?;
            for (i, file) in ["ali.cbt", "msrc.cbt"].into_iter().enumerate() {
                let bytes = std::fs::read(dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
                let mut reader = CbtReader::new(&bytes[..]);
                let mut reread = Written::default();
                while let Some(batch) = reader.read_batch().map_err(|e| format!("{file}: {e}"))? {
                    for req in batch.iter() {
                        reread.push(&req, i == 0);
                    }
                }
                check(
                    reread == written[i] && out.records[i] == written[i].requests,
                    &format!("{file} re-read differs from what the generator wrote"),
                )?;
            }
            Ok(())
        }
        Workload::SweepExact | Workload::SweepSampled => {
            let sampled = workload == Workload::SweepSampled;
            let out = sweep_pass(&input, sampled, workers(threads), &mut probe);
            check(out.errors == 0, "decode error or poisoned sweep")?;
            check(out.report.requests() == requests, "request count differs")?;
            let corpus = corpus(0);
            for lane in out.report.lanes().iter().filter(|l| !l.sampled) {
                let policy = policy_by_name(&lane.policy, lane.capacity)
                    .ok_or_else(|| format!("unknown policy {}", lane.policy))?;
                let mut sim = CacheSim::new(policy, BlockSize::DEFAULT);
                sim.run(&corpus);
                check(
                    sim.stats() == lane.stats,
                    &format!(
                        "lane {}@{} differs from a fresh CacheSim",
                        lane.policy, lane.capacity
                    ),
                )?;
            }
            Ok(())
        }
        Workload::ReplayNull => {
            let out = replay_pass(&input, workers(threads), &mut probe);
            check(out.errors == 0, "source or backend error")?;
            let report = out.report.ok_or("verify replay_null: no report")?;
            let merged = &report.merged;
            check(
                merged.requests == written[0].requests,
                "request count differs",
            )?;
            check(merged.bytes == written[0].bytes, "byte count differs")?;
            check(
                merged.reads + merged.writes == merged.requests,
                "reads + writes differ from requests",
            )?;
            check(
                merged.achieved_offered_ratio() <= 1.0,
                "achieved/offered ratio above 1",
            )
        }
    }
}
