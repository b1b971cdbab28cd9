//! The six workloads: one timed pass each over input files written during
//! set-up. A pass calls only public functions of the program under test
//! and wraps each call in a span of the [`Probe`]; with the probe off it
//! reads no clock and attaches no `Registry`.

use std::fs::File;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;

use cbs_analysis::AnalysisConfig;
use cbs_cache::{LaneReport, SweepGrid, SweepReport, POLICY_NAMES};
use cbs_core::{Analysis, StreamingWorkbench};
use cbs_obs::{Registry, Stopwatch};
use cbs_replay::{CbtSliceRequests, LaneSet, MultiLaneReport, NullBackend, Timing};
use cbs_trace::codec::msrc::VolumeRegistry;
use cbs_trace::{
    CbtReader, CbtSliceReader, CbtWriter, IoRequest, Mmap, ParallelDecoder, RequestBatch, Trace,
};

use crate::catalog::WORKLOADS;
use crate::spans::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AliStream,
    MsrcStream,
    CsvConvert,
    SweepExact,
    SweepSampled,
    ReplayNull,
}

impl Workload {
    /// In the order of [`WORKLOADS`].
    pub const ALL: [Workload; 6] = [
        Workload::AliStream,
        Workload::MsrcStream,
        Workload::CsvConvert,
        Workload::SweepExact,
        Workload::SweepSampled,
        Workload::ReplayNull,
    ];

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests one pass consumes (`csv_convert`: lines over both
    /// dialects). Frozen: calibrated once on the 2-core reference host so
    /// a pass takes 0.3–0.7 s and twenty or more fit in one measured run
    /// (see README.md, "Sizes"). `--quick` sizes only smoke-test the harness.
    pub fn requests(self, quick: bool) -> u64 {
        if quick {
            return 100_000;
        }
        match self {
            Workload::AliStream => 1_000_000,
            Workload::MsrcStream => 500_000,
            Workload::CsvConvert => 2_000_000,
            Workload::SweepExact => 100_000,
            Workload::SweepSampled => 1_500_000,
            Workload::ReplayNull => 2_000_000,
        }
    }
}

/// Capacities (4 KiB blocks) of the all-exact grid of `sweep_exact`.
pub const EXACT_CAPACITIES: [usize; 2] = [4_096, 65_536];
/// Capacities of the headline grid of `sweep_sampled`.
pub const SAMPLED_CAPACITIES: [usize; 5] = [4_096, 16_384, 65_536, 262_144, 1_048_576];
/// `replay_null` compresses recorded time by this factor.
pub const REPLAY_MULTIPLIER: f64 = 1000.0;

/// What a traced pass attaches: the span recorder and the `Registry` the
/// layers publish their own counters into. Both off for untraced passes.
#[derive(Debug)]
pub struct Probe {
    pub spans: Recorder,
    pub registry: Option<Registry>,
}

impl Probe {
    pub fn new(traced: bool) -> Self {
        Probe {
            spans: Recorder::new(traced),
            registry: traced.then(Registry::new),
        }
    }

    fn counter_s(&self, name: &str) -> f64 {
        self.counter(name) / 1e9
    }

    fn counter(&self, name: &str) -> f64 {
        self.registry
            .as_ref()
            .map_or(0.0, |r| r.counter(name).get() as f64)
    }
}

/// What every pass reports, whatever the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PassResult {
    /// Requests the pass accounted for in its output.
    pub requests: u64,
    /// Malformed lines, corrupt blocks, poisoned sessions, backend errors.
    pub errors: u64,
    /// Hash of the pass's result; equal inputs must give equal digests.
    pub digest: u64,
    /// Per-layer metrics (traced passes only), names from `PER_LAYER`.
    pub layers: Vec<(String, f64)>,
}

/// What a pass produced. Boiled down to a [`PassResult`] only after the
/// caller has stopped its clock: hashing and ledger arithmetic are the
/// harness's work, not the program's.
pub trait Outcome {
    /// `(requests, errors, digest)` of [`PassResult`].
    fn summary(&self) -> (u64, u64, u64);
    /// The per-layer metrics of a traced pass.
    fn layers(&self, probe: &Probe) -> Vec<(String, f64)>;
}

impl dyn Outcome {
    pub fn result(&self, probe: &Probe) -> PassResult {
        let (requests, errors, digest) = self.summary();
        let layers = if probe.spans.enabled() {
            self.layers(probe)
        } else {
            Vec::new()
        };
        PassResult {
            requests,
            errors,
            digest,
            layers,
        }
    }
}

fn digest_of(value: &impl std::fmt::Debug) -> u64 {
    // DefaultHasher::new() uses fixed keys: stable from run to run.
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    format!("{value:?}").hash(&mut hasher);
    hasher.finish()
}

/// max ÷ mean of per-worker loads; 1.0 is a perfectly even split.
fn imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    let max = loads.iter().copied().max().unwrap_or(0);
    if total == 0 {
        0.0
    } else {
        max as f64 * loads.len() as f64 / total as f64
    }
}

/// Collects `(name, value)` pairs under the owned names a child reports.
fn layers(items: &[(&str, f64)]) -> Vec<(String, f64)> {
    items
        .iter()
        .map(|&(name, value)| (name.to_owned(), value))
        .collect()
}

/// Workers beside the driver thread: `threads − 1`, at least 1.
pub fn workers(threads: usize) -> usize {
    threads.saturating_sub(1).max(1)
}

/// Runs one pass of `workload` over the inputs in `dir`. Shards, sweep
/// workers, replay lanes and CSV parsers get [`workers`], so that with the
/// driver thread no pass keeps more than `threads` threads busy.
pub fn run_pass(
    workload: Workload,
    dir: &Path,
    threads: usize,
    probe: &mut Probe,
) -> Box<dyn Outcome> {
    let workers = workers(threads);
    let input = dir.join("input.cbt");
    match workload {
        Workload::AliStream | Workload::MsrcStream => Box::new(stream_pass(&input, workers, probe)),
        Workload::CsvConvert => Box::new(convert_pass(dir, workers, probe)),
        Workload::SweepExact => Box::new(sweep_pass(&input, false, workers, probe)),
        Workload::SweepSampled => Box::new(sweep_pass(&input, true, workers, probe)),
        Workload::ReplayNull => Box::new(replay_pass(&input, workers, probe)),
    }
}

// ---------------------------------------------------------------- stream

#[derive(Debug)]
pub struct StreamOut {
    pub analysis: Analysis,
    pub assessments: usize,
    pub observed: u64,
    pub errors: u64,
    shards: usize,
    /// `stream.backpressure_nanos` when the last batch had been routed;
    /// what `finish` adds while it flushes is not the router's.
    route_backpressure_s: f64,
}

/// CBT file → `Mmap` + `CbtSliceReader::read_batch_ref` →
/// `StreamingSession::observe_request_batch_ref` → `finish` →
/// `Analysis::from_parts` + every finding accessor + `assessments()`.
pub fn stream_pass(input: &Path, shards: usize, probe: &mut Probe) -> StreamOut {
    let map = probe
        .spans
        .span("trace.open", || Mmap::open(input))
        .expect("map input.cbt");
    let mut reader = CbtSliceReader::new(&map);
    let mut bench = StreamingWorkbench::new().with_shards(shards);
    if let Some(registry) = &probe.registry {
        reader = reader.with_registry(registry);
        bench = bench.with_registry(registry);
    }
    let mut session = probe.spans.span("core.start", || bench.start());
    let mut errors = 0;
    loop {
        let open = probe.spans.enter("trace.cbt_decode");
        let batch = reader.read_batch_ref();
        probe.spans.exit(open);
        match batch {
            Ok(Some(batch)) => probe
                .spans
                .span("core.route", || session.observe_request_batch_ref(batch)),
            Ok(None) => break,
            Err(_) => {
                errors += 1;
                break;
            }
        }
    }
    let observed = session.observed();
    errors += u64::from(session.is_poisoned());
    let route_backpressure_s = probe.counter_s("stream.backpressure_nanos");
    let metrics = probe.spans.span("core.finish", || session.finish());
    let (analysis, assessments) = probe.spans.span("report.findings", || {
        let analysis = Analysis::from_parts(Trace::new(), AnalysisConfig::default(), metrics)
            .expect("default config is valid");
        let assessments = findings(&analysis);
        (analysis, assessments)
    });
    StreamOut {
        analysis,
        assessments,
        observed,
        errors,
        shards,
        route_backpressure_s,
    }
}

/// Reads every finding the way a report does; returns the verdict count.
fn findings(a: &Analysis) -> usize {
    black_box(a.totals());
    black_box(a.request_sizes());
    black_box(a.mean_sizes());
    black_box(a.active_days());
    black_box(a.write_read_ratios());
    black_box(a.intensity_series());
    black_box(a.overall_intensity());
    black_box(a.burstiness());
    black_box(a.interarrival_boxplots());
    black_box(a.activeness_series());
    black_box(a.active_periods());
    black_box(a.randomness());
    black_box(a.top_traffic(10));
    black_box(a.aggregation());
    black_box(a.rw_mostly());
    black_box(a.update_coverage());
    black_box(a.adjacency());
    black_box(a.update_intervals());
    black_box(a.update_interval_boxplots());
    black_box(a.interval_groups());
    black_box(a.lru_miss_ratios());
    black_box(a.assessments()).len()
}

impl Outcome for StreamOut {
    fn summary(&self) -> (u64, u64, u64) {
        let digest = digest_of(&(self.analysis.metrics(), self.assessments));
        (self.observed, self.errors, digest)
    }

    fn layers(&self, probe: &Probe) -> Vec<(String, f64)> {
        let route = probe.spans.total_s("core.route");
        let shard = |s: usize, what: &str| probe.counter(&format!("stream.shard{s}.{what}"));
        let loads: Vec<u64> = (0..self.shards)
            .map(|s| shard(s, "requests") as u64)
            .collect();
        let busy_ns: f64 = (0..self.shards).map(|s| shard(s, "analyze_nanos")).sum();
        layers(&[
            (
                "trace.cbt_decode_s",
                probe.spans.total_s("trace.cbt_decode"),
            ),
            ("trace.cbt_records", probe.counter("cbt.records")),
            ("trace.cbt_bytes", probe.counter("cbt.bytes")),
            ("core.route_s", route),
            (
                "core.backpressure_s",
                probe.counter_s("stream.backpressure_nanos"),
            ),
            ("core.route_self_s", route - self.route_backpressure_s),
            ("core.batches", probe.counter("stream.batches")),
            ("core.shard_imbalance", imbalance(&loads)),
            ("core.finish_s", probe.spans.total_s("core.finish")),
            ("analysis.observe_busy_s", busy_ns / 1e9),
            ("analysis.ns_per_req", busy_ns / self.observed.max(1) as f64),
            ("analysis.volumes", self.analysis.metrics().len() as f64),
            ("report.findings_s", probe.spans.total_s("report.findings")),
        ])
    }
}

// --------------------------------------------------------------- convert

#[derive(Debug, Default)]
pub struct ConvertOut {
    /// Records written to `ali.cbt` and `msrc.cbt`.
    pub records: [u64; 2],
    pub csv_bytes: u64,
    pub out_bytes: u64,
    pub errors: u64,
}

const DECODE_SPANS: [&str; 2] = ["trace.csv_decode.ali", "trace.csv_decode.msrc"];

/// The `cbs-convert` path: `ali.csv` then `msrc.csv` through the parallel
/// decoder's columnar sinks into `CbtWriter::write_batch` + `finish`.
///
/// The calling thread encodes what `parsers` threads decode; the decoder's
/// own feeder thread only reads the file and mostly waits.
pub fn convert_pass(dir: &Path, parsers: usize, probe: &mut Probe) -> ConvertOut {
    let mut out = ConvertOut::default();
    let mut decoder = ParallelDecoder::new().with_threads(parsers);
    if let Some(registry) = &probe.registry {
        decoder = decoder.with_registry(registry);
    }
    for (i, dialect) in ["ali", "msrc"].into_iter().enumerate() {
        let output_path = dir.join(format!("{dialect}.cbt"));
        let (input, output) = probe.spans.span("trace.open", || {
            (
                File::open(dir.join(format!("{dialect}.csv"))).expect("open csv input"),
                File::create(&output_path).expect("create cbt output"),
            )
        });
        out.csv_bytes += input.metadata().map_or(0, |m| m.len());
        let input = BufReader::new(input);
        let mut writer = CbtWriter::new(BufWriter::new(output));
        let mut written = 0u64;
        let mut write_failed = false;
        // The decode call's self time is the driver waiting for decoded
        // chunks; the sink's encode spans are its children.
        let decode = probe.spans.enter(DECODE_SPANS[i]);
        let spans = &mut probe.spans;
        let sink = |batch: RequestBatch| {
            let encode = spans.enter("trace.cbt_encode");
            match writer.write_batch(&batch) {
                Ok(()) => written += batch.len() as u64,
                Err(_) => write_failed = true,
            }
            spans.exit(encode);
        };
        let decoded = if i == 0 {
            decoder.decode_alicloud_batches(input, sink)
        } else {
            decoder.decode_msrc_batches(input, &mut VolumeRegistry::new(), sink)
        };
        probe.spans.exit(decode);
        let finished = probe.spans.span("trace.cbt_finish", || {
            let mut file = writer.finish().map_err(|e| e.to_string())?;
            file.flush().map_err(|e| e.to_string())
        });
        out.errors +=
            u64::from(decoded.is_err()) + u64::from(write_failed) + u64::from(finished.is_err());
        out.records[i] = written;
        out.out_bytes += std::fs::metadata(&output_path).map_or(0, |m| m.len());
    }
    out
}

impl Outcome for ConvertOut {
    fn summary(&self) -> (u64, u64, u64) {
        let digest = digest_of(&(self.records, self.out_bytes));
        (self.records.iter().sum(), self.errors, digest)
    }

    fn layers(&self, probe: &Probe) -> Vec<(String, f64)> {
        let spans = &probe.spans;
        let decode_calls: f64 = DECODE_SPANS.iter().map(|name| spans.total_s(name)).sum();
        layers(&[
            ("trace.csv_decode_wait_s.ali", spans.self_s(DECODE_SPANS[0])),
            (
                "trace.csv_decode_wait_s.msrc",
                spans.self_s(DECODE_SPANS[1]),
            ),
            (
                "trace.csv_mb_per_s",
                self.csv_bytes as f64 / 1e6 / decode_calls,
            ),
            ("trace.csv_records", probe.counter("decode.records")),
            ("trace.cbt_encode_s", spans.total_s("trace.cbt_encode")),
            ("trace.cbt_finish_s", spans.total_s("trace.cbt_finish")),
            ("trace.cbt_out_bytes", self.out_bytes as f64),
            ("trace.malformed_lines", self.errors as f64),
        ])
    }
}

// ----------------------------------------------------------------- sweep

/// `sweep_exact`: every policy at [`EXACT_CAPACITIES`], all exact lanes.
/// `sweep_sampled`: LRU exact on the collapsed stack lane, the other six
/// policies SHARDS-sampled at [`SAMPLED_CAPACITIES`], plus the sampled MRC.
pub fn sweep_grid(sampled: bool, workers: usize) -> SweepGrid {
    let mut grid = SweepGrid::new().with_workers(workers);
    if !sampled {
        return grid
            .grid(POLICY_NAMES, &EXACT_CAPACITIES)
            .expect("known policies");
    }
    for &name in POLICY_NAMES {
        for &capacity in &SAMPLED_CAPACITIES {
            grid = if name == "lru" {
                grid.policy(name, capacity)
            } else {
                grid.sampled_policy(name, capacity)
            }
            .expect("known policy");
        }
    }
    grid.with_sampled_mrc()
}

#[derive(Debug)]
pub struct SweepOut {
    pub report: SweepReport,
    pub errors: u64,
}

/// CBT file → `CbtReader::read_batch` → `CacheSweep::observe_batch` →
/// `finish`.
pub fn sweep_pass(input: &Path, sampled: bool, workers: usize, probe: &mut Probe) -> SweepOut {
    let map = probe
        .spans
        .span("trace.open", || Mmap::open(input))
        .expect("map input.cbt");
    let mut reader = CbtReader::new(map.as_slice());
    let mut grid = sweep_grid(sampled, workers);
    if let Some(registry) = &probe.registry {
        reader = reader.with_registry(registry);
        grid = grid.with_registry(registry);
    }
    let mut sweep = probe.spans.span("cache.start", || grid.start());
    let mut errors = 0;
    loop {
        match probe.spans.span("trace.cbt_decode", || reader.read_batch()) {
            Ok(Some(batch)) => probe
                .spans
                .span("cache.observe", || sweep.observe_batch(&batch)),
            Ok(None) => break,
            Err(_) => {
                errors += 1;
                break;
            }
        }
    }
    errors += u64::from(sweep.is_poisoned());
    let report = probe.spans.span("cache.finish", || sweep.finish());
    SweepOut { report, errors }
}

impl Outcome for SweepOut {
    fn summary(&self) -> (u64, u64, u64) {
        let report = &self.report;
        let grid: Vec<_> = report
            .lanes()
            .iter()
            .map(|l| (&l.policy, l.capacity, l.sampled, l.stats))
            .collect();
        let digest = digest_of(&(grid, report.accesses(), report.sampled_accesses()));
        (report.requests(), self.errors, digest)
    }

    fn layers(&self, probe: &Probe) -> Vec<(String, f64)> {
        // The collapsed LRU stack lane reports its one time (and its one
        // access count) on each of its capacities: count it once.
        let per_policy = |policy: &str, field: fn(&LaneReport) -> u64| -> u64 {
            let lanes = self.report.lanes().iter();
            let values = lanes.filter(|l| l.policy == policy).map(field);
            if policy == "lru" {
                values.max().unwrap_or(0)
            } else {
                values.sum()
            }
        };
        let busy_ns = |policy: &str| per_policy(policy, |l| l.nanos);
        let all_busy_ns: u64 = POLICY_NAMES.iter().map(|p| busy_ns(p)).sum();
        let all_accesses: u64 = POLICY_NAMES
            .iter()
            .map(|p| per_policy(p, |l| l.accesses))
            .sum();
        let physical_lanes = probe
            .registry
            .as_ref()
            .map_or(0, |r| r.gauge("sweep.lanes").get());
        let mut out = layers(&[
            (
                "trace.cbt_decode_s",
                probe.spans.total_s("trace.cbt_decode"),
            ),
            ("trace.cbt_records", probe.counter("cbt.records")),
            ("trace.cbt_bytes", probe.counter("cbt.bytes")),
            ("cache.observe_s", probe.spans.total_s("cache.observe")),
            ("cache.expand_s", self.report.expand_nanos() as f64 / 1e9),
            (
                "cache.backpressure_s",
                probe.counter_s("sweep.backpressure_nanos"),
            ),
            ("cache.finish_s", probe.spans.total_s("cache.finish")),
            ("cache.accesses", self.report.accesses() as f64),
            (
                "cache.sampled_accesses",
                self.report.sampled_accesses() as f64,
            ),
            ("cache.lanes", physical_lanes as f64),
            (
                "cache.ns_per_lane_access",
                all_busy_ns as f64 / all_accesses.max(1) as f64,
            ),
        ]);
        out.extend(POLICY_NAMES.iter().map(|policy| {
            (
                format!("cache.lane_busy_s.{policy}"),
                busy_ns(policy) as f64 / 1e9,
            )
        }));
        out
    }
}

// ---------------------------------------------------------------- replay

/// Adapts the fallible CBT request stream to the infallible one
/// `LaneSet::run` takes: a corrupt block ends the stream and is counted.
/// When traced, times every `next` — the source layer's busy time.
struct Source<'a> {
    inner: CbtSliceRequests<'a>,
    timed: bool,
    nanos: u64,
    errors: u64,
}

impl Iterator for Source<'_> {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        let clock = self.timed.then(Stopwatch::start);
        let item = self.inner.next();
        if let Some(clock) = clock {
            self.nanos += clock.elapsed_nanos();
        }
        match item? {
            Ok(req) => Some(req),
            Err(_) => {
                self.errors += 1;
                None
            }
        }
    }
}

#[derive(Debug)]
pub struct ReplayOut {
    /// `None` when a backend call failed.
    pub report: Option<MultiLaneReport>,
    pub source_nanos: u64,
    pub errors: u64,
}

/// CBT file → `CbtSliceRequests` → `LaneSet<NullBackend>` at
/// ×[`REPLAY_MULTIPLIER`], identity remap.
pub fn replay_pass(input: &Path, lanes: usize, probe: &mut Probe) -> ReplayOut {
    let map = probe
        .spans
        .span("trace.open", || Mmap::open(input))
        .expect("map input.cbt");
    let mut source = Source {
        inner: CbtSliceRequests::new(CbtSliceReader::new(&map)),
        timed: probe.spans.enabled(),
        nanos: 0,
        errors: 0,
    };
    let timing = Timing::multiplier(REPLAY_MULTIPLIER).expect("multiplier in range");
    let mut set = LaneSet::new(lanes, |_| NullBackend::new()).with_timing(timing);
    if let Some(registry) = &probe.registry {
        set = set.with_registry(registry);
    }
    let report = probe.spans.span("replay.run", || set.run(&mut source));
    ReplayOut {
        errors: source.errors + u64::from(report.is_err()),
        report: report.ok(),
        source_nanos: source.nanos,
    }
}

impl Outcome for ReplayOut {
    fn summary(&self) -> (u64, u64, u64) {
        let Some(report) = &self.report else {
            return (0, self.errors, 0);
        };
        let m = &report.merged;
        let digest = digest_of(&(m.requests, m.bytes, m.reads, m.writes, m.offered_nanos));
        (m.requests, self.errors, digest)
    }

    fn layers(&self, probe: &Probe) -> Vec<(String, f64)> {
        let Some(report) = &self.report else {
            return Vec::new();
        };
        let merged = &report.merged;
        let loads: Vec<u64> = report.per_lane.iter().map(|l| l.requests).collect();
        layers(&[
            ("replay.source_s", self.source_nanos as f64 / 1e9),
            ("replay.run_s", probe.spans.total_s("replay.run")),
            (
                "replay.feed_backpressure_s",
                report.feed_backpressure_nanos as f64 / 1e9,
            ),
            ("replay.lane_backend_s", merged.backend.sum as f64 / 1e9),
            ("replay.sleep_s", merged.slept_nanos as f64 / 1e9),
            ("replay.lane_imbalance", imbalance(&loads)),
            ("replay.backend_errors", self.errors as f64),
            ("replay.issue_lag_p50_us", merged.issue_lag.p50 as f64 / 1e3),
            ("replay.issue_lag_p99_us", merged.issue_lag.p99 as f64 / 1e3),
            (
                "replay.achieved_offered_ratio",
                merged.achieved_offered_ratio(),
            ),
        ])
    }
}
