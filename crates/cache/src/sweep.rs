//! Single-pass policy × capacity sweeps: [`SweepGrid`], [`CacheSweep`]
//! and [`SweepReport`].
//!
//! [`crate::CacheSim`] answers one `(policy, capacity)` pair per trace
//! traversal, so a Fig. 18-style grid of 6 policies × 5 capacities
//! costs 30 decode passes and 30 redundant request → block expansions.
//! The sweep engine drives the whole grid from **one** traversal:
//!
//! ```text
//! producer (caller thread)               lanes
//! ┌──────────────────────────┐      ┌─────────────────────────────┐
//! │ RequestBatch             │      │ lru stack lane              │
//! │  └ BlockSize::span per   │      │  one BlockStack pass over   │
//! │    request, numbered     │ ───► │  the numbered runs, a stack │
//! │    ONCE: runs of         │ Arc< │  touch per RUN → exact      │
//! │    consecutive BlockNos  │ Sweep│  stats at EVERY lru         │
//! │    (first no, count, op),│ Col> │  capacity (Mattson)         │
//! │    no per-block column   │      ├─────────────────────────────┤
//! │  └ SHARDS sample filter  │      │ boxed policy lanes          │
//! │    (hashed ONCE) →       │      │  fifo/clock/lfu/arc/slru/2q │
//! │    sampled (block, op)   │      │  exact: walk the numbered   │
//! │    + its own numbering   │      │    runs                     │
//! └──────────────────────────┘      │  sampled: walk the pairs    │
//!       │ bounded channels          ├─────────────────────────────┤
//!       ▼ (when workers > 0)        │ sampled MRC lane            │
//!   worker threads, each            │  (approximate LRU curve,    │
//!   processing a lane subset        │   numbering its own blocks) │
//!                                   └─────────────────────────────┘
//! ```
//!
//! Four mechanisms carry the speedup (measured in `BENCH_cache.json`):
//!
//! * the trace is generated/decoded **once**, not once per pair;
//! * each batch is reduced **once** — one block span per request,
//!   numbered into runs — and the SHARDS filter is hashed once; every
//!   lane shares that column, and exact lanes enumerate a run's
//!   numbers as they go;
//! * each block is **numbered once**, on the producer: a
//!   [`BlockNumbering`] gives it a dense first-touch [`BlockNo`] (one
//!   hash probe per 16-block chunk of a span), so every exact lane —
//!   the LRU stack lane and every policy lane — finds its block's state
//!   with one array load instead of its own hash probe per block.
//!   Spans enter the column as runs of consecutive numbers (12 bytes a
//!   run; a span first touched together stays one run), whenever any
//!   exact lane runs; sampled blocks get a numbering of their own, so
//!   sampled lanes' indexes stay ~`rate` of the distinct blocks;
//! * all exact-LRU lanes collapse into a **single**
//!   [`crate::BlockStack`] pass — by the Mattson stack property, an
//!   access hits an LRU cache of capacity `c` iff its reuse distance is
//!   `< c`, so one op-split distance histogram answers every capacity
//!   with stats bit-identical to a per-capacity [`crate::CacheSim`];
//!   the stack is touched once per run of blocks last touched
//!   together, not once per block.
//!
//! Non-stack policies still pay one policy-state update per access per
//! lane; the SHARDS-sampled mode ([`SweepGrid::sampled_policy`]) cuts
//! that to ~`rate` of the accesses by simulating a miniature cache of
//! `capacity × rate` blocks over the spatially-sampled substream
//! (Waldspurger et al., FAST'15 / ATC'17), trading bounded error for
//! ~1/rate cost.
//!
//! When worker threads are configured ([`SweepGrid::with_workers`]),
//! lanes are dealt round-robin to a [`WorkerSet`] and every column is
//! broadcast to each worker; with zero workers the same lane code runs
//! inline on the caller thread — the sequential fallback is the same
//! code path.
//!
//! Like [`crate::CacheSim`], the engine ignores the volume column: all
//! accesses share one unified cache. Per-volume sweeps feed per-volume
//! streams (see `Analysis::sweep_volume` in `cbs-core`).

use std::sync::mpsc::Receiver;
use std::sync::Arc;

use cbs_obs::{Registry, Stopwatch};
use cbs_trace::workers::{Gone, WorkerSet};
use cbs_trace::{BlockId, BlockSize, IoRequest, OpKind, RequestBatch};

use crate::numbering::{run_numbers, BlockNo, BlockNumbering};
use crate::policy::{policy_by_name, CachePolicy, POLICY_NAMES};
use crate::reuse::{count_distance, shards_hash, BlockStack, ShardsSampler};
use crate::sim::CacheStats;
use crate::MissRatioCurve;

/// Default requests buffered by [`CacheSweep::observe_request`] before
/// a batch is expanded and dispatched — matches the streaming
/// pipeline's batch size.
pub const DEFAULT_SWEEP_BATCH: usize = 8192;

/// Default in-flight columns allowed per worker channel.
const CHANNEL_DEPTH: usize = 4;

/// Default SHARDS sampling rate for sampled lanes: ~1/100 cost.
pub const DEFAULT_SAMPLE_RATE: f64 = 0.01;

/// A sweep-grid configuration error.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The policy name is not one of [`POLICY_NAMES`].
    UnknownPolicy(String),
    /// Lane capacities must be non-zero.
    ZeroCapacity,
    /// The sampling rate must be in `(0, 1]`.
    InvalidRate(f64),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownPolicy(name) => {
                write!(
                    f,
                    "unknown policy {name:?}; expected one of {POLICY_NAMES:?}"
                )
            }
            SweepError::ZeroCapacity => write!(f, "cache capacity must be non-zero"),
            SweepError::InvalidRate(rate) => {
                write!(f, "sampling rate must be in (0, 1], got {rate}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// One boxed-policy lane requested of the builder.
#[derive(Debug, Clone)]
struct BoxedSpec {
    name: String,
    capacity: usize,
    sampled: bool,
}

/// Builder for a policy × capacity sweep — see the [module
/// docs](self) for the architecture.
///
/// # Example
///
/// ```
/// use cbs_cache::sweep::SweepGrid;
/// use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};
///
/// // Two rounds over 64 blocks: everything but the cold misses hits
/// // any capacity ≥ 64.
/// let reqs: Vec<IoRequest> = (0..2000u64)
///     .map(|i| IoRequest::new(
///         VolumeId::new(0),
///         if i % 3 == 0 { OpKind::Read } else { OpKind::Write },
///         (i % 64) * 4096,
///         4096,
///         Timestamp::from_micros(i),
///     ))
///     .collect();
/// let mut sweep = SweepGrid::new()
///     .lru_capacity(8).unwrap()
///     .lru_capacity(64).unwrap()
///     .policy("fifo", 64).unwrap()
///     .start();
/// sweep.run(reqs.iter().copied());
/// let report = sweep.finish();
/// assert_eq!(report.lanes().len(), 3);
/// let full = report.stats("lru", 64).expect("exact lane present");
/// assert_eq!(full.total_accesses(), 2000);
/// assert_eq!(full.read_hits() + full.write_hits(), 2000 - 64);
/// assert!(report.lru_mrc().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SweepGrid {
    block_size: BlockSize,
    lru_capacities: Vec<usize>,
    boxed: Vec<BoxedSpec>,
    sampled_mrc: bool,
    rate: f64,
    workers: usize,
    batch_size: usize,
    registry: Option<Registry>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepGrid {
    /// Creates an empty grid: 4 KiB blocks, the default sampling rate,
    /// one worker thread per spare core (zero on a single-core host —
    /// the sequential fallback), and the default batch size.
    pub fn new() -> Self {
        SweepGrid {
            block_size: BlockSize::DEFAULT,
            lru_capacities: Vec::new(),
            boxed: Vec::new(),
            sampled_mrc: false,
            rate: DEFAULT_SAMPLE_RATE,
            workers: std::thread::available_parallelism().map_or(0, |n| n.get().saturating_sub(1)),
            batch_size: DEFAULT_SWEEP_BATCH,
            registry: None,
        }
    }

    /// Sets the block unit requests are decomposed into.
    #[must_use]
    pub fn with_block_size(mut self, block_size: BlockSize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Adds an exact LRU lane at `capacity` blocks. All LRU capacities
    /// collapse into one stack pass.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::ZeroCapacity`] if `capacity` is zero.
    pub fn lru_capacity(mut self, capacity: usize) -> Result<Self, SweepError> {
        if capacity == 0 {
            return Err(SweepError::ZeroCapacity);
        }
        self.lru_capacities.push(capacity);
        Ok(self)
    }

    /// Adds an exact lane simulating `name` (any of [`POLICY_NAMES`])
    /// at `capacity` blocks. `"lru"` routes to the collapsed stack lane.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::UnknownPolicy`] or
    /// [`SweepError::ZeroCapacity`].
    pub fn policy(mut self, name: &str, capacity: usize) -> Result<Self, SweepError> {
        if capacity == 0 {
            return Err(SweepError::ZeroCapacity);
        }
        if name == "lru" {
            return self.lru_capacity(capacity);
        }
        if !POLICY_NAMES.contains(&name) {
            return Err(SweepError::UnknownPolicy(name.to_owned()));
        }
        self.boxed.push(BoxedSpec {
            name: name.to_owned(),
            capacity,
            sampled: false,
        });
        Ok(self)
    }

    /// Adds a SHARDS-sampled lane for `name` at `capacity` blocks: a
    /// miniature cache of `capacity × rate` blocks simulated over the
    /// spatially-sampled substream. Its miss *ratios* estimate the
    /// exact lane's within a small error at ~`rate` of the cost; its
    /// raw access counts cover only the sampled substream.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::UnknownPolicy`] or
    /// [`SweepError::ZeroCapacity`].
    pub fn sampled_policy(mut self, name: &str, capacity: usize) -> Result<Self, SweepError> {
        if capacity == 0 {
            return Err(SweepError::ZeroCapacity);
        }
        if !POLICY_NAMES.contains(&name) {
            return Err(SweepError::UnknownPolicy(name.to_owned()));
        }
        self.boxed.push(BoxedSpec {
            name: name.to_owned(),
            capacity,
            sampled: true,
        });
        Ok(self)
    }

    /// Adds every `(name, capacity)` pair of the cross product as an
    /// exact lane — the whole Fig. 18-style grid in one call.
    ///
    /// # Errors
    ///
    /// Returns the first per-lane error (unknown name, zero capacity).
    pub fn grid(mut self, names: &[&str], capacities: &[usize]) -> Result<Self, SweepError> {
        for &name in names {
            for &capacity in capacities {
                self = self.policy(name, capacity)?;
            }
        }
        Ok(self)
    }

    /// Adds a SHARDS-sampled LRU miss-ratio-curve lane
    /// ([`SweepReport::sampled_mrc`]), the approximate counterpart of
    /// the exact stack lane's curve.
    #[must_use]
    pub fn with_sampled_mrc(mut self) -> Self {
        self.sampled_mrc = true;
        self
    }

    /// Sets the SHARDS sampling rate used by every sampled lane
    /// (default [`DEFAULT_SAMPLE_RATE`]).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::InvalidRate`] unless `0 < rate <= 1`.
    pub fn with_sample_rate(mut self, rate: f64) -> Result<Self, SweepError> {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(SweepError::InvalidRate(rate));
        }
        self.rate = rate;
        Ok(self)
    }

    /// Sets the number of lane worker threads. Zero runs every lane
    /// inline on the caller thread (the sequential fallback — same lane
    /// code, no channels).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets how many requests [`CacheSweep::observe_request`] buffers
    /// before expanding and dispatching a batch (min 1).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Publishes engine metrics into `registry`: `sweep.batches`,
    /// `sweep.accesses`, `sweep.sampled_accesses`,
    /// `sweep.expand_nanos` (shared-expansion time),
    /// `sweep.backpressure_nanos` counters during the run, plus
    /// `sweep.lanes`, `sweep.sampled_ppm` (sampled fraction in parts
    /// per million) and per-lane `sweep.lane.<label>.accesses` /
    /// `.nanos` gauges at [`CacheSweep::finish`].
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// The configured sampling rate.
    pub fn sample_rate(&self) -> f64 {
        self.rate
    }

    /// Number of physical lanes the grid will run: one collapsed stack
    /// lane for all LRU capacities, one per boxed policy pair, plus the
    /// sampled-MRC lane if requested.
    pub fn lane_count(&self) -> usize {
        usize::from(!self.lru_capacities.is_empty())
            + self.boxed.len()
            + usize::from(self.sampled_mrc)
    }

    /// Spawns the workers (if any) and returns the running sweep.
    #[expect(
        clippy::unreachable,
        reason = "policy names are validated against POLICY_NAMES at insertion"
    )]
    pub fn start(self) -> CacheSweep {
        // The sampled-MRC lane and every sampled policy lane consume
        // the engine's one spatial filter pass over each column; exact
        // lanes (the stack lane too) and sampled policy lanes consume
        // the blocks' numbers.
        let exact_lanes =
            !self.lru_capacities.is_empty() || self.boxed.iter().any(|spec| !spec.sampled);
        let sampled_policies = self.boxed.iter().any(|spec| spec.sampled);
        let need_sampled = self.sampled_mrc || sampled_policies;
        let mut lanes: Vec<TimedLane> = Vec::with_capacity(self.lane_count());
        let mut index = 0usize;
        if !self.lru_capacities.is_empty() {
            lanes.push(TimedLane::new(
                index,
                "lru.stack".to_owned(),
                Box::new(StackLane::new(self.lru_capacities.clone())),
            ));
            index += 1;
        }
        for spec in &self.boxed {
            let capacity = if spec.sampled {
                mini_capacity(spec.capacity, self.rate)
            } else {
                spec.capacity
            };
            let Some(policy) = policy_by_name(&spec.name, capacity) else {
                unreachable!("validated policy name {:?} rejected", spec.name)
            };
            let label = if spec.sampled {
                format!("{}@{}.sampled", spec.name, spec.capacity)
            } else {
                format!("{}@{}", spec.name, spec.capacity)
            };
            lanes.push(TimedLane::new(
                index,
                label,
                Box::new(BoxedLane {
                    policy,
                    name: spec.name.clone(),
                    capacity: spec.capacity,
                    sampled: spec.sampled,
                    accesses: [0, 0],
                    hits: [0, 0],
                }),
            ));
            index += 1;
        }
        if self.sampled_mrc {
            lanes.push(TimedLane::new(
                index,
                "lru.mrc.sampled".to_owned(),
                Box::new(SampledMrcLane {
                    sampler: ShardsSampler::new(self.rate),
                }),
            ));
        }

        // Never spawn more workers than lanes; with zero workers every
        // lane runs inline on the caller thread (same code path).
        let workers = self.workers.min(lanes.len());
        let mut local = Vec::new();
        let mut per_worker: Vec<Vec<TimedLane>> = (0..workers).map(|_| Vec::new()).collect();
        if workers == 0 {
            local = lanes;
        } else {
            for (i, lane) in lanes.into_iter().enumerate() {
                per_worker[i % workers].push(lane);
            }
        }
        let pool = WorkerSet::spawn(
            CHANNEL_DEPTH,
            per_worker
                .into_iter()
                .map(|worker_lanes| move |rx| lane_worker(rx, worker_lanes)),
        );

        let metrics = self.registry.as_ref().map(SweepMetrics::new);
        CacheSweep {
            source: ColumnSource {
                block_size: self.block_size,
                threshold: need_sampled.then(|| ShardsSampler::threshold_for(self.rate)),
                numbers: exact_lanes.then(BlockNumbering::new),
                sampled_numbers: sampled_policies.then(BlockNumbering::new),
            },
            rate: self.rate,
            buffer: RequestBatch::with_capacity(self.batch_size),
            batch_size: self.batch_size,
            pool,
            local,
            requests: 0,
            accesses: 0,
            sampled_accesses: 0,
            expand_nanos: 0,
            metrics,
            registry: self.registry,
        }
    }

    /// Convenience: runs a whole request stream through the grid and
    /// returns the report.
    pub fn sweep<I: IntoIterator<Item = IoRequest>>(self, stream: I) -> SweepReport {
        let mut sweep = self.start();
        sweep.run(stream);
        sweep.finish()
    }
}

/// The miniature-simulation capacity for a sampled lane: the requested
/// capacity scaled by the sampling rate, at least one block.
fn mini_capacity(capacity: usize, rate: f64) -> usize {
    (((capacity as f64) * rate).round() as usize).max(1)
}

/// What the producer carries from batch to batch to build columns,
/// each part derived from the grid at [`SweepGrid::start`].
#[derive(Debug)]
struct ColumnSource {
    block_size: BlockSize,
    /// The SHARDS spatial-filter threshold, if any lane is sampled.
    threshold: Option<u64>,
    /// Numbers the spans' blocks, if an exact lane runs.
    numbers: Option<BlockNumbering>,
    /// Numbers the sampled blocks, if a sampled policy lane runs.
    sampled_numbers: Option<BlockNumbering>,
}

/// One shared unit of work: a batch's block accesses as runs of
/// consecutive block numbers — `(first number, count, op)`, in access
/// order — for the exact lanes, and the accesses passing the SHARDS
/// spatial filter (hashed once, used by every sampled lane) with their
/// numbers. No per-block column is built: exact lanes walk the runs,
/// sampled lanes the pairs.
#[derive(Debug, Default)]
struct SweepColumn {
    /// Block accesses of the batch's requests.
    accesses: u64,
    /// The accesses by number. Empty unless an exact lane runs.
    runs: Vec<(BlockNo, u32, OpKind)>,
    sampled: Vec<(BlockId, OpKind)>,
    /// `sampled`'s blocks by number, pair by pair. Empty unless a
    /// sampled policy lane runs.
    sampled_numbers: Vec<BlockNo>,
}

impl SweepColumn {
    /// Reduces `batch` to its block spans — [`BlockSize::span`] per
    /// request, so a range reaching past the end of the address space
    /// arrives clamped — numbers their blocks if `source` keeps a
    /// numbering, and, given a SHARDS threshold, collects the accesses
    /// whose block hashes at or below it (numbered too, if `source`
    /// keeps a numbering for them).
    fn build(batch: &RequestBatch, source: &mut ColumnSource) -> Self {
        let mut column = SweepColumn::default();
        if source.numbers.is_some() {
            column.runs.reserve(batch.len());
        }
        let requests = batch.offsets().iter().zip(batch.lens());
        for ((&offset, &len), &op) in requests.zip(batch.ops()) {
            let span = source.block_size.span(offset, len);
            let Some(first) = span.first() else {
                continue; // zero-length: touches no block
            };
            column.accesses += span.remaining();
            if let Some(numbers) = &mut source.numbers {
                let runs = &mut column.runs;
                numbers.number_span(first, span.remaining(), |no, n| runs.push((no, n, op)));
            }
            if let Some(threshold) = source.threshold {
                for block in span.filter(|&block| shards_hash(block) <= threshold) {
                    column.sampled.push((block, op));
                    if let Some(numbers) = &mut source.sampled_numbers {
                        column.sampled_numbers.push(numbers.number(block));
                    }
                }
            }
        }
        column
    }
}

type Job = Arc<SweepColumn>;

/// A lane consumes shared columns and yields its results at the end.
trait Lane: Send {
    /// Processes one shared column, returning the accesses consumed.
    fn process(&mut self, job: &SweepColumn) -> u64;
    /// Finalizes the lane into reports and optional curves.
    fn finish(self: Box<Self>) -> LaneOutput;
}

/// What a finished lane hands back to the engine.
#[derive(Debug, Default)]
struct LaneOutput {
    reports: Vec<LaneReport>,
    lru_mrc: Option<MissRatioCurve>,
    sampled_mrc: Option<MissRatioCurve>,
}

/// A lane plus the engine-side bookkeeping (label, per-lane wall time
/// and access count — timed through `cbs-obs`'s [`Stopwatch`]).
struct TimedLane {
    index: usize,
    label: String,
    nanos: u64,
    accesses: u64,
    lane: Box<dyn Lane>,
}

impl std::fmt::Debug for TimedLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedLane")
            .field("index", &self.index)
            .field("label", &self.label)
            .field("nanos", &self.nanos)
            .field("accesses", &self.accesses)
            .finish_non_exhaustive()
    }
}

impl TimedLane {
    fn new(index: usize, label: String, lane: Box<dyn Lane>) -> Self {
        TimedLane {
            index,
            label,
            nanos: 0,
            accesses: 0,
            lane,
        }
    }

    fn process(&mut self, job: &SweepColumn) {
        let clock = Stopwatch::start();
        self.accesses += self.lane.process(job);
        self.nanos += clock.elapsed_nanos();
    }

    fn finish(self) -> FinishedLane {
        let mut output = self.lane.finish();
        for report in &mut output.reports {
            report.nanos = self.nanos;
            report.accesses = self.accesses;
        }
        FinishedLane {
            index: self.index,
            label: self.label,
            nanos: self.nanos,
            accesses: self.accesses,
            output,
        }
    }
}

/// A lane's final results, tagged for deterministic reassembly.
#[derive(Debug)]
struct FinishedLane {
    index: usize,
    label: String,
    nanos: u64,
    accesses: u64,
    output: LaneOutput,
}

/// Worker loop: drain the channel, then finalize the lanes.
fn lane_worker(rx: Receiver<Job>, mut lanes: Vec<TimedLane>) -> Vec<FinishedLane> {
    for job in rx {
        for lane in &mut lanes {
            lane.process(&job);
        }
    }
    lanes.into_iter().map(TimedLane::finish).collect()
}

/// The collapsed exact-LRU lane: one Mattson stack pass with op-split
/// histograms answers every LRU capacity bit-identically to a fresh
/// [`crate::CacheSim`]`<`[`crate::Lru`]`>` per capacity. It walks the
/// column's numbered runs; the [`BlockStack`] owns block positions,
/// runs and compaction, and the lane keeps what it reports, per op
/// kind (`[read, write]`).
#[derive(Debug)]
struct StackLane {
    capacities: Vec<usize>,
    blocks: BlockStack,
    /// Finite-distance histogram per op kind.
    hist: [Vec<u64>; 2],
    cold: [u64; 2],
    accesses: [u64; 2],
}

fn op_index(op: OpKind) -> usize {
    match op {
        OpKind::Read => 0,
        OpKind::Write => 1,
    }
}

impl StackLane {
    fn new(capacities: Vec<usize>) -> Self {
        StackLane {
            capacities,
            blocks: BlockStack::new(),
            hist: [Vec::new(), Vec::new()],
            cold: [0, 0],
            accesses: [0, 0],
        }
    }
}

impl Lane for StackLane {
    fn process(&mut self, job: &SweepColumn) -> u64 {
        let (hist, cold) = (&mut self.hist, &mut self.cold);
        // A retired stack run: `n` accesses of kind `op` at one reuse
        // distance (`None` = first touches).
        let mut record = |op: usize, distance: Option<u64>, n: usize| match distance {
            Some(distance) => count_distance(&mut hist[op], distance, n as u64),
            None => cold[op] += n as u64,
        };
        // A run reports once, to one op's tallies, so it must not cross
        // an op change: `op` is the op of whatever is pending.
        let mut op = 0;
        for &(first, n, run_op) in &job.runs {
            let run_op = op_index(run_op);
            self.accesses[run_op] += u64::from(n);
            if run_op != op {
                self.blocks.flush(|d, n| record(op, d, n));
                op = run_op;
            }
            self.blocks.touch_run(first, n, |d, n| record(op, d, n));
        }
        // Nothing stays pending between columns, and the flush is where
        // the stack compacts: memory stays O(distinct blocks) plus one
        // bit per access of a column.
        self.blocks.flush(|d, n| record(op, d, n));
        job.accesses
    }

    fn finish(self: Box<Self>) -> LaneOutput {
        // hits at capacity c = #{finite distances < c}, per op kind.
        let prefix = |hist: &[u64]| -> Vec<u64> {
            let mut acc = 0u64;
            let mut out = Vec::with_capacity(hist.len() + 1);
            out.push(0);
            for &count in hist {
                acc += count;
                out.push(acc);
            }
            out
        };
        let (reads, writes) = (prefix(&self.hist[0]), prefix(&self.hist[1]));
        let reports = self
            .capacities
            .iter()
            .map(|&c| LaneReport {
                policy: "lru".to_owned(),
                capacity: c,
                sampled: false,
                stats: CacheStats::from_counts(
                    self.accesses[0],
                    reads[c.min(reads.len() - 1)],
                    self.accesses[1],
                    writes[c.min(writes.len() - 1)],
                ),
                nanos: 0,
                accesses: 0,
            })
            .collect();
        let mut combined = self.hist[0].clone();
        if combined.len() < self.hist[1].len() {
            combined.resize(self.hist[1].len(), 0);
        }
        for (d, &count) in self.hist[1].iter().enumerate() {
            combined[d] += count;
        }
        LaneOutput {
            reports,
            lru_mrc: Some(MissRatioCurve::from_histogram(
                combined,
                self.cold[0] + self.cold[1],
            )),
            sampled_mrc: None,
        }
    }
}

/// A boxed-policy lane over the shared column — exact (every block of
/// every numbered run) or SHARDS-sampled (the filtered accesses, by
/// their own numbering, against a miniature cache).
struct BoxedLane {
    policy: Box<dyn CachePolicy + Send>,
    name: String,
    capacity: usize,
    sampled: bool,
    /// Accesses and hits per op kind (`[read, write]`), tallied per
    /// run rather than per access.
    accesses: [u64; 2],
    hits: [u64; 2],
}

impl Lane for BoxedLane {
    fn process(&mut self, job: &SweepColumn) -> u64 {
        if self.sampled {
            for (&block, &(_, op)) in job.sampled_numbers.iter().zip(&job.sampled) {
                let op = op_index(op);
                self.accesses[op] += 1;
                self.hits[op] += u64::from(self.policy.access(block).hit);
            }
            job.sampled.len() as u64
        } else {
            for &(first, n, op) in &job.runs {
                let policy = &mut self.policy;
                let hits: u32 = run_numbers(first, n)
                    .map(|block| u32::from(policy.access(block).hit))
                    .sum();
                let op = op_index(op);
                self.accesses[op] += u64::from(n);
                self.hits[op] += u64::from(hits);
            }
            job.accesses
        }
    }

    fn finish(self: Box<Self>) -> LaneOutput {
        let ([reads, writes], [read_hits, write_hits]) = (self.accesses, self.hits);
        LaneOutput {
            reports: vec![LaneReport {
                policy: self.name,
                capacity: self.capacity,
                sampled: self.sampled,
                stats: CacheStats::from_counts(reads, read_hits, writes, write_hits),
                nanos: 0,
                accesses: 0,
            }],
            lru_mrc: None,
            sampled_mrc: None,
        }
    }
}

/// The approximate-MRC lane: a [`ShardsSampler`] fed the column's
/// pre-filtered blocks (the engine's filter and the sampler's share
/// [`ShardsSampler::threshold_for`] the sweep's rate) plus the column's
/// access total, which the SHARDS-adj correction needs.
#[derive(Debug)]
struct SampledMrcLane {
    sampler: ShardsSampler,
}

impl Lane for SampledMrcLane {
    fn process(&mut self, job: &SweepColumn) -> u64 {
        self.sampler
            .access_prefiltered(job.sampled.iter().map(|&(block, _)| block), job.accesses);
        job.accesses
    }

    fn finish(self: Box<Self>) -> LaneOutput {
        LaneOutput {
            reports: Vec::new(),
            lru_mrc: None,
            sampled_mrc: Some(self.sampler.to_mrc_adjusted()),
        }
    }
}

/// Engine-side registry handles (see [`SweepGrid::with_registry`]).
#[derive(Debug)]
struct SweepMetrics {
    batches: cbs_obs::Counter,
    accesses: cbs_obs::Counter,
    sampled_accesses: cbs_obs::Counter,
    expand_nanos: cbs_obs::Counter,
    backpressure_nanos: cbs_obs::Counter,
}

impl SweepMetrics {
    fn new(registry: &Registry) -> Self {
        SweepMetrics {
            batches: registry.counter("sweep.batches"),
            accesses: registry.counter("sweep.accesses"),
            sampled_accesses: registry.counter("sweep.sampled_accesses"),
            expand_nanos: registry.counter("sweep.expand_nanos"),
            backpressure_nanos: registry.counter("sweep.backpressure_nanos"),
        }
    }
}

/// A running sweep accepting pushed requests or columnar batches — see
/// [`SweepGrid::start`].
///
/// Dropping a sweep without calling [`finish`](CacheSweep::finish)
/// abandons the lane results but does not leak threads (channels
/// close, workers drain and exit).
#[derive(Debug)]
pub struct CacheSweep {
    source: ColumnSource,
    rate: f64,
    buffer: RequestBatch,
    batch_size: usize,
    /// The lane threads; empty when every lane runs inline in `local`.
    pool: WorkerSet<Job, Vec<FinishedLane>>,
    local: Vec<TimedLane>,
    requests: u64,
    accesses: u64,
    sampled_accesses: u64,
    expand_nanos: u64,
    metrics: Option<SweepMetrics>,
    registry: Option<Registry>,
}

impl CacheSweep {
    /// Feeds one request, buffering until a batch fills.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is poisoned (a lane worker died — the
    /// dispatch that discovered it re-raised the worker's panic).
    pub fn observe_request(&mut self, req: &IoRequest) {
        assert!(
            !self.is_poisoned(),
            "cache sweep is poisoned: a lane worker panicked"
        );
        self.buffer.push(req);
        if self.buffer.len() >= self.batch_size {
            self.flush_buffer();
        }
    }

    /// Feeds every record of a columnar batch (e.g. straight from a
    /// [`cbs_trace::CbtReader`] block or a
    /// [`cbs_trace::ParallelDecoder`] sink), flushing any buffered
    /// requests first so access order is preserved.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is poisoned.
    pub fn observe_batch(&mut self, batch: &RequestBatch) {
        assert!(
            !self.is_poisoned(),
            "cache sweep is poisoned: a lane worker panicked"
        );
        self.flush_buffer();
        self.dispatch(batch);
    }

    /// Feeds a whole request stream (e.g. a lazy
    /// `cbs_synth` corpus stream).
    ///
    /// # Panics
    ///
    /// Panics if the sweep is poisoned.
    pub fn run<I: IntoIterator<Item = IoRequest>>(&mut self, stream: I) {
        for req in stream {
            self.observe_request(&req);
        }
    }

    /// Requests fed so far.
    pub fn requests(&self) -> u64 {
        self.requests + self.buffer.len() as u64
    }

    /// `true` once a lane worker's death has been detected; every
    /// further feed or finish call panics rather than reporting a
    /// partial sweep.
    pub fn is_poisoned(&self) -> bool {
        self.pool.is_poisoned()
    }

    fn flush_buffer(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.buffer);
        self.dispatch(&batch);
        // Reuse the allocation for the next fill.
        self.buffer = batch;
        self.buffer.clear();
    }

    /// Reduces `batch` to block spans once, numbers its blocks and
    /// hashes the sample filter once, and hands the shared column to
    /// every lane.
    fn dispatch(&mut self, batch: &RequestBatch) {
        if batch.is_empty() {
            return;
        }
        self.requests += batch.len() as u64;
        let clock = Stopwatch::start();
        let column = SweepColumn::build(batch, &mut self.source);
        let expand_nanos = clock.elapsed_nanos();
        let sampled = column.sampled.len() as u64;
        self.expand_nanos += expand_nanos;
        self.accesses += column.accesses;
        self.sampled_accesses += sampled;
        if let Some(m) = &self.metrics {
            m.batches.inc();
            m.accesses.add(column.accesses);
            m.sampled_accesses.add(sampled);
            m.expand_nanos.add(expand_nanos);
        }
        let job: Job = Arc::new(column);
        for worker in 0..self.pool.workers() {
            match self.pool.send(worker, job.clone()) {
                Ok(blocked_nanos) => {
                    if let Some(m) = &self.metrics {
                        m.backpressure_nanos.add(blocked_nanos);
                    }
                }
                // Surface the worker's panic on the caller thread now
                // instead of sweeping the rest of the stream against
                // dead lanes.
                Err(Gone) => self.pool.poison(worker),
            }
        }
        for lane in &mut self.local {
            lane.process(&job);
        }
    }

    /// Flushes the request buffer, joins the workers, and assembles
    /// the report. Publishes the finish-time lane gauges if a registry
    /// was attached.
    ///
    /// # Panics
    ///
    /// Propagates lane-worker panics, and panics on a poisoned sweep —
    /// a panic-interrupted stream never yields a partial report.
    pub fn finish(mut self) -> SweepReport {
        assert!(
            !self.is_poisoned(),
            "cache sweep is poisoned: a lane worker panicked; its stats would be partial"
        );
        self.flush_buffer();
        let mut finished: Vec<FinishedLane> = self.pool.finish().into_iter().flatten().collect();
        finished.extend(self.local.into_iter().map(TimedLane::finish));
        finished.sort_by_key(|lane| lane.index);

        if let Some(registry) = &self.registry {
            registry.gauge("sweep.lanes").set(finished.len() as u64);
            let ppm = self
                .sampled_accesses
                .saturating_mul(1_000_000)
                .checked_div(self.accesses)
                .unwrap_or(0);
            registry.gauge("sweep.sampled_ppm").set(ppm);
            for lane in &finished {
                registry
                    .gauge(&format!("sweep.lane.{}.accesses", lane.label))
                    .set(lane.accesses);
                registry
                    .gauge(&format!("sweep.lane.{}.nanos", lane.label))
                    .set(lane.nanos);
            }
        }

        let mut lanes = Vec::new();
        let mut lru_mrc = None;
        let mut sampled_mrc = None;
        for lane in finished {
            lanes.extend(lane.output.reports);
            lru_mrc = lane.output.lru_mrc.or(lru_mrc);
            sampled_mrc = lane.output.sampled_mrc.or(sampled_mrc);
        }
        SweepReport {
            lanes,
            lru_mrc,
            sampled_mrc,
            requests: self.requests,
            accesses: self.accesses,
            sampled_accesses: self.sampled_accesses,
            expand_nanos: self.expand_nanos,
            rate: self.rate,
        }
    }
}

/// One `(policy, capacity)` result of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneReport {
    /// The policy's short name (`"lru"`, `"fifo"`, ...).
    pub policy: String,
    /// The requested capacity in blocks. Sampled lanes simulate a
    /// miniature cache of `capacity × rate` blocks but report the
    /// requested capacity here.
    pub capacity: usize,
    /// `true` for SHARDS-sampled lanes: `stats` covers the sampled
    /// substream and its miss ratios are estimates of the exact lane's.
    pub sampled: bool,
    /// The hit/miss tallies — for exact lanes, bit-identical to a
    /// fresh [`crate::CacheSim`] over the same stream.
    pub stats: CacheStats,
    /// Wall time this lane's physical lane spent processing columns
    /// (the collapsed LRU stack lane shares one time across its
    /// capacities).
    pub nanos: u64,
    /// Block accesses the physical lane consumed.
    pub accesses: u64,
}

/// Everything a finished sweep produced — see [`CacheSweep::finish`].
#[derive(Debug, Clone)]
pub struct SweepReport {
    lanes: Vec<LaneReport>,
    lru_mrc: Option<MissRatioCurve>,
    sampled_mrc: Option<MissRatioCurve>,
    requests: u64,
    accesses: u64,
    sampled_accesses: u64,
    expand_nanos: u64,
    rate: f64,
}

impl SweepReport {
    /// Every lane's result, in grid insertion order (LRU capacities
    /// first, then boxed lanes).
    pub fn lanes(&self) -> &[LaneReport] {
        &self.lanes
    }

    /// The stats of the exact lane for `(policy, capacity)`, if the
    /// grid contained it.
    pub fn stats(&self, policy: &str, capacity: usize) -> Option<CacheStats> {
        self.lanes
            .iter()
            .find(|l| !l.sampled && l.policy == policy && l.capacity == capacity)
            .map(|l| l.stats)
    }

    /// The exact LRU miss-ratio curve from the collapsed stack lane
    /// (present iff the grid had at least one LRU capacity) — answers
    /// *every* capacity, not just the grid points.
    pub fn lru_mrc(&self) -> Option<&MissRatioCurve> {
        self.lru_mrc.as_ref()
    }

    /// The SHARDS-sampled LRU miss-ratio curve (present iff
    /// [`SweepGrid::with_sampled_mrc`] was requested).
    pub fn sampled_mrc(&self) -> Option<&MissRatioCurve> {
        self.sampled_mrc.as_ref()
    }

    /// Requests fed through the sweep.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Block accesses after expansion.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses passing the SHARDS spatial filter (0 when no sampled
    /// lane was configured).
    pub fn sampled_accesses(&self) -> u64 {
        self.sampled_accesses
    }

    /// Observed sampled fraction: `sampled_accesses / accesses`.
    pub fn sampled_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.sampled_accesses as f64 / self.accesses as f64
        }
    }

    /// Nanoseconds spent in the shared expansion + sample-filter pass.
    pub fn expand_nanos(&self) -> u64 {
        self.expand_nanos
    }

    /// The sampling rate the sweep ran with.
    pub fn sample_rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheSim;
    use cbs_trace::{BlockAccessColumn, Timestamp, VolumeId};

    fn stream(n: u64, blocks: u64) -> Vec<IoRequest> {
        (0..n)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new(0),
                    if i % 3 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    ((i * 7 + i * i * 3) % blocks) * 4096,
                    (i % 3) as u32 * 4096 + 2048,
                    Timestamp::from_micros(i),
                )
            })
            .collect()
    }

    fn reference(reqs: &[IoRequest], name: &str, capacity: usize) -> CacheStats {
        let Some(policy) = policy_by_name(name, capacity) else {
            panic!("unknown policy {name}")
        };
        let mut sim = CacheSim::new(policy, BlockSize::DEFAULT);
        sim.run(reqs);
        sim.stats()
    }

    #[test]
    fn exact_lanes_match_cache_sim_bit_for_bit() {
        let reqs = stream(5000, 300);
        let names = ["lru", "fifo", "clock", "lfu", "arc", "slru", "2q"];
        let capacities = [1usize, 7, 64, 150, 100_000];
        for workers in 0..=3 {
            let report = SweepGrid::new()
                .with_workers(workers)
                .grid(&names, &capacities)
                .expect("valid grid")
                .sweep(reqs.iter().copied());
            assert_eq!(report.lanes().len(), names.len() * capacities.len());
            for &name in &names {
                for &c in &capacities {
                    let got = report.stats(name, c).expect("lane present");
                    assert_eq!(
                        got,
                        reference(&reqs, name, c),
                        "{name}@{c}, {workers} workers"
                    );
                }
            }
        }
    }

    /// Everything but the wall-clock timing fields, for comparing
    /// reports across runs.
    fn untimed(report: &SweepReport) -> Vec<(String, usize, bool, CacheStats, u64)> {
        report
            .lanes()
            .iter()
            .map(|l| (l.policy.clone(), l.capacity, l.sampled, l.stats, l.accesses))
            .collect()
    }

    #[test]
    fn worker_fanout_matches_sequential() {
        let reqs = stream(3000, 200);
        let grid = |workers| {
            SweepGrid::new()
                .with_workers(workers)
                .with_batch_size(512)
                .grid(&["lru", "fifo", "arc"], &[16, 64])
                .expect("valid grid")
                .sweep(reqs.iter().copied())
        };
        let sequential = grid(0);
        let fanned = grid(3);
        assert_eq!(untimed(&sequential), untimed(&fanned));
        assert_eq!(sequential.accesses(), fanned.accesses());
    }

    #[test]
    fn batch_and_stream_feeds_agree() {
        let reqs = stream(2000, 150);
        let streamed = SweepGrid::new()
            .with_workers(0)
            .policy("slru", 32)
            .expect("valid")
            .sweep(reqs.iter().copied());
        let mut batched = SweepGrid::new()
            .with_workers(0)
            .policy("slru", 32)
            .expect("valid")
            .start();
        for chunk in reqs.chunks(700) {
            batched.observe_batch(&RequestBatch::from(chunk));
        }
        let batched = batched.finish();
        assert_eq!(untimed(&streamed), untimed(&batched));
        assert_eq!(streamed.requests(), 2000);
    }

    #[test]
    fn lru_mrc_agrees_with_stack_lane_reports() {
        let reqs = stream(4000, 250);
        let capacities = [1usize, 10, 100, 1000];
        let mut grid = SweepGrid::new().with_workers(0);
        for &c in &capacities {
            grid = grid.lru_capacity(c).expect("non-zero");
        }
        let report = grid.sweep(reqs.iter().copied());
        let mrc = report.lru_mrc().expect("stack lane ran");
        for &c in &capacities {
            let stats = report.stats("lru", c).expect("lane present");
            let expected = stats.overall_miss_ratio().expect("accesses > 0");
            assert!(
                (mrc.miss_ratio_at(c) - expected).abs() < 1e-12,
                "capacity {c}"
            );
        }
    }

    #[test]
    fn sampled_lane_estimates_miss_ratio() {
        // A working set far larger than the capacity: miss ratio near
        // 1, which sampling must reproduce closely even at rate 0.1.
        let reqs = stream(30_000, 20_000);
        let report = SweepGrid::new()
            .with_workers(0)
            .with_sample_rate(0.1)
            .expect("valid rate")
            .policy("fifo", 128)
            .expect("valid")
            .sampled_policy("fifo", 128)
            .expect("valid")
            .with_sampled_mrc()
            .sweep(reqs.iter().copied());
        let exact = report.stats("fifo", 128).expect("exact lane");
        let sampled = report
            .lanes()
            .iter()
            .find(|l| l.sampled)
            .expect("sampled lane");
        let frac = report.sampled_fraction();
        assert!(frac > 0.05 && frac < 0.2, "sampled fraction {frac}");
        assert!(sampled.accesses < report.accesses() / 5);
        let (e, s) = (
            exact.overall_miss_ratio().expect("accesses"),
            sampled.stats.overall_miss_ratio().expect("accesses"),
        );
        assert!((e - s).abs() < 0.05, "exact {e} vs sampled {s}");
        assert!(report.sampled_mrc().is_some());
    }

    #[test]
    fn sampled_mrc_lane_equals_per_block_sampler() {
        // The lane consumes the engine's pre-filtered indices; the
        // curve must be the one a sampler hashing every block builds.
        let reqs = stream(20_000, 5_000);
        let report = SweepGrid::new()
            .with_workers(0)
            .with_batch_size(257)
            .with_sample_rate(0.1)
            .expect("valid rate")
            .with_sampled_mrc()
            .sweep(reqs.iter().copied());
        let mut sampler = ShardsSampler::new(0.1);
        let mut column = BlockAccessColumn::new();
        RequestBatch::from(reqs.as_slice()).expand_blocks_into(BlockSize::DEFAULT, &mut column);
        for &block in column.blocks() {
            sampler.access(block);
        }
        assert_eq!(sampler.total_accesses(), report.accesses());
        assert_eq!(sampler.sampled_accesses(), report.sampled_accesses());
        assert!(
            sampler.sampled_accesses() > 0,
            "the filter must pass some blocks"
        );
        assert_eq!(report.sampled_mrc(), Some(&sampler.to_mrc_adjusted()));
    }

    /// A request over `blocks` whole blocks from block `first` on.
    fn block_req(op: OpKind, first: u64, blocks: u32) -> IoRequest {
        let bytes = BlockSize::DEFAULT.bytes();
        IoRequest::new(
            VolumeId::new(0),
            op,
            first * u64::from(bytes),
            blocks * bytes,
            Timestamp::ZERO,
        )
    }

    #[test]
    fn span_column_carries_what_expansion_would() {
        use OpKind::{Read, Write};
        let bs = BlockSize::DEFAULT;
        let top = bs.block_of(u64::MAX);
        let reqs = [
            block_req(Write, 3, 5),
            // Unaligned straddler and a zero-length record.
            IoRequest::new(VolumeId::new(0), Read, 4000, 300, Timestamp::ZERO),
            IoRequest::new(VolumeId::new(0), Write, 8192, 0, Timestamp::ZERO),
            // Reaches past u64::MAX: one clamped span, not a wrapped one.
            IoRequest::new(
                VolumeId::new(0),
                Write,
                u64::MAX - 10,
                4096,
                Timestamp::ZERO,
            ),
            block_req(Read, top.get() - 2, 3),
        ];
        let batch = RequestBatch::from(reqs.as_slice());
        // Threshold u64::MAX samples every access; both numberings on.
        let mut source = ColumnSource {
            block_size: bs,
            threshold: Some(u64::MAX),
            numbers: Some(BlockNumbering::new()),
            sampled_numbers: Some(BlockNumbering::new()),
        };
        let column = SweepColumn::build(&batch, &mut source);
        let mut expanded = BlockAccessColumn::new();
        batch.expand_blocks_into(bs, &mut expanded);
        let walked: Vec<(BlockId, OpKind)> = expanded.iter().collect();
        assert_eq!(column.sampled, walked);
        assert_eq!(column.accesses, expanded.len() as u64);

        // The numbered runs map back, through the numbering, to the
        // blocks expansion yields: first-touch numbers, consecutive ones
        // kept as one run (3..8 is one, the straddler's 0..2 another),
        // split where they stop being consecutive (the last span's `top`
        // was numbered before the two blocks below it). The
        // zero-length record touches nothing, and the one reaching past
        // u64::MAX is the clamped block `top` alone.
        let numbers = source.numbers.as_ref().expect("numbering on");
        let runs: Vec<(usize, u32, OpKind)> = column
            .runs
            .iter()
            .map(|&(no, n, op)| (no.index(), n, op))
            .collect();
        assert_eq!(
            runs,
            [
                (0, 5, Write),
                (5, 2, Read),
                (7, 1, Write),
                (8, 2, Read),
                (7, 1, Read)
            ]
        );
        assert_eq!(numbers.get(top), Some(BlockNo::from_raw(7)));
        let block_of: std::collections::HashMap<BlockNo, BlockId> = expanded
            .blocks()
            .iter()
            .map(|&b| (numbers.get(b).expect("every expanded block numbered"), b))
            .collect();
        assert_eq!(block_of.len(), numbers.len(), "one block per number");
        let unnumbered: Vec<(BlockId, OpKind)> = column
            .runs
            .iter()
            .flat_map(|&(first, n, op)| run_numbers(first, n).map(move |no| (no, op)))
            .map(|(no, op)| (block_of[&no], op))
            .collect();
        assert_eq!(unnumbered, walked);
        let sampled_numbers = source.sampled_numbers.as_ref().expect("numbering on");
        let renumbered: Vec<Option<BlockNo>> = column
            .sampled
            .iter()
            .map(|&(b, _)| sampled_numbers.get(b))
            .collect();
        let carried: Vec<Option<BlockNo>> =
            column.sampled_numbers.iter().copied().map(Some).collect();
        assert_eq!(carried, renumbered);

        // Without a threshold or numberings, only the access count is
        // built.
        let mut bare = ColumnSource {
            block_size: bs,
            threshold: None,
            numbers: None,
            sampled_numbers: None,
        };
        let column = SweepColumn::build(&batch, &mut bare);
        assert_eq!(column.accesses, expanded.len() as u64);
        assert!(column.sampled.is_empty() && column.runs.is_empty());
        assert!(column.sampled_numbers.is_empty());

        // And through the lanes: the clamped block is hit on its retouch.
        let report = SweepGrid::new()
            .with_workers(0)
            .grid(&["lru", "fifo"], &[1, 2, 4])
            .expect("valid grid")
            .sweep(reqs.iter().copied());
        assert_eq!(report.accesses(), expanded.len() as u64);
        for name in ["lru", "fifo"] {
            for c in [1, 2, 4] {
                let got = report.stats(name, c).expect("lane present");
                assert_eq!(got, reference(&reqs, name, c), "{name}@{c}");
            }
        }
        assert_eq!(report.stats("lru", 4).expect("lane").read_hits(), 1);
    }

    #[test]
    fn the_grid_decides_what_is_numbered() {
        // (exact numbering, sampled numbering, SHARDS filter) per grid:
        // exact numbering runs exactly when an exact lane does, the
        // LRU stack lane included; the sampled MRC lane numbers its own
        // sampled blocks, so it asks for the filter alone.
        let parts = |grid: SweepGrid| {
            let source = grid.with_workers(0).start().source;
            (
                source.numbers.is_some(),
                source.sampled_numbers.is_some(),
                source.threshold.is_some(),
            )
        };
        let lru = || SweepGrid::new().lru_capacity(8).expect("non-zero");
        assert_eq!(parts(lru()), (true, false, false));
        assert_eq!(parts(lru().with_sampled_mrc()), (true, false, true));
        let sampled = lru().sampled_policy("arc", 8).expect("valid");
        assert_eq!(parts(sampled), (true, true, true));
        let exact = lru().policy("fifo", 8).expect("valid");
        assert_eq!(parts(exact), (true, false, false));
        let fifo = SweepGrid::new().policy("fifo", 8).expect("valid");
        assert_eq!(parts(fifo), (true, false, false));
        // No exact lane: nothing numbers the spans.
        assert_eq!(parts(SweepGrid::new()), (false, false, false));
        assert_eq!(
            parts(SweepGrid::new().with_sampled_mrc()),
            (false, false, true)
        );
        let sampled = SweepGrid::new().sampled_policy("arc", 8).expect("valid");
        assert_eq!(parts(sampled), (false, true, true));
    }

    #[test]
    fn stack_lane_runs_match_lru_sim_below_the_live_set() {
        use OpKind::{Read, Write};
        // Every case sits in one column (the default batch holds them)
        // and is checked at every capacity up to past its live set, so
        // a wrong finite distance cannot hide behind a large cache.
        let mut compacting = Vec::new();
        for round in 0..70 {
            // 23 live blocks, 1 610 positions: the stack compacts at
            // an op change in the middle of the column.
            let op = if round % 10 < 5 { Write } else { Read };
            compacting.push(block_req(Write, 90, 3));
            compacting.push(block_req(op, 0, 20));
        }
        let cases: [(&str, Vec<IoRequest>); 7] = [
            (
                "A B A B A B",
                vec![
                    block_req(Write, 10, 2),
                    block_req(Write, 10, 2),
                    block_req(Write, 10, 2),
                    block_req(Write, 50, 2),
                    block_req(Write, 11, 1),
                    block_req(Write, 10, 1),
                ],
            ),
            (
                "three runs in one span",
                vec![
                    block_req(Write, 0, 6),
                    block_req(Read, 100, 3),
                    block_req(Write, 6, 5),
                    block_req(Write, 3, 9),
                    block_req(Read, 0, 12),
                ],
            ),
            (
                "cold hole in a warm span",
                vec![
                    block_req(Read, 0, 4),
                    block_req(Read, 5, 4),
                    block_req(Write, 0, 9),
                ],
            ),
            (
                "run over a chunk edge and a word edge",
                vec![
                    block_req(Write, 1000, 60),
                    block_req(Write, 10, 12),
                    block_req(Read, 500, 3),
                    block_req(Read, 10, 12),
                    block_req(Read, 10, 12),
                ],
            ),
            (
                "same span twice, ops differing",
                vec![
                    block_req(Write, 0, 5),
                    block_req(Read, 0, 5),
                    block_req(Read, 0, 5),
                ],
            ),
            (
                "run continued across requests",
                vec![
                    block_req(Write, 0, 40),
                    block_req(Write, 40, 40),
                    block_req(Write, 0, 40),
                    block_req(Write, 40, 40),
                    block_req(Read, 20, 40),
                ],
            ),
            ("compaction mid-column", compacting),
        ];
        for (name, reqs) in &cases {
            let live = reqs
                .iter()
                .flat_map(|r| BlockSize::DEFAULT.span_of(r))
                .collect::<std::collections::HashSet<_>>()
                .len();
            let mut grid = SweepGrid::new().with_workers(0);
            for c in 1..=live + 1 {
                grid = grid.lru_capacity(c).expect("non-zero");
            }
            let report = grid.sweep(reqs.iter().copied());
            for c in 1..=live + 1 {
                assert_eq!(
                    report.stats("lru", c).expect("lane"),
                    reference(reqs, "lru", c),
                    "{name}: capacity {c} of {live} live blocks"
                );
            }
        }
    }

    #[test]
    fn empty_sweep_reports_zeroes() {
        let report = SweepGrid::new()
            .with_workers(0)
            .lru_capacity(8)
            .expect("non-zero")
            .policy("fifo", 8)
            .expect("valid")
            .sweep(std::iter::empty());
        assert_eq!(report.requests(), 0);
        assert_eq!(report.accesses(), 0);
        assert_eq!(report.stats("fifo", 8), Some(CacheStats::new()));
        assert_eq!(report.stats("lru", 8), Some(CacheStats::new()));
        // Empty-trace convention: the curve reports all-misses.
        assert_eq!(report.lru_mrc().expect("lane ran").miss_ratio_at(8), 1.0);
        assert_eq!(report.sampled_fraction(), 0.0);
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            SweepGrid::new().lru_capacity(0).unwrap_err(),
            SweepError::ZeroCapacity
        );
        assert_eq!(
            SweepGrid::new().policy("belady", 8).unwrap_err(),
            SweepError::UnknownPolicy("belady".to_owned())
        );
        assert_eq!(
            SweepGrid::new().sampled_policy("nope", 8).unwrap_err(),
            SweepError::UnknownPolicy("nope".to_owned())
        );
        assert_eq!(
            SweepGrid::new().with_sample_rate(0.0).unwrap_err(),
            SweepError::InvalidRate(0.0)
        );
        assert_eq!(
            SweepGrid::new().with_sample_rate(1.5).unwrap_err(),
            SweepError::InvalidRate(1.5)
        );
        let err = SweepError::UnknownPolicy("belady".to_owned());
        assert!(err.to_string().contains("belady"));
        assert_eq!(
            SweepGrid::new()
                .grid(&["lru", "fifo"], &[4, 8, 16])
                .expect("valid")
                .lane_count(),
            1 + 3, // collapsed stack lane + three fifo lanes
        );
    }

    #[test]
    fn registry_reconciles_with_report() {
        let registry = cbs_obs::Registry::new();
        let reqs = stream(3000, 100);
        let report = SweepGrid::new()
            .with_workers(0)
            .with_registry(&registry)
            .lru_capacity(32)
            .expect("non-zero")
            .policy("2q", 32)
            .expect("valid")
            .sampled_policy("clock", 32)
            .expect("valid")
            .sweep(reqs.iter().copied());
        assert_eq!(registry.counter("sweep.accesses").get(), report.accesses());
        assert_eq!(
            registry.counter("sweep.sampled_accesses").get(),
            report.sampled_accesses()
        );
        assert!(registry.counter("sweep.batches").get() >= 1);
        assert!(registry.counter("sweep.expand_nanos").get() > 0);
        assert_eq!(registry.gauge("sweep.lanes").get(), 3);
        assert_eq!(
            registry.gauge("sweep.lane.lru.stack.accesses").get(),
            report.accesses()
        );
        assert_eq!(
            registry.gauge("sweep.lane.2q@32.accesses").get(),
            report.accesses()
        );
        assert_eq!(
            registry.gauge("sweep.lane.clock@32.sampled.accesses").get(),
            report.sampled_accesses()
        );
        let ppm = registry.gauge("sweep.sampled_ppm").get();
        let expected_ppm = report.sampled_accesses() * 1_000_000 / report.accesses();
        assert_eq!(ppm, expected_ppm);
    }

    #[test]
    fn mini_capacity_scales_and_floors() {
        assert_eq!(mini_capacity(1000, 0.01), 10);
        assert_eq!(mini_capacity(10, 0.01), 1);
        assert_eq!(mini_capacity(7, 1.0), 7);
    }

    #[test]
    fn stack_lane_compaction_keeps_stats_exact() {
        // Few distinct blocks, many accesses: forces several
        // compactions inside the stack lane mid-sweep.
        let reqs: Vec<IoRequest> = (0..50_000u64)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new(0),
                    if i % 2 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    ((i * i * 7 + i * 13) % 60) * 4096,
                    4096,
                    Timestamp::from_micros(i),
                )
            })
            .collect();
        let report = SweepGrid::new()
            .with_workers(0)
            .lru_capacity(10)
            .expect("non-zero")
            .lru_capacity(45)
            .expect("non-zero")
            .sweep(reqs.iter().copied());
        for &c in &[10usize, 45] {
            assert_eq!(
                report.stats("lru", c).expect("lane"),
                reference(&reqs, "lru", c),
                "capacity {c}"
            );
        }
    }
}
