//! Sharded streaming analysis: [`StreamingWorkbench`] and
//! [`StreamingSession`].
//!
//! The batch [`crate::Workbench`] materializes the whole trace before
//! fanning out per-volume analyzers. This module provides the one-pass
//! alternative: requests flow from any producer (a
//! [`cbs_trace::ParallelDecoder`] sink, a lazy synthetic corpus stream,
//! a CBT reader, a custom source) straight into per-volume
//! [`VolumeAnalyzer`]s that live on shard worker threads, so peak
//! memory is bounded by the analyzers' own per-volume state
//! (O(volumes + working-set blocks)), independent of trace length.
//!
//! ```text
//! producer (caller thread)        S shard workers
//! ┌────────────────────────┐  bounded  ┌──────────────────────────┐
//! │ observe(req)           │  channels │ FxHashMap<VolumeId,      │
//! │  route: volume → shard │ ────────► │         VolumeAnalyzer>  │
//! │  SoA buffer per shard, │ (Request- │ regroup batch by volume, │
//! │  flush at batch_size   │  Batches) │ one observe_batch() each │
//! └────────────────────────┘           └──────────────────────────┘
//! ```
//!
//! The shard threads are a [`WorkerSet`] and volumes are pinned to them
//! by a [`StickyRouter`] — see [`cbs_trace::workers`] for what happens
//! when a shard dies and how backpressure is accounted.
//!
//! Shard channels carry [`RequestBatch`]es (struct-of-arrays), so a
//! batch handoff moves five dense columns instead of an array of
//! request structs, and workers can feed analyzers through the
//! [`VolumeAnalyzer::observe_batch`] fast path: each worker stably
//! regroups a received batch by volume, so every analyzer gets its
//! whole share of the batch in one call.
//!
//! # Ordering contract
//!
//! Each volume's requests must be **observed in non-decreasing
//! timestamp order**. Requests of different volumes may interleave
//! arbitrarily — routing assigns every volume to exactly one shard and
//! each shard consumes its bounded channel in send order, so per-volume
//! order is preserved end to end (violations panic in debug builds, in
//! the analyzer's `observe_batch`). Both supported producers satisfy the
//! contract by construction: decoded AliCloud/MSRC traces are globally
//! time-sorted on disk, and [`cbs_synth`]'s corpus streams are emitted
//! in global time order.
//!
//! # Equivalence with the batch path
//!
//! With the same epoch, the per-volume metrics are **identical** to
//! [`crate::Workbench::analyze`] — the same `VolumeAnalyzer::observe_batch`
//! runs over the same per-volume sequences, and its metrics do not
//! depend on where the sequences are cut into batches. The
//! batch path anchors interval/day indices at `trace.start()`, so the
//! session uses the first observed timestamp as the epoch by default
//! (correct for any globally time-ordered stream) and offers
//! [`StreamingWorkbench::with_epoch`] for producers that interleave
//! volumes without global time order.

use std::sync::mpsc::Receiver;

use cbs_analysis::{AnalysisConfig, VolumeAnalyzer, VolumeMetrics};
use cbs_obs::{Counter, Gauge, Registry, Stopwatch};
use cbs_trace::hash::FxHashMap;
use cbs_trace::workers::{Gone, StickyRouter, WorkerSet};
use cbs_trace::{IoRequest, RequestBatch, Timestamp, VolumeId};

/// Default number of requests buffered per shard before a batch is
/// sent to the worker.
///
/// On the synthetic AliCloud-like corpus, throughput is flat from 4 Ki
/// to 32 Ki and degrades below 1 Ki (per-batch handoff overhead) —
/// 8 Ki keeps the pipeline's buffered footprint small without
/// measurable cost.
pub const DEFAULT_BATCH_SIZE: usize = 8192;

/// Default in-flight batches allowed per shard channel; combined with
/// `batch_size` this bounds the pipeline's buffered requests at
/// `shards × (channel_depth + 1) × batch_size`.
///
/// Depth 2–8 measures identically (the pipeline is compute-bound, not
/// handoff-bound); 4 leaves slack for scheduling hiccups without
/// hoarding memory.
pub const DEFAULT_CHANNEL_DEPTH: usize = 4;

/// Builder for a sharded streaming analysis.
///
/// # Example
///
/// ```
/// use cbs_core::StreamingWorkbench;
/// use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};
///
/// let metrics = StreamingWorkbench::new().analyze((0..1000u64).map(|i| {
///     IoRequest::new(
///         VolumeId::new((i % 7) as u32),
///         if i % 3 == 0 { OpKind::Read } else { OpKind::Write },
///         (i % 40) * 4096,
///         4096,
///         Timestamp::from_micros(i * 500),
///     )
/// }));
/// assert_eq!(metrics.len(), 7);
/// assert_eq!(metrics.iter().map(|m| m.requests()).sum::<u64>(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingWorkbench {
    shards: usize,
    batch_size: usize,
    channel_depth: usize,
    epoch: Option<Timestamp>,
    registry: Option<Registry>,
}

impl Default for StreamingWorkbench {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingWorkbench {
    /// Creates a builder with the paper's default analysis parameters,
    /// one shard per available core, and the default batch size and
    /// channel depth.
    pub fn new() -> Self {
        StreamingWorkbench {
            shards: crate::workbench::default_threads(),
            batch_size: DEFAULT_BATCH_SIZE,
            channel_depth: DEFAULT_CHANNEL_DEPTH,
            epoch: None,
            registry: None,
        }
    }

    /// Sets the number of shard worker threads (min 1). Volumes stick
    /// to shards on first touch, each new volume joining the shard with
    /// the least routed traffic so far ([`StickyRouter`]).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets how many requests are buffered per shard before a batch is
    /// flushed to the worker (min 1).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Sets how many flushed batches may be in flight per shard channel
    /// (min 1) before the producer blocks on backpressure.
    #[must_use]
    pub fn with_channel_depth(mut self, depth: usize) -> Self {
        self.channel_depth = depth.max(1);
        self
    }

    /// Anchors interval/day indices at an explicit epoch instead of the
    /// first observed timestamp. Required for batch-equivalent metrics
    /// when the stream is *not* globally time-ordered (e.g. volume-major
    /// feeding): pass the batch trace's `start()`.
    #[must_use]
    pub fn with_epoch(mut self, epoch: Timestamp) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Publishes pipeline metrics into `registry`: per session
    /// `stream.observed`, `stream.batches`,
    /// `stream.backpressure_nanos` (time the producer spent blocked on
    /// full shard channels), and the `stream.shards` gauge (the
    /// configured shard count, so exported metric sets are
    /// self-describing), plus per shard `stream.shard<i>.requests`,
    /// `.batches`, `.analyze_nanos` (worker time spent feeding
    /// analyzers), `.inflight` (current channel depth), and
    /// `.inflight_hwm` (its high-water mark).
    ///
    /// All recording happens at *batch* granularity (one flushed batch =
    /// a handful of relaxed atomic adds and, only when the channel is
    /// actually full, one stopwatch), so attaching a registry has no
    /// measurable throughput cost — see `EXPERIMENTS.md`.
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Configured per-shard flush threshold.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Configured per-shard channel depth.
    pub fn channel_depth(&self) -> usize {
        self.channel_depth
    }

    /// Spawns the shard workers and returns the push-style session.
    pub fn start(self) -> StreamingSession {
        let metrics = self
            .registry
            .as_ref()
            .map(|r| SessionMetrics::new(r, self.shards));
        let shards = WorkerSet::spawn(
            self.channel_depth,
            (0..self.shards).map(|shard| {
                let worker_metrics = metrics.as_ref().map(|m| m.worker(shard));
                move |rx| shard_worker(rx, AnalysisConfig::default(), worker_metrics)
            }),
        );
        StreamingSession {
            shards,
            router: StickyRouter::new(self.shards),
            buffers: (0..self.shards).map(|_| RequestBatch::new()).collect(),
            batch_size: self.batch_size,
            epoch: self.epoch,
            observed: 0,
            metrics,
        }
    }

    /// Convenience: runs a whole request stream through a session and
    /// returns the per-volume metrics in ascending volume-id order.
    pub fn analyze<I>(self, stream: I) -> Vec<VolumeMetrics>
    where
        I: IntoIterator<Item = IoRequest>,
    {
        let mut session = self.start();
        for req in stream {
            session.observe(req);
        }
        session.finish()
    }
}

/// One routed unit of work: the epoch every lazily-created analyzer in
/// the batch must anchor to, plus the records as dense columns.
type Batch = (Timestamp, RequestBatch);

/// Producer-side handles into the session's registry (see
/// [`StreamingWorkbench::with_registry`] for the metric names).
#[derive(Debug)]
struct SessionMetrics {
    observed: Counter,
    batches: Counter,
    backpressure_nanos: Counter,
    registry: Registry,
    inflight: Vec<Gauge>,
    inflight_hwm: Vec<Gauge>,
}

impl SessionMetrics {
    fn new(registry: &Registry, shards: usize) -> Self {
        registry.gauge("stream.shards").set(shards as u64);
        SessionMetrics {
            observed: registry.counter("stream.observed"),
            batches: registry.counter("stream.batches"),
            backpressure_nanos: registry.counter("stream.backpressure_nanos"),
            registry: registry.clone(),
            inflight: (0..shards)
                .map(|s| registry.gauge(&format!("stream.shard{s}.inflight")))
                .collect(),
            inflight_hwm: (0..shards)
                .map(|s| registry.gauge(&format!("stream.shard{s}.inflight_hwm")))
                .collect(),
        }
    }

    /// Handles for one shard worker thread.
    fn worker(&self, shard: usize) -> WorkerMetrics {
        WorkerMetrics {
            requests: self
                .registry
                .counter(&format!("stream.shard{shard}.requests")),
            batches: self
                .registry
                .counter(&format!("stream.shard{shard}.batches")),
            analyze_nanos: self
                .registry
                .counter(&format!("stream.shard{shard}.analyze_nanos")),
            inflight: self.inflight[shard].clone(),
        }
    }
}

/// Worker-side handles; cloned into the shard thread.
#[derive(Debug)]
struct WorkerMetrics {
    requests: Counter,
    batches: Counter,
    analyze_nanos: Counter,
    inflight: Gauge,
}

/// A running sharded analysis accepting pushed requests — see
/// [`StreamingWorkbench::start`].
///
/// Dropping a session without calling
/// [`finish`](StreamingSession::finish) abandons the workers' results
/// but does not leak threads (channels close, workers drain and exit).
#[derive(Debug)]
pub struct StreamingSession {
    shards: WorkerSet<Batch, Vec<VolumeMetrics>>,
    /// Sticky, skew-aware volume → shard assignment: each volume's full
    /// stream reaches exactly one worker in send order, which is what
    /// keeps the metrics bit-identical at any shard count.
    router: StickyRouter<VolumeId>,
    buffers: Vec<RequestBatch>,
    batch_size: usize,
    epoch: Option<Timestamp>,
    observed: u64,
    metrics: Option<SessionMetrics>,
}

impl StreamingSession {
    /// Routes one request to its volume's shard. Blocks (backpressure)
    /// when the shard's channel is full.
    ///
    /// # Panics
    ///
    /// If a shard worker has died, the flush that discovers it re-raises
    /// the worker's panic on this thread (see
    /// [`is_poisoned`](StreamingSession::is_poisoned)); observing on an
    /// already-poisoned session panics immediately.
    pub fn observe(&mut self, req: IoRequest) {
        assert!(
            !self.is_poisoned(),
            "streaming session is poisoned: a shard worker panicked"
        );
        if self.epoch.is_none() {
            // First record of a globally time-ordered stream = the
            // batch path's `trace.start()`.
            self.epoch = Some(req.ts());
        }
        let shard = self.router.route(req.volume());
        self.observed += 1;
        self.buffers[shard].push(&req);
        if self.buffers[shard].len() >= self.batch_size {
            self.flush(shard);
        }
    }

    /// Observes every record of a columnar batch (e.g. straight from a
    /// [`cbs_trace::CbtReader`] block or a [`cbs_trace::ParallelDecoder`]
    /// sink), routing by the volume column without materializing
    /// per-request structs.
    pub fn observe_request_batch(&mut self, batch: &RequestBatch) {
        self.observe_request_batch_ref(batch.as_ref());
    }

    /// Observes every record of a *borrowed* columnar batch (e.g. a
    /// [`cbs_trace::CbtSliceReader`] lending slices decoded in place) —
    /// the zero-copy ingest path: records flow from the mapped file
    /// into the per-shard buffers without an intermediate owned batch.
    pub fn observe_request_batch_ref(&mut self, batch: cbs_trace::RequestBatchRef<'_>) {
        assert!(
            !self.is_poisoned(),
            "streaming session is poisoned: a shard worker panicked"
        );
        if batch.is_empty() {
            return;
        }
        if self.epoch.is_none() {
            self.epoch = Some(batch.timestamps()[0]);
        }
        let volumes = batch.volumes();
        let ops = batch.ops();
        let offsets = batch.offsets();
        let lens = batch.lens();
        let timestamps = batch.timestamps();
        for i in 0..batch.len() {
            let shard = self.router.route(volumes[i]);
            self.observed += 1;
            self.buffers[shard].push_fields(volumes[i], ops[i], offsets[i], lens[i], timestamps[i]);
            if self.buffers[shard].len() >= self.batch_size {
                self.flush(shard);
            }
        }
    }

    /// Number of requests observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// `true` once a shard worker's death has been detected. A poisoned
    /// session re-raised the worker's panic already (observable only if
    /// the caller caught it); every further `observe*`/`finish` call
    /// panics rather than computing on a partial stream.
    pub fn is_poisoned(&self) -> bool {
        self.shards.is_poisoned()
    }

    fn flush(&mut self, shard: usize) {
        if self.buffers[shard].is_empty() {
            return;
        }
        // `observe` sets the epoch before buffering anything, so a
        // non-empty buffer implies the epoch is known.
        let Some(epoch) = self.epoch else { return };
        let batch = std::mem::take(&mut self.buffers[shard]);
        if let Some(m) = &self.metrics {
            m.observed.add(batch.len() as u64);
            m.batches.inc();
            let depth = m.inflight[shard].inc();
            m.inflight_hwm[shard].record_max(depth);
        }
        match self.shards.send(shard, (epoch, batch)) {
            Ok(blocked_nanos) => {
                if let Some(m) = &self.metrics {
                    m.backpressure_nanos.add(blocked_nanos);
                }
            }
            // Surface the worker's panic on the producer thread *now* —
            // within one batch flush of the death — instead of analyzing
            // the rest of the stream against dead shards and only
            // failing at `finish`.
            Err(Gone) => self.shards.poison(shard),
        }
    }

    /// Flushes all buffers, waits for the shard workers, and returns
    /// the per-volume metrics in ascending volume-id order.
    ///
    /// # Panics
    ///
    /// Propagates panics from shard workers (e.g. the analyzer's
    /// debug-build ordering assertions), and panics on a poisoned
    /// session — a panic-interrupted stream never yields partial
    /// metrics.
    pub fn finish(mut self) -> Vec<VolumeMetrics> {
        assert!(
            !self.is_poisoned(),
            "streaming session is poisoned: a shard worker panicked; \
             its metrics would be partial"
        );
        for shard in 0..self.buffers.len() {
            self.flush(shard);
        }
        let mut metrics: Vec<VolumeMetrics> = self.shards.finish().into_iter().flatten().collect();
        metrics.sort_by_key(|m| m.id);
        metrics
    }
}

/// Shard worker loop: regroup each received batch by volume, lazily
/// create one analyzer per volume and feed it its whole share of the
/// batch in one [`VolumeAnalyzer::observe_batch`] call; emit the
/// finished metrics when the channel closes.
fn shard_worker(
    rx: Receiver<Batch>,
    config: AnalysisConfig,
    metrics: Option<WorkerMetrics>,
) -> Vec<VolumeMetrics> {
    let mut analyzers: FxHashMap<VolumeId, VolumeAnalyzer> = FxHashMap::default();
    let mut regroup = Regroup::default();
    for (epoch, batch) in rx {
        let clock = metrics.as_ref().map(|m| {
            m.inflight.dec();
            m.batches.inc();
            m.requests.add(batch.len() as u64);
            Stopwatch::start()
        });
        let mut start = 0usize;
        let (grouped, groups) = regroup.by_volume(&batch);
        for &(volume, count) in groups {
            let range = start..start + count as usize;
            start = range.end;
            match analyzers.get_mut(&volume) {
                Some(analyzer) => analyzer.observe_batch(grouped, range),
                // The default config is valid, so the constructor
                // cannot be rejected here.
                None => {
                    if let Ok(mut analyzer) = VolumeAnalyzer::new(volume, epoch, config.clone()) {
                        analyzer.observe_batch(grouped, range);
                        analyzers.insert(volume, analyzer);
                    }
                }
            }
        }
        if let (Some(m), Some(clock)) = (&metrics, clock) {
            m.analyze_nanos.add(clock.elapsed_nanos());
        }
    }
    analyzers
        .into_values()
        .map(VolumeAnalyzer::finish)
        .collect()
}

/// Reused scratch for the worker's volume-major regroup.
///
/// A time-ordered stream interleaves its volumes, so a routed batch
/// holds same-volume runs of only a request or two; fed run by run, the
/// analyzers' batch kernels never see a batch and every call re-warms
/// another volume's histograms. A stable counting sort over the volume
/// column gives each volume one contiguous range instead. Per-volume
/// order — all any analyzer depends on — is unchanged.
#[derive(Debug, Default)]
struct Regroup {
    /// The batch's records, volume-major.
    grouped: RequestBatch,
    /// `(volume, record count)` per group, in first-appearance order.
    groups: Vec<(VolumeId, u32)>,
    /// Volume → index into `groups`, for the current batch.
    group_of: FxHashMap<VolumeId, u32>,
    /// Group index of each record.
    keys: Vec<u32>,
    /// Next output position per group.
    cursors: Vec<u32>,
    /// Output position → input index.
    order: Vec<u32>,
}

impl Regroup {
    /// Returns `batch` stably sorted by volume, and its groups: each
    /// owns the next `count` records of the sorted batch.
    fn by_volume(&mut self, batch: &RequestBatch) -> (&RequestBatch, &[(VolumeId, u32)]) {
        let volumes = batch.volumes();
        self.groups.clear();
        self.group_of.clear();
        self.keys.clear();
        // Consecutive records often share a volume: skip their lookups.
        let mut last: Option<(VolumeId, u32)> = None;
        for &volume in volumes {
            let group = match last {
                Some((v, g)) if v == volume => g,
                _ => {
                    let next = self.groups.len() as u32;
                    let g = *self.group_of.entry(volume).or_insert(next);
                    if g == next {
                        self.groups.push((volume, 0));
                    }
                    last = Some((volume, g));
                    g
                }
            };
            self.groups[group as usize].1 += 1;
            self.keys.push(group);
        }

        self.cursors.clear();
        let mut next = 0u32;
        for &(_, count) in &self.groups {
            self.cursors.push(next);
            next += count;
        }
        // Every slot is overwritten below; no need to clear first.
        self.order.resize(volumes.len(), 0);
        for (i, &group) in self.keys.iter().enumerate() {
            let cursor = &mut self.cursors[group as usize];
            self.order[*cursor as usize] = i as u32;
            *cursor += 1;
        }

        let (ops, offsets, lens, timestamps) = (
            batch.ops(),
            batch.offsets(),
            batch.lens(),
            batch.timestamps(),
        );
        self.grouped.clear();
        for &i in &self.order {
            let i = i as usize;
            self.grouped
                .push_fields(volumes[i], ops[i], offsets[i], lens[i], timestamps[i]);
        }
        (&self.grouped, &self.groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workbench;
    use cbs_trace::{OpKind, Trace};

    fn time_ordered_requests(volumes: u32, per_volume: u64) -> Vec<IoRequest> {
        let mut reqs = Vec::new();
        for i in 0..per_volume {
            for v in 0..volumes {
                reqs.push(IoRequest::new(
                    VolumeId::new(v),
                    if (i + u64::from(v)) % 3 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    (i % 50) * 4096,
                    4096,
                    Timestamp::from_secs(i * 7 + u64::from(v)),
                ));
            }
        }
        reqs
    }

    #[test]
    fn matches_batch_workbench() {
        let reqs = time_ordered_requests(9, 300);
        let batch = Workbench::new(Trace::from_requests(reqs.clone())).analyze();
        for shards in [1, 3, 8] {
            let streaming = StreamingWorkbench::new()
                .with_shards(shards)
                .with_batch_size(64)
                .analyze(reqs.iter().copied());
            assert_eq!(streaming, batch.metrics(), "shards={shards}");
        }
    }

    #[test]
    fn matches_batch_workbench_via_request_batches() {
        // Feeding whole RequestBatches (the CBT re-ingest path) must
        // yield the same metrics as per-request feeding and as the
        // batch workbench.
        let reqs = time_ordered_requests(7, 200);
        let batch = Workbench::new(Trace::from_requests(reqs.clone())).analyze();
        for chunk in [1usize, 97, 1000, 5000] {
            let mut session = StreamingWorkbench::new()
                .with_shards(3)
                .with_batch_size(128)
                .start();
            for piece in reqs.chunks(chunk) {
                session.observe_request_batch(&RequestBatch::from(piece));
            }
            let streaming = session.finish();
            assert_eq!(streaming, batch.metrics(), "chunk={chunk}");
        }
    }

    #[test]
    fn tuning_knobs_are_applied_and_clamped() {
        let wb = StreamingWorkbench::new()
            .with_batch_size(0)
            .with_channel_depth(0);
        assert_eq!(wb.batch_size(), 1);
        assert_eq!(wb.channel_depth(), 1);
        let wb = StreamingWorkbench::new()
            .with_batch_size(1024)
            .with_channel_depth(2);
        assert_eq!(wb.batch_size(), 1024);
        assert_eq!(wb.channel_depth(), 2);
        // And the configuration must not change the results.
        let reqs = time_ordered_requests(4, 64);
        let baseline = StreamingWorkbench::new().analyze(reqs.iter().copied());
        let tuned = StreamingWorkbench::new()
            .with_batch_size(7)
            .with_channel_depth(1)
            .analyze(reqs.iter().copied());
        assert_eq!(baseline, tuned);
    }

    #[test]
    fn volume_major_feed_with_explicit_epoch() {
        // Feeding volume-major (all of volume 0, then volume 1, ...)
        // breaks the first-timestamp epoch inference; with the batch
        // trace's start as the explicit epoch the metrics still match.
        let trace = Trace::from_requests(time_ordered_requests(5, 100));
        let epoch = trace.start().unwrap();
        let volume_major: Vec<IoRequest> = trace.requests().to_vec();
        let streaming = StreamingWorkbench::new()
            .with_shards(2)
            .with_epoch(epoch)
            .analyze(volume_major);
        let batch = Workbench::new(trace).analyze();
        assert_eq!(streaming, batch.metrics());
    }

    #[test]
    fn empty_stream() {
        let metrics = StreamingWorkbench::new().analyze(std::iter::empty());
        assert!(metrics.is_empty());
    }

    #[test]
    fn observe_batch_counts() {
        let reqs = time_ordered_requests(3, 10);
        let mut session = StreamingWorkbench::new().with_shards(2).start();
        session.observe_request_batch(&RequestBatch::from(reqs.as_slice()));
        assert_eq!(session.observed(), 30);
        let metrics = session.finish();
        assert_eq!(metrics.iter().map(|m| m.requests()).sum::<u64>(), 30);
        // ascending volume-id order
        assert!(metrics.windows(2).all(|w| w[0].id < w[1].id));
    }

    /// A config that panics the worker mid-stream: the analyzer's
    /// per-volume ordering `debug_assert` trips on an out-of-order
    /// timestamp, so this scenario only exists in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    fn worker_panic_surfaces_within_one_batch_flush() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let depth = 1usize;
        let mut session = StreamingWorkbench::new()
            .with_shards(1)
            .with_batch_size(1)
            .with_channel_depth(depth)
            .start();
        let req = |secs| {
            IoRequest::new(
                VolumeId::new(0),
                OpKind::Write,
                0,
                4096,
                Timestamp::from_secs(secs),
            )
        };
        session.observe(req(100));
        // Out of order for the same volume: the worker panics while
        // processing this batch and drops its receiver.
        session.observe(req(1));
        // Every observe flushes (batch_size = 1). At most `depth`
        // flushes can be buffered after the fatal batch, and one more
        // may be mid-send when the receiver drops — so the worker's
        // panic must resurface on the producer within `depth + 2`
        // flushes, long before `finish`.
        let poisoned_feed = catch_unwind(AssertUnwindSafe(|| {
            for i in 0..(depth as u64 + 2) {
                session.observe(req(200 + i));
            }
        }));
        assert!(
            poisoned_feed.is_err(),
            "worker panic must surface within channel_depth + 2 flushes"
        );
        assert!(session.is_poisoned());
        // All-or-error: a poisoned session never returns partial
        // metrics, and further feeding is rejected.
        let observe_after = catch_unwind(AssertUnwindSafe(|| session.observe(req(300))));
        assert!(observe_after.is_err());
        let finish = catch_unwind(AssertUnwindSafe(|| session.finish()));
        assert!(finish.is_err(), "finish on a poisoned session must panic");
    }

    #[test]
    fn registry_reconciles_with_observed() {
        use cbs_obs::Registry;
        let registry = Registry::new();
        let reqs = time_ordered_requests(5, 200);
        let mut session = StreamingWorkbench::new()
            .with_shards(2)
            .with_batch_size(64)
            .with_registry(&registry)
            .start();
        for req in &reqs {
            session.observe(*req);
        }
        let observed = session.observed();
        let metrics = session.finish();
        assert_eq!(observed, 1000);
        assert_eq!(registry.counter("stream.observed").get(), observed);
        let per_shard: u64 = (0..2)
            .map(|s| registry.counter(&format!("stream.shard{s}.requests")).get())
            .sum();
        assert_eq!(per_shard, observed, "shard counters reconcile");
        assert_eq!(
            registry.counter("stream.batches").get(),
            (0..2)
                .map(|s| registry.counter(&format!("stream.shard{s}.batches")).get())
                .sum::<u64>()
        );
        for s in 0..2 {
            assert_eq!(
                registry.gauge(&format!("stream.shard{s}.inflight")).get(),
                0,
                "all batches drained"
            );
            assert!(
                registry
                    .gauge(&format!("stream.shard{s}.inflight_hwm"))
                    .get()
                    >= 1
            );
        }
        // And the instrumented run still computes the right answer.
        assert_eq!(metrics.iter().map(|m| m.requests()).sum::<u64>(), observed);
    }

    #[test]
    fn skewed_volumes_spread_across_shards() {
        // One hot volume (90% of traffic) plus seven cold ones, all
        // sharing residue class 0 mod 4 — the old modulus routing put
        // every one of them on shard 0. First-touch least-loaded
        // assignment must give each cold volume its own lightly-loaded
        // shard instead.
        use cbs_obs::Registry;
        let registry = Registry::new();
        let mut reqs = Vec::new();
        for i in 0..9_000u64 {
            reqs.push(IoRequest::new(
                VolumeId::new(0), // hot volume
                OpKind::Write,
                (i % 64) * 4096,
                4096,
                Timestamp::from_micros(i * 10),
            ));
        }
        for (j, v) in (1..8u32).map(|v| v * 4).enumerate() {
            for i in 0..140u64 {
                reqs.push(IoRequest::new(
                    VolumeId::new(v),
                    OpKind::Read,
                    (i % 16) * 4096,
                    4096,
                    Timestamp::from_micros(90_000 + (j as u64) * 2_000 + i * 10),
                ));
            }
        }
        let mut session = StreamingWorkbench::new()
            .with_shards(4)
            .with_batch_size(32)
            .with_registry(&registry)
            .start();
        for req in &reqs {
            session.observe(*req);
        }
        let metrics = session.finish();
        assert_eq!(metrics.len(), 8);
        assert_eq!(registry.gauge("stream.shards").get(), 4);
        // The hot volume saturates its shard; the seven cold volumes
        // must land on the other three shards, so every shard sees
        // traffic (modulus routing would leave shards 1-3 at zero).
        for s in 0..4u32 {
            let routed = registry.counter(&format!("stream.shard{s}.requests")).get();
            assert!(routed > 0, "shard {s} received no requests");
        }
        let shard0 = registry.counter("stream.shard0.requests").get();
        assert!(
            shard0 < reqs.len() as u64,
            "shard 0 must not own the whole stream"
        );
    }

    #[test]
    fn single_shard_single_request() {
        let metrics = StreamingWorkbench::new()
            .with_shards(1)
            .with_batch_size(1)
            .analyze(std::iter::once(IoRequest::new(
                VolumeId::new(3),
                OpKind::Write,
                0,
                4096,
                Timestamp::from_secs(1),
            )));
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].writes, 1);
    }
}
