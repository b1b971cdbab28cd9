//! The multi-lane issue engine: [`LaneSet`], [`MultiLaneReport`], and
//! [`ReplayLaneReport`].
//!
//! The single-threaded [`Replayer`](crate::Replayer) interleaves three
//! jobs on one thread: *generating* the next request (decode, remap,
//! target-time arithmetic), *pacing* (sleep-then-spin to the target),
//! and *issuing* (the backend call). During the paper's microbursts at
//! ×1000 the generation cost alone outruns the offered schedule, so
//! issue lag measures the engine, not the pacing. This module splits
//! the jobs across threads:
//!
//! ```text
//! feeder (caller thread)              N issue lanes
//! ┌──────────────────────────┐ bounded ┌─────────────────────────────┐
//! │ decode + remap in order  │ channels│ sleep-then-spin scheduler,  │
//! │ compute global monotone  │ ───────►│ own StorageBackend instance │
//! │ target times             │ (entry  │ per-lane replay.lane<i>.*   │
//! │ route: volume → lane     │ batches)│ counters + histograms       │
//! └──────────────────────────┘         └─────────────────────────────┘
//! ```
//!
//! The feeder consumes the source **in stream order** — the stateful
//! fan-out remap cursors and the monotone target-time clamp both
//! require it — and runs *ahead of the wall clock* whenever the lanes
//! allow, so bursts are pre-decoded into the bounded channels during
//! pacing idle and the lanes drain them at issue cost only.
//!
//! The lane threads are a [`WorkerSet`] (bounded channels, try-first
//! backpressure accounting, a lane's panic re-raised on the caller)
//! and each lane runs the one issue loop of [`crate::schedule`] once
//! per batch it receives — the loop [`Replayer`](crate::Replayer) runs
//! inline with runs of one.
//!
//! # Which side binds
//!
//! A run reports both ends of the channel: the feeder's time blocked on
//! a full one ([`MultiLaneReport::feed_backpressure_nanos`]) and each
//! lane's time between issue runs ([`ReplayLaneReport::idle_nanos`]).
//! A lane's life is idle + waiting for targets + issue→completion, back
//! to back, so the three add up to its wall; a large idle share says
//! the feeder binds, a large blocked share that the lanes do.
//!
//! # Routing
//!
//! (Post-remap) volumes stick to lanes through a [`StickyRouter`], as
//! they stick to analysis shards. Stickiness is what keeps a lane's
//! backend self-consistent: every request of a volume reaches exactly
//! one backend instance, in send order, so per-volume file/page state
//! and per-volume issue order are preserved at any lane count.
//!
//! # Merged-report laws
//!
//! Each lane tallies a run in plain counters it owns (one batch at a
//! time through the issue loop: no atomic and one clock read per
//! request); the merged [`ReplayReport`] is the fold of those tallies
//! into `cbs-obs` handles (counter totals add, histogram buckets add:
//! `Histogram::absorb` equals recording the samples one by one), and
//! the registry's cumulative `replay.*` and `replay.lane<i>.*` names
//! receive the same tallies once, when the run ends — on its error
//! path too. Request, byte, read, and write counts — and the
//! issue-lag/service-time sample counts — are therefore **identical to
//! the single-lane run at any lane count**; only the timing
//! distributions themselves may differ (that is the point). The
//! `lane_laws` proptests pin this down, including panic-poison parity
//! with the single-lane engine.

use std::io;
use std::sync::mpsc::Receiver;

use cbs_obs::{Registry, Stopwatch};
use cbs_trace::workers::{Gone, Refused, StickyRouter, WorkerSet};
use cbs_trace::{IoRequest, VolumeId};

use crate::backend::StorageBackend;
use crate::error::ReplayError;
use crate::remap::{Remap, VolumeRemapper};
use crate::schedule::{
    issue_run, IssueMetrics, IssueTally, LaneEntry, ReplayReport, Schedule, Timing,
};

/// Requests buffered per lane before the feeder hands the batch to the
/// lane's channel. Small enough that a batch is a few KiB, large
/// enough that channel handoff is amortized across hundreds of
/// requests.
pub const LANE_BATCH_REQUESTS: usize = 256;

/// Default in-flight batches allowed per lane channel. Together with
/// [`LANE_BATCH_REQUESTS`] this bounds the feeder's lookahead at
/// `lanes × depth × batch` pre-decoded requests — the reservoir the
/// lanes drain during microbursts that outrun live generation.
pub const DEFAULT_LANE_CHANNEL_DEPTH: usize = 8;

/// How far (in scaled schedule nanoseconds) a partially filled lane
/// buffer may trail the stream head before the feeder force-flushes
/// it. Targets are globally monotone, so "head minus oldest buffered
/// target" bounds how stale a buffered entry can get while the feeder
/// works on other lanes; 1 ms keeps that well under the lag scales the
/// lane curve measures.
pub const FLUSH_HORIZON_NANOS: u64 = 1_000_000;

/// What one issue lane measured (a per-lane slice of the merged
/// [`ReplayReport`]; same units).
#[derive(Debug, Clone, Copy)]
pub struct ReplayLaneReport {
    /// Lane index (0-based).
    pub lane: usize,
    /// Requests this lane issued.
    pub requests: u64,
    /// Payload bytes this lane issued.
    pub bytes: u64,
    /// Read requests this lane issued.
    pub reads: u64,
    /// Write requests this lane issued.
    pub writes: u64,
    /// Nanoseconds this lane slept ahead of deadlines.
    pub slept_nanos: u64,
    /// Nanoseconds this lane spent between issue runs: from the run's
    /// start to its first batch, from each batch's last completion to
    /// the next batch in hand, and until its channel closed — waiting
    /// for the feeder, plus the hand-off itself. The mirror of
    /// [`MultiLaneReport::feed_backpressure_nanos`]: whichever of the
    /// two is large names the side that binds.
    pub idle_nanos: u64,
    /// This lane's issue-lag distribution.
    pub issue_lag: cbs_obs::HistogramSnapshot,
    /// This lane's backend service-time distribution.
    pub backend: cbs_obs::HistogramSnapshot,
}

/// What a finished multi-lane replay measured: the merged
/// [`ReplayReport`] (the fold of every lane's partial metrics through
/// the lawful `merge()` of the metric types) plus the per-lane
/// breakdown.
#[derive(Debug, Clone)]
pub struct MultiLaneReport {
    /// The fold of all lanes: request/byte/read/write-identical to the
    /// single-lane run over the same source and remap.
    pub merged: ReplayReport,
    /// Per-lane measurements, indexed by lane.
    pub per_lane: Vec<ReplayLaneReport>,
    /// Nanoseconds the feeder spent blocked on full lane channels
    /// (nonzero means generation outran the lanes, not vice versa).
    pub feed_backpressure_nanos: u64,
}

impl MultiLaneReport {
    /// Number of issue lanes that ran.
    pub fn lanes(&self) -> usize {
        self.per_lane.len()
    }

    /// The worst per-lane p99 issue lag, nanoseconds — the number the
    /// lane-scaling curve reports per row.
    pub fn worst_lane_p99_lag(&self) -> u64 {
        self.per_lane
            .iter()
            .map(|l| l.issue_lag.p99)
            .max()
            .unwrap_or(0)
    }
}

/// What a lane worker hands back when its channel closes (or it stops
/// at an I/O error): the backend it owned, what it measured, and the
/// terminal result.
struct LaneOutcome<B> {
    backend: B,
    tally: IssueTally,
    idle_nanos: u64,
    result: io::Result<()>,
}

/// The sharded open-loop issue engine — see the [module docs](self).
///
/// # Example
///
/// ```
/// use cbs_replay::{LaneSet, NullBackend, Remap, Timing};
/// use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};
///
/// # fn main() -> Result<(), cbs_replay::ReplayError> {
/// let reqs = (0..400).map(|i| {
///     IoRequest::new(
///         VolumeId::new(i % 8),
///         if i % 3 == 0 { OpKind::Write } else { OpKind::Read },
///         (i as u64) * 4096,
///         4096,
///         Timestamp::from_micros(i as u64 * 25),
///     )
/// });
/// let mut set = LaneSet::new(4, |_lane| NullBackend::new())
///     .with_timing(Timing::multiplier(1000.0)?)
///     .with_remap(Remap::fan_out(2)?);
/// let report = set.run(reqs)?;
/// assert_eq!(report.merged.requests, 400);
/// assert_eq!(report.lanes(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LaneSet<B: StorageBackend> {
    backends: Vec<B>,
    timing: Timing,
    remap: Remap,
    channel_depth: usize,
    registry: Registry,
}

impl<B: StorageBackend + Send + 'static> LaneSet<B> {
    /// Creates a lane set of `lanes` (min 1) issue lanes, calling
    /// `make_backend(lane)` once per lane — each lane owns its backend
    /// instance exclusively for the lifetime of the set.
    pub fn new(lanes: usize, mut make_backend: impl FnMut(usize) -> B) -> Self {
        let lanes = lanes.max(1);
        LaneSet {
            backends: (0..lanes).map(&mut make_backend).collect(),
            timing: Timing::recorded(),
            remap: Remap::Identity,
            channel_depth: DEFAULT_LANE_CHANNEL_DEPTH,
            registry: Registry::new(),
        }
    }

    /// Sets the pacing (builder style).
    #[must_use]
    pub fn with_timing(mut self, timing: Timing) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the volume remapping policy (builder style). Unlike
    /// [`Replayer`](crate::Replayer), each [`run`](LaneSet::run)
    /// starts from fresh fan-out cursors.
    #[must_use]
    pub fn with_remap(mut self, remap: Remap) -> Self {
        self.remap = remap;
        self
    }

    /// Records into (a clone of) `registry` so lane metrics export
    /// alongside the caller's.
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// Sets how many batches may be in flight per lane channel (min 1)
    /// before the feeder blocks on backpressure.
    #[must_use]
    pub fn with_channel_depth(mut self, depth: usize) -> Self {
        self.channel_depth = depth.max(1);
        self
    }

    /// Number of issue lanes (`0` once [poisoned](LaneSet::is_poisoned)).
    pub fn lanes(&self) -> usize {
        self.backends.len()
    }

    /// `true` once a run unwound (a lane worker, the source or the
    /// observer panicked) and took the backends with it: they move
    /// into the lane threads for a run and come back only through its
    /// orderly end. Every later `run*` call panics rather than replay
    /// onto no lanes. ([`LaneSet::new`] clamps to at least one lane, so
    /// an empty set can mean nothing else.)
    pub fn is_poisoned(&self) -> bool {
        self.backends.is_empty()
    }

    /// The metric registry this lane set records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Borrows the per-lane backends (e.g. to sum
    /// [`MemBackend`](crate::MemBackend) page counts after a run).
    pub fn backends(&self) -> &[B] {
        &self.backends
    }

    /// Consumes the set, returning the per-lane backends.
    pub fn into_backends(self) -> Vec<B> {
        self.backends
    }

    /// Replays an infallible, time-ordered request stream across the
    /// lanes. Out-of-order timestamps are tolerated exactly as in the
    /// single-lane engine: targets clamp to the latest deadline.
    pub fn run<I>(&mut self, source: I) -> Result<MultiLaneReport, ReplayError>
    where
        I: IntoIterator<Item = IoRequest>,
    {
        self.run_observed(source, |_| {})
    }

    /// [`run`](LaneSet::run), additionally handing every issued
    /// (post-remap) request to `observe` **in stream order** on the
    /// feeder thread — the same hook and ordering contract as
    /// [`Replayer::run_observed`](crate::Replayer::run_observed), so
    /// re-analysis through a workbench is lane-count-independent.
    ///
    /// # Panics
    ///
    /// A panicking lane worker (e.g. a panicking backend) is re-raised
    /// on the calling thread — panic-poison parity with the
    /// single-lane engine, where the backend panic unwinds the caller
    /// directly — and leaves the set [poisoned](LaneSet::is_poisoned);
    /// running a poisoned set panics.
    pub fn run_observed<I, F>(
        &mut self,
        source: I,
        mut observe: F,
    ) -> Result<MultiLaneReport, ReplayError>
    where
        I: IntoIterator<Item = IoRequest>,
        F: FnMut(IoRequest),
    {
        assert!(
            !self.is_poisoned(),
            "lane set is poisoned: an earlier run unwound and its backends were lost"
        );
        let lanes = self.backends.len();
        self.registry.gauge("replay.lanes").set(lanes as u64);
        let mut schedule = Schedule::new(self.timing);
        let mut remapper = VolumeRemapper::new(self.remap);
        let clock = Stopwatch::start();

        let mut feeder = Feeder::new(WorkerSet::spawn(
            self.channel_depth,
            std::mem::take(&mut self.backends)
                .into_iter()
                .map(|backend| move |rx| lane_worker(rx, backend, clock)),
        ));
        for req in source {
            // Targets are computed centrally, so every lane issues
            // against one global schedule and offered_nanos is
            // lane-count-independent.
            let target_nanos = schedule.target(req.ts());
            let out = remapper.map(req);
            observe(out);
            if !feeder.push(target_nanos, out) {
                // A lane stopped receiving. Stop feeding; the join
                // below surfaces its error or re-raises its panic.
                break;
            }
        }
        let (outcomes, feed_backpressure_nanos) = feeder.finish();
        let wall_nanos = clock.elapsed_nanos();

        // Each lane tallied this run on its own: fold the tallies —
        // once — into the registry's cumulative per-lane and aggregate
        // names, and into fresh handles the report is snapshotted from.
        let aggregate = IssueMetrics::aggregate(&self.registry);
        let merged = IssueMetrics::default();
        let mut per_lane = Vec::with_capacity(lanes);
        let mut idle_nanos = 0u64;
        let mut failure: Option<ReplayError> = None;
        for (lane, outcome) in outcomes.into_iter().enumerate() {
            if let (None, Err(source)) = (&failure, outcome.result) {
                failure = Some(ReplayError::Backend {
                    backend: outcome.backend.name(),
                    source,
                });
            }
            self.backends.push(outcome.backend);
            IssueMetrics::lane(&self.registry, lane).fold(&outcome.tally);
            self.registry
                .counter(&format!("replay.lane{lane}.idle_nanos"))
                .add(outcome.idle_nanos);
            aggregate.fold(&outcome.tally);
            merged.fold(&outcome.tally);
            idle_nanos += outcome.idle_nanos;
            per_lane.push(lane_report(lane, &outcome.tally, outcome.idle_nanos));
        }
        self.registry.counter("replay.idle_nanos").add(idle_nanos);
        self.registry
            .counter("replay.feed_backpressure_nanos")
            .add(feed_backpressure_nanos);
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(MultiLaneReport {
            merged: merged.report(wall_nanos, schedule.offered_nanos()),
            per_lane,
            feed_backpressure_nanos,
        })
    }
}

fn lane_report(lane: usize, tally: &IssueTally, idle_nanos: u64) -> ReplayLaneReport {
    // Quantiles come from `Histogram` alone: snapshot this lane's
    // tally through fresh handles of its own.
    let own = IssueMetrics::default();
    own.fold(tally);
    ReplayLaneReport {
        lane,
        requests: tally.requests,
        bytes: tally.bytes,
        reads: tally.reads,
        writes: tally.writes,
        slept_nanos: tally.slept,
        idle_nanos,
        issue_lag: own.issue_lag.snapshot(),
        backend: own.backend_nanos.snapshot(),
    }
}

/// The feeder's routing and batching state. Lives on the calling
/// thread for the duration of one run.
struct Feeder<B> {
    lanes: WorkerSet<Vec<LaneEntry>, LaneOutcome<B>>,
    /// Sticky (post-remap) volume → lane assignment.
    router: StickyRouter<VolumeId>,
    buffers: Vec<Vec<LaneEntry>>,
    /// Target time of the oldest buffered entry per lane (meaningful
    /// only while the lane's buffer is non-empty) — the staleness
    /// signal behind [`FLUSH_HORIZON_NANOS`].
    oldest: Vec<u64>,
    /// No buffered entry goes stale before the stream head reaches
    /// this target: a lower bound on the least `oldest` of a non-empty
    /// buffer, plus the horizon. Lets `push` skip the sweep over every
    /// lane on all but the requests that cross it.
    sweep_at: u64,
    backpressure_nanos: u64,
    dead: bool,
}

impl<B: StorageBackend + Send + 'static> Feeder<B> {
    fn new(lanes: WorkerSet<Vec<LaneEntry>, LaneOutcome<B>>) -> Self {
        let count = lanes.workers();
        Feeder {
            lanes,
            router: StickyRouter::new(count),
            buffers: (0..count)
                .map(|_| Vec::with_capacity(LANE_BATCH_REQUESTS))
                .collect(),
            oldest: vec![0; count],
            sweep_at: u64::MAX,
            backpressure_nanos: 0,
            dead: false,
        }
    }

    /// Routes one post-remap request to its volume's lane and buffers
    /// it. Returns `false` once any lane has stopped receiving.
    fn push(&mut self, target_nanos: u64, req: IoRequest) -> bool {
        if self.dead {
            return false;
        }
        let lane = self.router.route(req.volume());
        if self.buffers[lane].is_empty() {
            self.oldest[lane] = target_nanos;
            self.sweep_at = self
                .sweep_at
                .min(target_nanos.saturating_add(FLUSH_HORIZON_NANOS));
        }
        self.buffers[lane].push((target_nanos, req));
        if self.buffers[lane].len() >= LANE_BATCH_REQUESTS {
            self.flush_blocking(lane);
        }
        // Staleness sweep: targets are monotone, so `target_nanos` is
        // the stream head — any other lane whose oldest buffered entry
        // trails it by more than the horizon is flushed now (without
        // blocking) instead of going stale in a feeder buffer while
        // this lane's traffic dominates the stream. A flush never
        // raises `sweep_at`, so it may run early — never late — and
        // each sweep sets it exactly.
        if target_nanos >= self.sweep_at {
            self.sweep_at = u64::MAX;
            for l in 0..self.buffers.len() {
                if self.buffers[l].is_empty() {
                    continue;
                }
                let stale_at = self.oldest[l].saturating_add(FLUSH_HORIZON_NANOS);
                if stale_at <= target_nanos {
                    self.try_flush(l);
                }
                // Still buffered (not yet stale, or its channel is
                // full): it decides when to look again.
                if !self.buffers[l].is_empty() {
                    self.sweep_at = self.sweep_at.min(stale_at);
                }
            }
        }
        !self.dead
    }

    /// Sends `lane`'s buffer only if its channel has room; a full
    /// channel keeps the batch buffered (the lane's worker is behind
    /// on *earlier* entries anyway, so nothing is lost by waiting).
    fn try_flush(&mut self, lane: usize) {
        if self.buffers[lane].is_empty() || self.dead {
            return;
        }
        let batch = std::mem::replace(
            &mut self.buffers[lane],
            Vec::with_capacity(LANE_BATCH_REQUESTS),
        );
        match self.lanes.try_send(lane, batch) {
            Ok(()) => {}
            // Not `poison`: a lane may stop early on a backend I/O
            // error, which `finish` reports as an error, not a panic.
            Err(Refused::Gone) => self.dead = true,
            Err(Refused::Full(batch)) => self.buffers[lane] = batch,
        }
    }

    /// Sends `lane`'s buffer, blocking when the channel is full. Before
    /// blocking, every *other* lane's buffer is opportunistically
    /// flushed so no entry sits in the feeder while it is stalled here.
    fn flush_blocking(&mut self, lane: usize) {
        self.try_flush(lane);
        if self.buffers[lane].is_empty() || self.dead {
            return;
        }
        for other in 0..self.buffers.len() {
            if other != lane {
                self.try_flush(other);
            }
        }
        let batch = std::mem::replace(
            &mut self.buffers[lane],
            Vec::with_capacity(LANE_BATCH_REQUESTS),
        );
        match self.lanes.send(lane, batch) {
            Ok(blocked_nanos) => self.backpressure_nanos += blocked_nanos,
            Err(Gone) => self.dead = true,
        }
    }

    /// Flushes every remaining buffer, closes the channels and joins
    /// the lanes (re-raising a lane's panic). Returns the lane outcomes
    /// in lane order and the nanoseconds spent blocked on full
    /// channels.
    fn finish(mut self) -> (Vec<LaneOutcome<B>>, u64) {
        for lane in 0..self.buffers.len() {
            self.flush_blocking(lane);
        }
        (self.lanes.finish(), self.backpressure_nanos)
    }
}

/// One issue lane: [`issue_run`] once per batch received, against this
/// lane's backend, tallying into this run's own [`IssueTally`]; the
/// backend is flushed when the channel closes. Stopping at an I/O error
/// drops the receiver, which the feeder notices on its next send to
/// this lane — the tally comes back either way.
///
/// The reading each receive is followed by also closes the books on
/// the time since the last run's final completion (or, for the first
/// batch, since the run clock started): that gap is the lane's idle
/// time, and costs no clock read of its own.
fn lane_worker<B: StorageBackend>(
    rx: Receiver<Vec<LaneEntry>>,
    mut backend: B,
    clock: Stopwatch,
) -> LaneOutcome<B> {
    let mut tally = IssueTally::default();
    let mut idle_nanos = 0u64;
    let mut issue_all = || {
        let mut last = 0u64;
        for batch in &rx {
            let now = clock.elapsed_nanos();
            idle_nanos += now.saturating_sub(last);
            last = issue_run(&batch, now, &mut backend, &clock, &mut tally)?;
        }
        idle_nanos += clock.elapsed_nanos().saturating_sub(last);
        backend.flush()
    };
    let result = issue_all();
    LaneOutcome {
        backend,
        tally,
        idle_nanos,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, NullBackend};
    use crate::schedule::Replayer;
    use cbs_trace::{OpKind, Timestamp};

    fn make(n: u64, gap_us: u64) -> Vec<IoRequest> {
        (0..n)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new((i % 8) as u32),
                    if i % 4 == 0 {
                        OpKind::Write
                    } else {
                        OpKind::Read
                    },
                    i * 4096,
                    4096,
                    Timestamp::from_micros(i * gap_us),
                )
            })
            .collect()
    }

    #[test]
    fn lane_counts_and_merge_match_single_lane() {
        let reqs = make(2000, 3);
        let single = Replayer::new(NullBackend::new())
            .with_timing(Timing::multiplier(1000.0).unwrap())
            .run(reqs.clone())
            .unwrap();
        for lanes in [1usize, 2, 4, 7] {
            let mut set = LaneSet::new(lanes, |_| NullBackend::new())
                .with_timing(Timing::multiplier(1000.0).unwrap());
            let multi = set.run(reqs.clone()).unwrap();
            assert_eq!(multi.merged.requests, single.requests, "lanes={lanes}");
            assert_eq!(multi.merged.bytes, single.bytes, "lanes={lanes}");
            assert_eq!(multi.merged.reads, single.reads, "lanes={lanes}");
            assert_eq!(multi.merged.writes, single.writes, "lanes={lanes}");
            assert_eq!(
                multi.merged.offered_nanos, single.offered_nanos,
                "lanes={lanes}"
            );
            assert_eq!(multi.merged.issue_lag.count, single.issue_lag.count);
            assert_eq!(multi.lanes(), lanes);
            let per_lane_sum: u64 = multi.per_lane.iter().map(|l| l.requests).sum();
            assert_eq!(per_lane_sum, multi.merged.requests);
        }
    }

    #[test]
    fn sticky_routing_keeps_each_volume_on_one_lane() {
        let reqs = make(800, 1);
        let mut set =
            LaneSet::new(3, |_| MemBackend::new()).with_timing(Timing::multiplier(1000.0).unwrap());
        set.run(reqs).unwrap();
        // 8 volumes, each written to distinct offsets: every page must
        // be resident in exactly one lane's backend.
        let mut seen: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for (lane, backend) in set.backends().iter().enumerate() {
            if backend.page_count() > 0 {
                // (volume extraction via page_count only — the law test
                // in tests/replay_equivalence.rs checks totals.)
                seen.insert(lane as u32, backend.page_count());
            }
        }
        let total: usize = seen.values().sum();
        let single_backend = {
            let mut r =
                Replayer::new(MemBackend::new()).with_timing(Timing::multiplier(1000.0).unwrap());
            r.run(make(800, 1)).unwrap();
            r.into_backend()
        };
        assert_eq!(total, single_backend.page_count());
    }

    #[test]
    fn observer_sees_post_remap_stream_in_order() {
        let reqs = make(300, 2);
        let mut seen = Vec::new();
        let mut set = LaneSet::new(4, |_| NullBackend::new())
            .with_timing(Timing::multiplier(1000.0).unwrap())
            .with_remap(Remap::fan_out(2).unwrap());
        set.run_observed(reqs.clone(), |req| seen.push(req))
            .unwrap();
        assert_eq!(seen.len(), 300);
        for (src, out) in reqs.iter().zip(&seen) {
            assert_eq!(src.ts(), out.ts());
            assert_eq!(out.volume().get() / 2, src.volume().get());
        }
    }

    #[test]
    fn empty_source_reports_zeroes() {
        let mut set = LaneSet::new(2, |_| NullBackend::new());
        let report = set.run(Vec::new()).unwrap();
        assert_eq!(report.merged.requests, 0);
        assert_eq!(report.merged.offered_nanos, 0);
        assert_eq!(report.per_lane.len(), 2);
        assert!((report.merged.achieved_offered_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn zero_lanes_clamps_to_one() {
        let set = LaneSet::new(0, |_| NullBackend::new());
        assert_eq!(set.lanes(), 1);
    }

    #[test]
    fn registry_exports_lane_metrics() {
        let registry = Registry::new();
        let mut set = LaneSet::new(2, |_| NullBackend::new())
            .with_timing(Timing::multiplier(1000.0).unwrap())
            .with_registry(&registry);
        set.run(make(100, 1)).unwrap();
        let json = registry.to_json();
        assert!(json.contains("\"replay.lanes\""));
        assert!(json.contains("\"replay.lane0.requests\""));
        assert!(json.contains("\"replay.lane1.issue_lag_nanos\""));
        assert!(json.contains("\"replay.requests\""), "aggregates exported");
        assert!(json.contains("\"replay.feed_backpressure_nanos\""));
    }

    /// An erroring backend fails the run with the lane's backend name,
    /// like the single-lane engine.
    #[test]
    fn lane_io_error_surfaces_as_backend_error() {
        #[derive(Debug)]
        struct FailingBackend {
            countdown: u32,
        }
        impl StorageBackend for FailingBackend {
            fn name(&self) -> &'static str {
                "failing"
            }
            fn read(&mut self, _v: VolumeId, _o: u64, _l: u32) -> io::Result<()> {
                self.write(_v, _o, _l)
            }
            fn write(&mut self, _v: VolumeId, _o: u64, _l: u32) -> io::Result<()> {
                if self.countdown == 0 {
                    return Err(io::Error::other("synthetic lane failure"));
                }
                self.countdown -= 1;
                Ok(())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut set = LaneSet::new(3, |_| FailingBackend { countdown: 50 })
            .with_timing(Timing::multiplier(1000.0).unwrap());
        let err = set.run(make(5000, 1)).unwrap_err();
        assert!(
            matches!(
                err,
                ReplayError::Backend {
                    backend: "failing",
                    ..
                }
            ),
            "{err}"
        );
    }
    /// Each run records into its own handles and folds them into the
    /// registry once: a second run on the same engine reports the
    /// second stream only, while the registry accumulates both.
    #[test]
    fn second_run_reports_only_its_own_requests() {
        let timing = Timing::multiplier(1000.0).unwrap();
        for lanes in [1usize, 3] {
            let registry = Registry::new();
            let mut set = LaneSet::new(lanes, |_| NullBackend::new())
                .with_timing(timing)
                .with_registry(&registry);
            set.run(make(100, 1)).unwrap();
            let second = set.run(make(10, 1)).unwrap();
            assert_eq!(second.merged.requests, 10, "lanes={lanes}");
            assert_eq!(second.merged.bytes, 10 * 4096);
            assert_eq!(second.merged.reads + second.merged.writes, 10);
            assert_eq!(second.merged.issue_lag.count, 10);
            assert_eq!(second.merged.backend.count, 10);
            let lane_sum =
                |f: fn(&ReplayLaneReport) -> u64| -> u64 { second.per_lane.iter().map(f).sum() };
            assert_eq!(lane_sum(|l| l.requests), second.merged.requests);
            assert_eq!(lane_sum(|l| l.bytes), second.merged.bytes);
            assert_eq!(lane_sum(|l| l.issue_lag.count), 10);
            assert_eq!(lane_sum(|l| l.slept_nanos), second.merged.slept_nanos);
            // The registry holds the total of both runs, at both levels.
            assert_eq!(registry.counter("replay.requests").get(), 110);
            assert_eq!(registry.histogram("replay.issue_lag_nanos").count(), 110);
            let lane_total: u64 = (0..lanes)
                .map(|l| registry.counter(&format!("replay.lane{l}.requests")).get())
                .sum();
            assert_eq!(lane_total, 110);
        }

        let registry = Registry::new();
        let mut replayer =
            Replayer::with_registry(NullBackend::new(), &registry).with_timing(timing);
        replayer.run(make(100, 1)).unwrap();
        let second = replayer.run(make(10, 1)).unwrap();
        assert_eq!(second.requests, 10);
        assert_eq!(second.bytes, 10 * 4096);
        assert_eq!(second.issue_lag.count, 10);
        assert_eq!(second.backend.count, 10);
        assert_eq!(registry.counter("replay.requests").get(), 110);
        assert_eq!(registry.histogram("replay.backend_nanos").count(), 110);
    }

    /// With carried readings a lane's life is idle (between runs) +
    /// waiting (ahead of a target) + issue→completion, back to back: on
    /// a saturated run nothing waits, so idle and service time alone
    /// must tile the lane's wall — which is what lets a run say, from
    /// its own report, which side binds.
    #[test]
    fn idle_and_service_time_cover_a_saturated_lanes_wall() {
        // 1 ns apart at x1000: every request is past due when it
        // reaches its lane.
        let reqs = make(400_000, 1);
        for lanes in [1usize, 3] {
            let registry = Registry::new();
            let mut set = LaneSet::new(lanes, |_| NullBackend::new())
                .with_timing(Timing::multiplier(1000.0).unwrap())
                .with_registry(&registry);
            let report = set.run(reqs.iter().copied()).unwrap();
            let wall = report.merged.wall_nanos;
            assert_eq!(report.merged.slept_nanos, 0, "saturated: nothing waits");
            for lane in &report.per_lane {
                let covered = lane.idle_nanos + lane.backend.sum;
                assert!(
                    covered <= wall,
                    "lanes={lanes} lane {}: spans overlap, {covered} ns of a {wall} ns run",
                    lane.lane
                );
                assert!(
                    covered as f64 >= 0.9 * wall as f64,
                    "lanes={lanes} lane {}: idle {} + service {} ns leave more than a tenth \
                     of the {wall} ns run unexplained",
                    lane.lane,
                    lane.idle_nanos,
                    lane.backend.sum
                );
                assert_eq!(
                    registry
                        .counter(&format!("replay.lane{}.idle_nanos", lane.lane))
                        .get(),
                    lane.idle_nanos
                );
            }
            let idle: u64 = report.per_lane.iter().map(|l| l.idle_nanos).sum();
            assert_eq!(registry.counter("replay.idle_nanos").get(), idle);
        }
    }

    /// A run that unwinds loses the backends its lanes owned: the set
    /// says so and refuses to run again, instead of indexing into zero
    /// lanes.
    #[test]
    fn unwound_run_poisons_the_lane_set() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        #[derive(Debug)]
        struct PanickingBackend {
            remaining: u32,
        }
        impl StorageBackend for PanickingBackend {
            fn name(&self) -> &'static str {
                "panicking"
            }
            fn read(&mut self, v: VolumeId, o: u64, l: u32) -> io::Result<()> {
                self.write(v, o, l)
            }
            fn write(&mut self, _v: VolumeId, _o: u64, _l: u32) -> io::Result<()> {
                assert!(self.remaining > 0, "synthetic backend panic");
                self.remaining -= 1;
                Ok(())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        for lanes in [1usize, 3] {
            let mut set = LaneSet::new(lanes, |_| PanickingBackend { remaining: 20 })
                .with_timing(Timing::multiplier(1000.0).unwrap());
            assert!(!set.is_poisoned());
            let first = catch_unwind(AssertUnwindSafe(|| set.run(make(400, 1))));
            let payload = first.expect_err("the lane's panic is re-raised");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"synthetic backend panic")
            );
            assert!(set.is_poisoned(), "lanes={lanes}");
            let again = catch_unwind(AssertUnwindSafe(|| set.run(make(10, 1))));
            let payload = again.expect_err("a poisoned set must not run");
            let message = payload.downcast_ref::<&str>().expect("assert message");
            assert!(message.contains("lane set is poisoned"), "{message}");
        }
    }
}
