//! The open-loop replay scheduler: [`Timing`], [`Replayer`], and
//! [`ReplayReport`].
//!
//! # Open loop
//!
//! The scheduler computes each request's *target issue time* from its
//! recorded timestamp (scaled by the rate multiplier) and issues at
//! that wall-clock instant **whether or not earlier requests have
//! completed** — the arrival process is the trace's, not the
//! backend's. This is what makes the replay a load *generator* rather
//! than a closed feedback loop: a slow backend shows up as growing
//! issue lag (`replay.issue_lag_nanos`) and a depressed
//! achieved-vs-offered ratio, exactly the signals TraceTracker-style
//! replay uses to compare hardware generations.
//!
//! # Clock arithmetic
//!
//! Target times are derived from `request.ts - first.ts` (saturating:
//! an out-of-order source timestamp clamps to the trace start, and
//! targets are made monotonic so a disordered source can never stall
//! the replay), scaled through
//! [`TimeDelta::saturating_mul_f64`](cbs_trace::TimeDelta::saturating_mul_f64) — the
//! overflow-checked rate-multiplier primitive — and quantized to the
//! microsecond resolution of the trace clock.
//!
//! # One engine
//!
//! The target-time arithmetic (`Schedule`), the issue loop
//! (`issue_run`: pace, record lag, call the backend, count), the
//! run-local tallies it counts into (`IssueTally`) and the metric
//! handles they are folded into when a run ends (`IssueMetrics`) exist
//! once, here. [`crate::LaneSet`] calls the loop once per batch a lane
//! receives from its feeder; [`Replayer`], which generates the next
//! request between two issues, calls it inline with runs of one.
//!
//! # What a request costs the engine
//!
//! One clock read and no atomic: the reading taken when backend call
//! *i* returns is both *i*'s completion and, carried across the loop's
//! own bookkeeping, the instant *i + 1* is issued at (see `issue_run`
//! for when a reading may be carried, and when it must be re-taken).
//! A lag sample is issue instant − target; a service sample is issue
//! instant → completion reading, so it spans the call plus the loop's
//! few nanoseconds of bookkeeping.

use std::io;

use cbs_obs::{Counter, Histogram, HistogramSnapshot, LocalHistogram, Registry, Stopwatch};
use cbs_trace::{IoRequest, Timestamp};

use crate::backend::StorageBackend;
use crate::error::ReplayError;
use crate::remap::{Remap, VolumeRemapper};

/// Slowest supported replay speed (×0.1 = ten-fold slow motion).
pub const MIN_MULTIPLIER: f64 = 0.1;

/// Fastest supported replay speed (×1000 compresses a day to ~86 s).
pub const MAX_MULTIPLIER: f64 = 1000.0;

/// How close to a deadline the scheduler stops sleeping and spins.
/// `thread::sleep` routinely overshoots by tens of microseconds; the
/// last stretch is burned in a spin loop so issue lag stays bounded by
/// scheduler jitter, not timer slack.
const SPIN_WINDOW_NANOS: u64 = 100_000;

/// Replay pacing: recorded timestamps, optionally scaled.
///
/// Constructed through [`Timing::recorded`] or [`Timing::multiplier`]
/// so an out-of-range rate can never reach the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    rate: f64,
}

impl Timing {
    /// Replay at recorded timestamps (×1).
    pub fn recorded() -> Timing {
        Timing { rate: 1.0 }
    }

    /// Replay at `rate` × recorded speed. `rate` must be finite and in
    /// ×[`MIN_MULTIPLIER`]…×[`MAX_MULTIPLIER`].
    pub fn multiplier(rate: f64) -> Result<Timing, ReplayError> {
        if !rate.is_finite() || !(MIN_MULTIPLIER..=MAX_MULTIPLIER).contains(&rate) {
            return Err(ReplayError::InvalidMultiplier(rate));
        }
        Ok(Timing { rate })
    }

    /// The speed-up factor (1.0 for recorded pacing).
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Default for Timing {
    fn default() -> Self {
        Timing::recorded()
    }
}

/// One run's offered schedule: recorded timestamp → target issue time
/// (nanoseconds on the run clock).
#[derive(Debug)]
pub(crate) struct Schedule {
    inv_rate: f64,
    t0: Option<Timestamp>,
    last_target_nanos: u64,
}

impl Schedule {
    pub(crate) fn new(timing: Timing) -> Self {
        Schedule {
            inv_rate: 1.0 / timing.rate(),
            t0: None,
            last_target_nanos: 0,
        }
    }

    /// The target of a request recorded at `ts`: its scaled offset from
    /// the first request. Saturating clamps beat wrapping for a
    /// pathological source, and the monotone max keeps a disordered
    /// stream from re-targeting the past.
    #[inline]
    pub(crate) fn target(&mut self, ts: Timestamp) -> u64 {
        let start = *self.t0.get_or_insert(ts);
        let delta = ts.saturating_duration_since(start);
        let scaled = delta.saturating_mul_f64(self.inv_rate);
        let target_nanos = scaled
            .as_micros()
            .saturating_mul(1000)
            .max(self.last_target_nanos);
        self.last_target_nanos = target_nanos;
        target_nanos
    }

    /// The offered load's duration so far: the latest target.
    pub(crate) fn offered_nanos(&self) -> u64 {
        self.last_target_nanos
    }
}

/// What a finished replay measured. All times are nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct ReplayReport {
    /// Requests issued to the backend.
    pub requests: u64,
    /// Payload bytes issued (sum of request lengths).
    pub bytes: u64,
    /// Read requests issued.
    pub reads: u64,
    /// Write requests issued.
    pub writes: u64,
    /// Wall-clock duration of the whole replay (including the final
    /// backend flush).
    pub wall_nanos: u64,
    /// The offered load's duration: the scaled target issue time of
    /// the last request — what a perfectly fast replay would take.
    pub offered_nanos: u64,
    /// Nanoseconds the scheduler spent sleeping ahead of deadlines
    /// (idle headroom; ~0 when saturated).
    pub slept_nanos: u64,
    /// Distribution of per-request issue lag (actual minus target
    /// issue time).
    pub issue_lag: HistogramSnapshot,
    /// Distribution of per-request backend service time.
    pub backend: HistogramSnapshot,
}

impl ReplayReport {
    /// Requests per second the trace *offered* at the configured rate.
    pub fn offered_rps(&self) -> f64 {
        if self.offered_nanos == 0 {
            return self.requests as f64 * 1e9;
        }
        self.requests as f64 / (self.offered_nanos as f64 / 1e9)
    }

    /// Requests per second actually sustained.
    pub fn achieved_rps(&self) -> f64 {
        if self.wall_nanos == 0 {
            return self.requests as f64 * 1e9;
        }
        self.requests as f64 / (self.wall_nanos as f64 / 1e9)
    }

    /// Achieved / offered throughput, in (0, 1]. 1.0 means the replay
    /// kept up with the offered schedule exactly; the acceptance gate
    /// requires ≥ 0.95 on the null backend at ×1000.
    pub fn achieved_offered_ratio(&self) -> f64 {
        if self.offered_nanos == 0 || self.wall_nanos == 0 {
            return 1.0;
        }
        (self.offered_nanos as f64 / self.wall_nanos as f64).min(1.0)
    }
}

/// The open-loop replayer: pair a [`StorageBackend`] with a [`Timing`]
/// and a [`Remap`], then [`run`](Replayer::run) a request stream
/// through it.
///
/// # Example
///
/// ```
/// use cbs_replay::{NullBackend, Remap, Replayer, Timing};
/// use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};
///
/// # fn main() -> Result<(), cbs_replay::ReplayError> {
/// let reqs = (0..100).map(|i| {
///     IoRequest::new(
///         VolumeId::new(i % 4),
///         if i % 3 == 0 { OpKind::Write } else { OpKind::Read },
///         (i as u64) * 4096,
///         4096,
///         Timestamp::from_micros(i as u64 * 50),
///     )
/// });
/// let mut replayer = Replayer::new(NullBackend::new())
///     .with_timing(Timing::multiplier(1000.0)?)
///     .with_remap(Remap::fan_out(2)?);
/// let report = replayer.run(reqs)?;
/// assert_eq!(report.requests, 100);
/// assert!(report.achieved_offered_ratio() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Replayer<B: StorageBackend> {
    backend: B,
    timing: Timing,
    remapper: VolumeRemapper,
    registry: Registry,
    /// The registry's `replay.*` handles.
    cumulative: IssueMetrics,
}

impl<B: StorageBackend> Replayer<B> {
    /// Creates a replayer with recorded (×1) pacing, identity
    /// remapping, and a private metric registry.
    pub fn new(backend: B) -> Self {
        Self::with_registry(backend, &Registry::new())
    }

    /// Creates a replayer whose metrics land in (a clone of) `registry`
    /// so replay counters export alongside the caller's.
    pub fn with_registry(backend: B, registry: &Registry) -> Self {
        Replayer {
            backend,
            timing: Timing::recorded(),
            remapper: VolumeRemapper::new(Remap::Identity),
            registry: registry.clone(),
            cumulative: IssueMetrics::aggregate(registry),
        }
    }

    /// Sets the pacing (builder style).
    pub fn with_timing(mut self, timing: Timing) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the volume remapping policy (builder style).
    pub fn with_remap(mut self, remap: Remap) -> Self {
        self.remapper = VolumeRemapper::new(remap);
        self
    }

    /// The metric registry this replayer records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Borrows the backend (e.g. to inspect a
    /// [`MemBackend`](crate::MemBackend)'s resident pages).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Consumes the replayer, returning the backend.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// Replays an infallible, time-ordered request stream
    /// (`Trace::iter_time_ordered`, `CorpusGenerator::stream()`, a
    /// `Vec`). Out-of-order timestamps are tolerated: their targets
    /// clamp to the latest deadline already issued.
    pub fn run<I>(&mut self, source: I) -> Result<ReplayReport, ReplayError>
    where
        I: IntoIterator<Item = IoRequest>,
    {
        self.run_observed(source, |_| {})
    }

    /// Replays a fallible stream (e.g. [`CbtRequests`]) — the replay
    /// stops at, and returns, the first source error.
    ///
    /// [`CbtRequests`]: crate::CbtRequests
    pub fn run_results<I, E>(&mut self, source: I) -> Result<ReplayReport, ReplayError>
    where
        I: IntoIterator<Item = Result<IoRequest, E>>,
        E: Into<ReplayError>,
    {
        let mut failed: Option<ReplayError> = None;
        let report = self.run_observed(
            source.into_iter().map_while(|r| match r {
                Ok(req) => Some(req),
                Err(e) => {
                    failed = Some(e.into());
                    None
                }
            }),
            |_| {},
        )?;
        match failed {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// [`run`](Replayer::run), additionally handing every *issued*
    /// (post-remap) request to `observe` — the hook the re-analysis
    /// equivalence tests use to feed the replayed stream back through
    /// the analysis workbench.
    pub fn run_observed<I, F>(
        &mut self,
        source: I,
        mut observe: F,
    ) -> Result<ReplayReport, ReplayError>
    where
        I: IntoIterator<Item = IoRequest>,
        F: FnMut(IoRequest),
    {
        let mut tally = IssueTally::default();
        let clock = Stopwatch::start();
        let mut schedule = Schedule::new(self.timing);
        let backend = &mut self.backend;
        let issue_all = || {
            for req in source {
                let target_nanos = schedule.target(req.ts());
                let out = self.remapper.map(req);
                observe(out);
                // The source, the remapper and the hook ran since the
                // last completion reading: a run of one, from a fresh
                // one.
                let now = clock.elapsed_nanos();
                issue_run(&[(target_nanos, out)], now, backend, &clock, &mut tally)?;
            }
            backend.flush()
        };
        let result = issue_all();
        let wall_nanos = clock.elapsed_nanos();
        self.cumulative.fold(&tally);
        match result {
            Ok(()) => {
                let run = IssueMetrics::default();
                run.fold(&tally);
                Ok(run.report(wall_nanos, schedule.offered_nanos()))
            }
            Err(source) => Err(ReplayError::Backend {
                backend: self.backend.name(),
                source,
            }),
        }
    }
}

/// One routed unit of work: the request's absolute target issue time
/// on the run clock, plus the post-remap request itself.
pub(crate) type LaneEntry = (u64, IoRequest);

/// What one issue loop counted over one run, in plain `u64`s it owns —
/// nothing reads a run's numbers until the run ends, so nothing in it
/// is shared while it is written. Folded into [`IssueMetrics`] handles
/// once, by whoever ran the loop, on **every** way out of it: a tally
/// dropped on the error path is requests the report loses.
#[derive(Debug, Default)]
pub(crate) struct IssueTally {
    pub(crate) requests: u64,
    pub(crate) bytes: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) slept: u64,
    pub(crate) issue_lag: LocalHistogram,
    pub(crate) backend: LocalHistogram,
}

/// The handles a run's [`IssueTally`] is [`fold`]ed into when it ends:
/// the registry's cumulative sets, and a fresh, unregistered set
/// ([`Default`]) from which that run's report is snapshotted — so a
/// report never includes an earlier run.
///
/// [`fold`]: IssueMetrics::fold
#[derive(Debug, Default)]
pub(crate) struct IssueMetrics {
    pub(crate) requests: Counter,
    pub(crate) bytes: Counter,
    pub(crate) reads: Counter,
    pub(crate) writes: Counter,
    pub(crate) slept: Counter,
    pub(crate) issue_lag: Histogram,
    pub(crate) backend_nanos: Histogram,
}

impl IssueMetrics {
    /// The registry's `replay.*` handles — the same names whether one
    /// lane or eight issued the requests.
    pub(crate) fn aggregate(registry: &Registry) -> Self {
        IssueMetrics {
            requests: registry.counter("replay.requests"),
            bytes: registry.counter("replay.bytes"),
            reads: registry.counter("replay.reads"),
            writes: registry.counter("replay.writes"),
            slept: registry.counter("replay.sleep_nanos"),
            issue_lag: registry.histogram("replay.issue_lag_nanos"),
            backend_nanos: registry.histogram("replay.backend_nanos"),
        }
    }

    /// The registry's `replay.lane<lane>.*` handles.
    pub(crate) fn lane(registry: &Registry, lane: usize) -> Self {
        IssueMetrics {
            requests: registry.counter(&format!("replay.lane{lane}.requests")),
            bytes: registry.counter(&format!("replay.lane{lane}.bytes")),
            reads: registry.counter(&format!("replay.lane{lane}.reads")),
            writes: registry.counter(&format!("replay.lane{lane}.writes")),
            slept: registry.counter(&format!("replay.lane{lane}.sleep_nanos")),
            issue_lag: registry.histogram(&format!("replay.lane{lane}.issue_lag_nanos")),
            backend_nanos: registry.histogram(&format!("replay.lane{lane}.backend_nanos")),
        }
    }

    /// Folds one run's tally in: counters add, histogram buckets add.
    pub(crate) fn fold(&self, tally: &IssueTally) {
        self.requests.add(tally.requests);
        self.bytes.add(tally.bytes);
        self.reads.add(tally.reads);
        self.writes.add(tally.writes);
        self.slept.add(tally.slept);
        self.issue_lag.absorb(&tally.issue_lag);
        self.backend_nanos.absorb(&tally.backend);
    }

    /// Snapshots these handles as a run's report.
    pub(crate) fn report(&self, wall_nanos: u64, offered_nanos: u64) -> ReplayReport {
        ReplayReport {
            requests: self.requests.get(),
            bytes: self.bytes.get(),
            reads: self.reads.get(),
            writes: self.writes.get(),
            wall_nanos,
            offered_nanos,
            slept_nanos: self.slept.get(),
            issue_lag: self.issue_lag.snapshot(),
            backend: self.backend_nanos.snapshot(),
        }
    }
}

/// The issue loop, over one materialised run of entries: pace each to
/// its target on the run clock, record the lag, issue it, record the
/// service time, count it. `now` is the caller's reading of `clock`,
/// taken after whatever it did to obtain the run; the reading the last
/// call completed at is handed back. Stops at, and returns, the first
/// I/O error; `tally` then holds everything up to and including the
/// failed call's lag and service samples, and the caller folds it all
/// the same.
///
/// **When a clock reading may be carried.** A reading is carried only
/// across this loop's own straight-line bookkeeping; a channel receive,
/// a sleep or yield, the source's `next`, the remapper and the
/// `observe` hook are each followed by a fresh read. So the reading
/// taken when backend call *i* returns is *i*'s completion and *i +
/// 1*'s issue instant, a caller reads the clock afresh before each run
/// (it just received, decoded or remapped), and `wait_until` hands back
/// the reading that satisfied it. One reading per *completion* is the
/// floor: behind a slow backend, request *k* of a past-due run is late
/// by the service time of the *k* − 1 before it, and one reading per
/// run would hide exactly that.
pub(crate) fn issue_run<B: StorageBackend>(
    run: &[LaneEntry],
    mut now: u64,
    backend: &mut B,
    clock: &Stopwatch,
    tally: &mut IssueTally,
) -> io::Result<u64> {
    for &(target_nanos, req) in run {
        now = wait_until(clock, target_nanos, now, &mut tally.slept);
        tally.issue_lag.record(now - target_nanos);
        let io = if req.is_write() {
            backend.write(req.volume(), req.offset(), req.len())
        } else {
            backend.read(req.volume(), req.offset(), req.len())
        };
        let done = clock.elapsed_nanos();
        tally.backend.record(done.saturating_sub(now));
        now = done;
        io?;
        tally.requests += 1;
        tally.bytes += u64::from(req.len());
        if req.is_write() {
            tally.writes += 1;
        } else {
            tally.reads += 1;
        }
    }
    Ok(now)
}

/// Sleeps (coarsely) then spins (precisely) from the reading `now`
/// until `clock` reaches `target_nanos`, and returns the reading that
/// did — `now` itself when already past due (the saturated fast path:
/// no clock read), a fresh one after every sleep and yield. The spin
/// *yields*: lanes spin concurrently, and on small hosts an unyielding
/// spinner would starve the lane (or the feeder) whose deadline is
/// actually due.
#[inline]
fn wait_until(clock: &Stopwatch, target_nanos: u64, mut now: u64, slept: &mut u64) -> u64 {
    while now < target_nanos {
        let remaining = target_nanos - now;
        if remaining > SPIN_WINDOW_NANOS {
            std::thread::sleep(std::time::Duration::from_nanos(
                remaining - SPIN_WINDOW_NANOS,
            ));
            let woke = clock.elapsed_nanos();
            *slept += woke.saturating_sub(now);
            now = woke;
        } else {
            std::hint::spin_loop();
            std::thread::yield_now();
            now = clock.elapsed_nanos();
        }
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, NullBackend};
    use cbs_trace::{OpKind, VolumeId};

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
    fn multiplier_bounds_enforced() {
        assert!(Timing::multiplier(0.1).is_ok());
        assert!(Timing::multiplier(1000.0).is_ok());
        assert!(Timing::multiplier(0.09).is_err());
        assert!(Timing::multiplier(1000.1).is_err());
        assert!(Timing::multiplier(f64::NAN).is_err());
        assert!(Timing::multiplier(f64::INFINITY).is_err());
        assert!(Timing::multiplier(-1.0).is_err());
    }

    #[test]
    fn replay_counts_everything() {
        let reqs = make(200, 10);
        let mut r =
            Replayer::new(NullBackend::new()).with_timing(Timing::multiplier(1000.0).unwrap());
        let report = r.run(reqs).unwrap();
        assert_eq!(report.requests, 200);
        assert_eq!(report.bytes, 200 * 4096);
        assert_eq!(report.reads, 150);
        assert_eq!(report.writes, 50);
        assert_eq!(report.issue_lag.count, 200);
        assert_eq!(report.backend.count, 200);
        assert!(report.achieved_offered_ratio() > 0.0);
        assert!(report.achieved_offered_ratio() <= 1.0);
    }

    #[test]
    fn recorded_pacing_takes_at_least_the_trace_span() {
        // 20 requests, 1 ms apart -> 19 ms of offered schedule.
        let reqs = make(20, 1000);
        let mut r = Replayer::new(NullBackend::new());
        let report = r.run(reqs).unwrap();
        assert_eq!(report.offered_nanos, 19 * 1_000_000);
        assert!(
            report.wall_nanos >= report.offered_nanos,
            "open loop cannot finish before the last deadline: {} < {}",
            report.wall_nanos,
            report.offered_nanos
        );
        // Pacing a sparse schedule means actually sleeping.
        assert!(report.slept_nanos > 0);
    }

    #[test]
    fn slow_motion_stretches_the_schedule() {
        // 10 requests 100 us apart at x0.5 -> 1.8 ms offered.
        let reqs = make(10, 100);
        let mut r = Replayer::new(NullBackend::new()).with_timing(Timing::multiplier(0.5).unwrap());
        let report = r.run(reqs).unwrap();
        assert_eq!(report.offered_nanos, 9 * 200 * 1000);
        assert!(report.wall_nanos >= report.offered_nanos);
    }

    #[test]
    fn out_of_order_timestamps_do_not_stall() {
        let mut reqs = make(50, 10);
        reqs.swap(10, 40); // violently disorder the stream
        let mut r =
            Replayer::new(NullBackend::new()).with_timing(Timing::multiplier(1000.0).unwrap());
        let report = r.run(reqs).unwrap();
        assert_eq!(report.requests, 50);
    }

    #[test]
    fn empty_source_reports_zeroes() {
        let mut r = Replayer::new(NullBackend::new());
        let report = r.run(Vec::new()).unwrap();
        assert_eq!(report.requests, 0);
        assert_eq!(report.offered_nanos, 0);
        assert!((report.achieved_offered_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn mem_backend_sees_remapped_writes() {
        let reqs = make(64, 1);
        let mut r = Replayer::new(MemBackend::new())
            .with_timing(Timing::multiplier(1000.0).unwrap())
            .with_remap(Remap::merge_into(8).unwrap());
        let report = r.run(reqs).unwrap();
        assert_eq!(report.writes, 16);
        assert!(r.backend().page_count() > 0);
        // merge:8 folds volumes 0..8 onto volume 0 only.
        let backend = r.into_backend();
        assert!(backend.resident_bytes() > 0);
    }

    #[test]
    fn observer_sees_post_remap_stream_in_order() {
        let reqs = make(30, 5);
        let mut seen = Vec::new();
        let mut r = Replayer::new(NullBackend::new())
            .with_timing(Timing::multiplier(1000.0).unwrap())
            .with_remap(Remap::fan_out(2).unwrap());
        r.run_observed(reqs.clone(), |req| seen.push(req)).unwrap();
        assert_eq!(seen.len(), 30);
        for (src, out) in reqs.iter().zip(&seen) {
            assert_eq!(src.ts(), out.ts());
            assert_eq!(src.len(), out.len());
            assert_eq!(src.op(), out.op());
            assert_eq!(out.volume().get() / 2, src.volume().get());
        }
    }

    #[test]
    fn registry_exports_replay_metrics() {
        let registry = Registry::new();
        let mut r = Replayer::with_registry(NullBackend::new(), &registry)
            .with_timing(Timing::multiplier(1000.0).unwrap());
        r.run(make(10, 1)).unwrap();
        let json = registry.to_json();
        assert!(json.contains("\"replay.requests\""));
        assert!(json.contains("\"replay.issue_lag_nanos\""));
        assert!(json.contains("\"replay.backend_nanos\""));
    }

    #[test]
    fn run_results_stops_at_source_error() {
        use cbs_trace::CbtError;
        let items: Vec<Result<IoRequest, CbtError>> = vec![
            Ok(make(1, 1)[0]),
            Err(CbtError::Corrupt {
                block: 0,
                detail: "synthetic test corruption",
            }),
            Ok(make(1, 1)[0]),
        ];
        let mut r = Replayer::new(NullBackend::new());
        let err = r.run_results(items).unwrap_err();
        assert!(matches!(err, ReplayError::Source(_)), "{err}");
        // The request before the error was still issued.
        assert_eq!(r.registry().snapshot().len(), 7);
    }
}
