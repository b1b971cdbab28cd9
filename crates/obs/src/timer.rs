//! Wall-clock timing that records into metrics: [`SpanTimer`] and
//! [`Stopwatch`].
//!
//! [`Stopwatch::start`] is the one place library code reads the clock:
//! clippy's `disallowed_methods` (configured in the workspace
//! `clippy.toml`) rejects `Instant::now` and `SystemTime::now`
//! everywhere else, so all timing is named, registered, and exported
//! instead of scattered across ad-hoc `Instant::now()` pairs.

use std::time::Instant;

use crate::metrics::{Histogram, HistogramSnapshot};

/// A started wall clock whose elapsed time the caller reads out
/// explicitly — the building block for accumulating time into a
/// [`crate::Counter`] (e.g. backpressure stall nanoseconds) without the
/// RAII shape of a [`SpanTimer`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    #[expect(clippy::disallowed_methods, reason = "the sanctioned clock")]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`start`](Stopwatch::start), saturating at
    /// `u64::MAX` (584 years).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A named duration metric: each completed span records its elapsed
/// nanoseconds into a shared [`Histogram`].
///
/// ```
/// let timer = cbs_obs::SpanTimer::new();
/// {
///     let _guard = timer.start(); // recorded on drop
/// }
/// timer.record_nanos(1_500); // manual recording also works
/// assert_eq!(timer.count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpanTimer {
    hist: Histogram,
}

impl SpanTimer {
    /// Creates a timer with no recorded spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a span; its wall-clock duration is recorded when the
    /// returned guard drops.
    pub fn start(&self) -> RunningSpan<'_> {
        RunningSpan {
            owner: self,
            clock: Stopwatch::start(),
        }
    }

    /// Records an externally measured duration.
    pub fn record_nanos(&self, nanos: u64) {
        self.hist.record(nanos);
    }

    /// Number of completed spans.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Total nanoseconds across all completed spans.
    pub fn total_nanos(&self) -> u64 {
        self.hist.sum()
    }

    /// Distribution summary of the recorded spans (nanoseconds).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.hist.snapshot()
    }
}

/// An in-flight span from [`SpanTimer::start`]; records on drop.
#[derive(Debug)]
pub struct RunningSpan<'a> {
    owner: &'a SpanTimer,
    clock: Stopwatch,
}

impl RunningSpan<'_> {
    /// Abandons the span without recording it (e.g. the guarded work
    /// failed and its duration would pollute the distribution).
    pub fn cancel(self) {
        std::mem::forget(self);
    }
}

impl Drop for RunningSpan<'_> {
    fn drop(&mut self) {
        self.owner.record_nanos(self.clock.elapsed_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
    }

    #[test]
    fn span_records_on_drop() {
        let timer = SpanTimer::new();
        {
            let _guard = timer.start();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(timer.count(), 1);
        assert!(
            timer.total_nanos() >= 2_000_000,
            "{}ns",
            timer.total_nanos()
        );
    }

    #[test]
    fn cancel_discards_the_span() {
        let timer = SpanTimer::new();
        timer.start().cancel();
        assert_eq!(timer.count(), 0);
    }

    #[test]
    fn manual_recording() {
        let timer = SpanTimer::new();
        timer.record_nanos(100);
        timer.record_nanos(300);
        assert_eq!(timer.count(), 2);
        assert_eq!(timer.total_nanos(), 400);
    }
}
