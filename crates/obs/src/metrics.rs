//! The recording primitives: [`Counter`], [`Gauge`], [`Histogram`] —
//! and [`LocalHistogram`], a histogram's cells without the atomics for
//! a single writer that publishes when it is done.
//!
//! The first three are thin `Arc`s over atomics: cloning a handle observes
//! and mutates the same underlying metric, which is how one metric is
//! shared between a registry, a producer thread, and shard workers.
//! Every mutation is a relaxed atomic operation — values are exact
//! under concurrency (each event is counted exactly once), only
//! cross-metric ordering is unspecified, which is fine for telemetry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count.
///
/// ```
/// let c = cbs_obs::Counter::new();
/// c.inc();
/// c.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

// ORDERING: a counter is one independent monotonic cell. Relaxed is
// exact for the value itself (every fetch_add lands), and no other
// memory is published through it, so no Acquire/Release pairing exists
// to preserve.
impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping, like the underlying atomic).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable level: current value plus helpers for tracking extremes.
///
/// Unlike a [`Counter`], a gauge can go down (`dec`, `set`). The
/// in-flight-batches depth of a shard channel and its high-water mark
/// are the motivating uses.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

// ORDERING: like Counter, a gauge is a single telemetry cell that
// synchronizes nothing else — set/inc/dec/fetch_max are all Relaxed.
// Readers may observe a slightly stale level, never a torn one.
impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds one and returns the new level (e.g. "one more batch in
    /// flight").
    #[inline]
    pub fn inc(&self) -> u64 {
        self.value.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Subtracts one. Callers must pair every `dec` with a prior `inc`;
    /// like the underlying atomic, under-flowing wraps.
    #[inline]
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Raises the stored value to `v` if `v` is larger — a lock-free
    /// high-water mark.
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Log-linear sub-bucket resolution: each power-of-two octave splits
/// into `2^SUB_BITS` equal-width sub-buckets, bounding the relative
/// quantile error at `1/2^SUB_BITS` = 12.5%. (The previous pure
/// power-of-two layout had a 2× error band — at the issue-lag scales
/// the replay lane curve measures, a p50 of "somewhere in 4.2–8.4 ms"
/// was too coarse to rank lane counts.)
const SUB_BITS: u32 = 3;

/// Values below `2^(SUB_BITS+1)` get one exact bucket each (an octave
/// narrower than `2^SUB_BITS` values cannot be split into `2^SUB_BITS`
/// non-empty sub-buckets).
const LINEAR_BUCKETS: usize = 1 << (SUB_BITS + 1);

/// Total bucket count: 16 exact small-value buckets plus 8 sub-buckets
/// for each of the 60 remaining octaves `[2^e, 2^(e+1))`,
/// `e ∈ 4..=63` — 496 in all, ~4 KiB of counters per histogram.
const BUCKETS: usize = LINEAR_BUCKETS + (63 - SUB_BITS as usize) * (1 << SUB_BITS);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram of `u64` samples (latencies in nanoseconds,
/// request sizes in bytes, batch lengths, …).
///
/// Buckets are **log-linear**: each power-of-two octave splits into 8
/// equal-width sub-buckets (values below 16 get one exact bucket
/// each), so recording is still branch-free (`leading_zeros` plus a
/// shift) and the memory footprint constant (496 × 8 B of buckets).
/// Quantiles are approximate: the reported value is the upper bound of
/// the sub-bucket containing the quantile, clamped to the observed
/// maximum — within 12.5% (one eighth) of the true sample, vs. the 2×
/// band of a pure power-of-two layout.
///
/// ```
/// let h = cbs_obs::Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.sum, 106);
/// assert_eq!(snap.min, 1);
/// assert_eq!(snap.max, 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

/// Index of the bucket holding `v`: small values map one-to-one,
/// larger values to (octave, sub-bucket) where the sub-bucket is the
/// `SUB_BITS` bits below the leading one.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let sub = ((v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    LINEAR_BUCKETS + ((exp - SUB_BITS - 1) as usize) * (1 << SUB_BITS) + sub
}

/// Largest value stored in bucket `b` (inclusive upper bound).
fn bucket_upper_bound(b: usize) -> u64 {
    if b < LINEAR_BUCKETS {
        return b as u64;
    }
    let rel = b - LINEAR_BUCKETS;
    let exp = (rel >> SUB_BITS) as u32 + SUB_BITS + 1; // 4..=63
    let sub = (rel & ((1 << SUB_BITS) - 1)) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    // For the top sub-bucket of octave 63 this lands exactly on
    // u64::MAX without overflowing: 2^63 + 8·2^60 - 1.
    (1u64 << exp) + sub * width + (width - 1)
}

// ORDERING: every bucket/count/sum/min/max cell is updated with an
// independent Relaxed RMW — each sample is recorded exactly once, and
// cross-cell consistency is explicitly not promised (see `snapshot`
// docs). Nothing is published through the histogram, so Relaxed loads
// are likewise sufficient on the read side.
impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &self.inner;
        inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.min.fetch_min(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or `None` before the first record.
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        (count > 0).then(|| self.sum() as f64 / count as f64)
    }

    /// Approximate quantile (`q` clamped to `[0, 1]`): the upper bound
    /// of the bucket containing the `q`-th sample, clamped to the
    /// observed maximum. `None` before the first record.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let snapshot_count = self.count();
        if snapshot_count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; q = 1.0 maps to the last.
        let target = ((q * snapshot_count as f64).ceil() as u64).clamp(1, snapshot_count);
        let mut seen = 0u64;
        for (b, bucket) in self.inner.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Some(bucket_upper_bound(b).min(self.inner.max.load(Ordering::Relaxed)));
            }
        }
        Some(self.inner.max.load(Ordering::Relaxed))
    }

    /// Folds a single writer's [`LocalHistogram`] in: one add per
    /// non-empty bucket, then count, sum and the extremes. Equal to
    /// [`record`](Histogram::record)ing the same samples here one by
    /// one. `local` is read, not drained — absorb each exactly once.
    pub fn absorb(&self, local: &LocalHistogram) {
        let inner = &self.inner;
        for (mine, &theirs) in inner.buckets.iter().zip(&local.buckets) {
            if theirs != 0 {
                mine.fetch_add(theirs, Ordering::Relaxed);
            }
        }
        inner.count.fetch_add(local.count, Ordering::Relaxed);
        inner.sum.fetch_add(local.sum, Ordering::Relaxed);
        // An empty local holds the identities (MAX, 0): both no-ops.
        inner.min.fetch_min(local.min, Ordering::Relaxed);
        inner.max.fetch_max(local.max, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current state (buckets are read
    /// without a global lock, so a concurrent `record` may be partially
    /// visible; totals are exact once writers quiesce).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.inner.min.load(Ordering::Relaxed)
            },
            max: self.inner.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// Point-in-time summary of a [`Histogram`] (or a [`crate::SpanTimer`],
/// whose samples are nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Approximate median (bucket upper bound).
    pub p50: u64,
    /// Approximate 90th percentile (bucket upper bound).
    pub p90: u64,
    /// Approximate 99th percentile (bucket upper bound).
    pub p99: u64,
}

/// A [`Histogram`]'s cells as plain `u64`s, for **one writer that
/// publishes at a boundary**: a loop that records per item into state
/// nobody else reads until it ends (a replay lane's run) pays an
/// increment where [`Histogram::record`] pays five lock-prefixed
/// read-modify-writes, then hands the lot over with
/// [`Histogram::absorb`]. `record` takes `&mut self`, so the type —
/// not a comment — proves the single writer. Same bucket layout as
/// [`Histogram`]; snapshots and quantiles come from the histogram it
/// is absorbed into. Anything read while it is written stays a
/// [`Histogram`].
///
/// ```
/// let mut local = cbs_obs::LocalHistogram::new();
/// for v in [1u64, 2, 3, 100] {
///     local.record(v);
/// }
/// let h = cbs_obs::Histogram::new();
/// h.absorb(&local);
/// assert_eq!(h.snapshot().sum, 106);
/// ```
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (the sum wraps, like [`Histogram`]'s).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 12, "clones share the same cell");
    }

    #[test]
    fn gauge_levels_and_high_water() {
        let g = Gauge::new();
        assert_eq!(g.inc(), 1);
        assert_eq!(g.inc(), 2);
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(7);
        g.record_max(3);
        assert_eq!(g.get(), 7, "record_max never lowers");
        g.record_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn bucket_layout() {
        // Linear region: one exact bucket per value below 16.
        for v in 0..LINEAR_BUCKETS as u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
        // First log-linear octave [16, 32): 8 sub-buckets of width 2.
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(17), 16);
        assert_eq!(bucket_of(18), 17);
        assert_eq!(bucket_of(31), 23);
        assert_eq!(bucket_upper_bound(16), 17);
        assert_eq!(bucket_upper_bound(23), 31);
        // Octaves tile contiguously: bucket_of(32) starts the next one.
        assert_eq!(bucket_of(32), 24);
        // Top of the range lands in the last bucket, whose upper bound
        // is exactly u64::MAX (no overflow).
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
        // Every bucket index round-trips: upper bound maps back to it,
        // and bounds are strictly increasing.
        let mut prev = None;
        for b in 0..BUCKETS {
            let ub = bucket_upper_bound(b);
            assert_eq!(bucket_of(ub), b, "bucket {b} upper bound {ub}");
            if let Some(p) = prev {
                assert!(ub > p, "bounds must increase: bucket {b}");
            }
            prev = Some(ub);
        }
    }

    /// Satellite check for the log-linear layout: against an exact
    /// sorted reference, reported quantiles stay within the
    /// `1/2^SUB_BITS` = 12.5% relative-error bound on adversarial
    /// distributions (uniform, heavy-tailed, point masses, wide range).
    #[test]
    fn quantile_error_bounded_vs_exact_reference() {
        // Deterministic LCG so the test is reproducible.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let distributions: Vec<Vec<u64>> = vec![
            // Uniform over the ×1000 issue-lag scale (0..20ms in ns).
            (0..4096).map(|_| next() % 20_000_000).collect(),
            // Heavy tail: mostly small, occasional huge.
            (0..4096)
                .map(|i| {
                    if i % 97 == 0 {
                        next() % (1 << 40)
                    } else {
                        next() % 1000
                    }
                })
                .collect(),
            // Point masses (buckets with huge counts).
            (0..4096)
                .map(|i| [7u64, 8_388_607, 17_339_469][i % 3])
                .collect(),
            // Full-width range including extremes.
            (0..1024).map(|_| next()).chain([0, u64::MAX]).collect(),
        ];
        for (d, samples) in distributions.into_iter().enumerate() {
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let approx = h.quantile(q).expect("non-empty");
                // The bucket upper bound can only overshoot, and by at
                // most width/span = 1/2^SUB_BITS of the true value
                // (clamped to max, so never above the largest sample).
                assert!(approx >= exact, "dist {d} q{q}: {approx} < exact {exact}");
                let err = (approx - exact) as f64 / (exact.max(1)) as f64;
                assert!(
                    err <= 0.125 + 1e-9,
                    "dist {d} q{q}: err {err} ({approx} vs {exact})"
                );
            }
        }
    }

    #[test]
    fn histogram_summary() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let mean = h.mean().expect("non-empty");
        assert!((mean - 500.5).abs() < 1e-9, "{mean}");
        let p50 = h.quantile(0.5).expect("non-empty");
        // Exact median is 500; the bucket answer may overshoot by at
        // most one power of two.
        assert!((500..=1023).contains(&p50), "{p50}");
        assert_eq!(h.quantile(1.0), Some(1000), "clamped to observed max");
        let snap = h.snapshot();
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.count, 1000);
    }

    #[test]
    fn histogram_zero_and_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(h.quantile(0.0), Some(0));
    }

    #[test]
    fn concurrent_counts_are_exact() {
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
    }

    /// Every cell of a histogram, not just what a snapshot shows.
    fn cells(h: &Histogram) -> (Vec<u64>, HistogramSnapshot) {
        let buckets = h
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        (buckets, h.snapshot())
    }

    fn recorded(samples: &[u64]) -> Histogram {
        let h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        h
    }

    fn local(samples: &[u64]) -> LocalHistogram {
        let mut l = LocalHistogram::new();
        for &v in samples {
            l.record(v);
        }
        l
    }

    /// Arbitrary samples, weighted towards the layout's edges: the
    /// linear/log-linear seam (15, 16), both extremes, the small values
    /// and nanosecond scales a replay lane actually records.
    fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(
            prop_oneof![
                Just(0u64),
                Just(15u64),
                Just(16u64),
                Just(u64::MAX),
                0u64..64,
                0u64..20_000_000,
                0u64..=u64::MAX,
            ],
            0..200,
        )
    }

    #[test]
    fn absorbing_an_empty_local_changes_nothing() {
        let h = Histogram::new();
        h.absorb(&LocalHistogram::new());
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        assert_eq!(h.quantile(0.5), None);
        // The empty local's identities must not leak into a later
        // sample's extremes either.
        h.record(7);
        h.absorb(&LocalHistogram::new());
        assert_eq!((h.snapshot().min, h.snapshot().max), (7, 7));
    }

    proptest! {
        /// `absorb` of a local == `record` of the same samples, cell
        /// for cell and snapshot for snapshot.
        #[test]
        fn absorb_equals_recording_the_same_samples(samples in arb_samples()) {
            let absorbed = Histogram::new();
            absorbed.absorb(&local(&samples));
            prop_assert_eq!(cells(&absorbed), cells(&recorded(&samples)));
        }

        /// Absorbing two partials == absorbing their concatenation,
        /// also into a histogram that already holds samples.
        #[test]
        fn absorbing_partials_equals_absorbing_the_whole(
            before in arb_samples(),
            a in arb_samples(),
            b in arb_samples(),
        ) {
            let parts = recorded(&before);
            parts.absorb(&local(&a));
            parts.absorb(&local(&b));
            let whole = recorded(&before);
            whole.absorb(&local(&[a, b].concat()));
            prop_assert_eq!(cells(&parts), cells(&whole));
        }
    }
}
