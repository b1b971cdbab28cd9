//! Log-linear (HDR-style) histograms over `u64` values: [`LogHistogram`].

/// A log-linear histogram over `u64` values with bounded relative error.
///
/// MERGEABLE: histograms of the same precision form a commutative
/// monoid under [`merge`] (bucket counts and totals add; a fresh
/// histogram is the identity), so per-partition histograms combine
/// into the exact corpus-wide distribution in any grouping order.
///
/// [`merge`]: LogHistogram::merge
///
/// The value space is divided into buckets that are exact below
/// `2^precision_bits` and grow geometrically above it, with
/// `2^precision_bits` linear sub-buckets per power of two. Any recorded
/// value is therefore represented by its bucket with relative error at
/// most `2^-precision_bits`.
///
/// This is the workhorse for elapsed-time distributions (inter-arrival
/// times, RAW/WAW/RAR/WAR times, update intervals): a full corpus has
/// hundreds of millions of observations spanning ten orders of magnitude
/// (microseconds to weeks), which fit here in a few KiB with ~1 %
/// quantile error at the default 6 precision bits.
///
/// # Example
///
/// ```
/// use cbs_stats::LogHistogram;
///
/// let mut h = LogHistogram::new(6);
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let median = h.quantile(0.5).unwrap();
/// // within 2^-6 relative error of the true median 500
/// assert!((median as f64 - 500.0).abs() / 500.0 < 1.0 / 64.0 + 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    precision_bits: u32,
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    /// Maximum supported precision (sub-bucket bits per power of two).
    pub const MAX_PRECISION_BITS: u32 = 16;

    /// Creates a histogram with the given precision.
    ///
    /// `precision_bits = b` bounds the relative error of any
    /// reconstructed value by `2^-b`. The bucket array size is
    /// `(65 - b) << b`; the default used across the workbench is 6
    /// (≈ 1.6 % error, 3,776 buckets).
    ///
    /// # Panics
    ///
    /// Panics if `precision_bits` is zero or exceeds
    /// [`Self::MAX_PRECISION_BITS`].
    pub fn new(precision_bits: u32) -> Self {
        assert!(
            (1..=Self::MAX_PRECISION_BITS).contains(&precision_bits),
            "precision_bits must be in 1..={}, got {precision_bits}",
            Self::MAX_PRECISION_BITS
        );
        let buckets = Self::bucket_count(precision_bits);
        LogHistogram {
            precision_bits,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// Creates a histogram with the workbench default precision (6 bits,
    /// ≈ 1.6 % relative error).
    pub fn with_default_precision() -> Self {
        Self::new(6)
    }

    fn bucket_count(b: u32) -> usize {
        // Exact region: 2^b buckets for values 0..2^b. Each exponent
        // e in b..64 contributes 2^b sub-buckets.
        ((64 - b as usize) + 1) << b
    }

    /// The precision in bits.
    pub fn precision_bits(&self) -> u32 {
        self.precision_bits
    }

    /// The guaranteed relative-error bound (`2^-precision_bits`).
    pub fn relative_error_bound(&self) -> f64 {
        1.0 / (1u64 << self.precision_bits) as f64
    }

    #[inline]
    fn index_of(&self, value: u64) -> usize {
        let b = self.precision_bits;
        if value < (1u64 << b) {
            value as usize
        } else {
            let e = 63 - value.leading_zeros(); // value in [2^e, 2^{e+1}), e >= b
            let sub = (value >> (e - b)) as usize - (1usize << b);
            (((e - b + 1) as usize) << b) + sub
        }
    }

    /// Lower bound (inclusive) of the value range of bucket `index`.
    fn bucket_lower(&self, index: usize) -> u64 {
        let b = self.precision_bits;
        let base = 1usize << b;
        if index < base {
            index as u64
        } else {
            let group = (index >> b) - 1; // 0-based group above the exact region
            let sub = (index & (base - 1)) as u64;
            let e = b + group as u32;
            (1u64 << e) + (sub << (e - b))
        }
    }

    /// Width of bucket `index` in value space.
    fn bucket_width(&self, index: usize) -> u64 {
        let b = self.precision_bits;
        if index < (1usize << b) {
            1
        } else {
            let group = (index >> b) - 1;
            1u64 << (group as u32)
        }
    }

    /// Representative value of bucket `index` (the bucket midpoint).
    fn bucket_mid(&self, index: usize) -> u64 {
        let lo = self.bucket_lower(index);
        lo + (self.bucket_width(index) - 1) / 2
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value`.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        let idx = self.index_of(value);
        self.counts[idx] += n;
        self.total += n;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as a representative value, or
    /// `None` when empty.
    ///
    /// The result is the midpoint of the bucket containing the quantile
    /// rank, hence within the histogram's relative-error bound of the
    /// exact sample quantile.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.total == 0 {
            return None;
        }
        // rank of the q-quantile among `total` observations, 1-based
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_mid(idx));
            }
        }
        // cbs-lint: allow(no-panic-in-lib) -- rank <= total == sum(counts), so the scan above always returns
        unreachable!("total is the sum of counts");
    }

    /// The fraction of observations ≤ `value` (bucket-granular: counts
    /// every observation in buckets wholly or partly below `value`,
    /// using the bucket representative for the comparison).
    pub fn fraction_at_or_below(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let idx = self.index_of(value);
        let below: u64 = self.counts[..=idx].iter().sum();
        below as f64 / self.total as f64
    }

    /// Merges another histogram of the same precision into this one.
    ///
    /// # Panics
    ///
    /// Panics if the precisions differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            self.precision_bits, other.precision_bits,
            "cannot merge histograms of different precisions"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Iterates over non-empty buckets as
    /// `(lower_bound, width, count)` triples, ascending.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_lower(i), self.bucket_width(i), c))
    }

    /// Produces `(value, cumulative_fraction)` points suitable for
    /// plotting the distribution's CDF, one point per non-empty bucket.
    pub fn cdf_points(&self) -> Vec<(u64, f64)> {
        let mut points = Vec::new();
        let mut seen = 0u64;
        if self.total == 0 {
            return points;
        }
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                seen += c;
                points.push((self.bucket_mid(idx), seen as f64 / self.total as f64));
            }
        }
        points
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::with_default_precision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let mut h = LogHistogram::new(6);
        for v in 0..64u64 {
            h.record(v);
        }
        // every value below 2^6 lands in its own bucket
        for v in 0..64u64 {
            let idx = h.index_of(v);
            assert_eq!(h.bucket_lower(idx), v);
            assert_eq!(h.bucket_width(idx), 1);
            assert_eq!(h.bucket_mid(idx), v);
        }
    }

    #[test]
    fn bucket_lower_roundtrips_index() {
        let h = LogHistogram::new(4);
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            100,
            1000,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let idx = h.index_of(v);
            let lo = h.bucket_lower(idx);
            let width = h.bucket_width(idx);
            assert!(lo <= v, "v={v} lo={lo}");
            assert!(v - lo < width, "v={v} lo={lo} width={width}");
            // bucket_lower is itself in the same bucket
            assert_eq!(h.index_of(lo), idx, "v={v}");
        }
    }

    #[test]
    fn quantile_error_bound_uniform() {
        let mut h = LogHistogram::new(6);
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, exact) in [
            (0.25, 25_000.0),
            (0.5, 50_000.0),
            (0.9, 90_000.0),
            (0.99, 99_000.0),
        ] {
            let est = h.quantile(q).unwrap() as f64;
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= h.relative_error_bound() + 1e-9,
                "q={q} est={est} rel={rel}"
            );
        }
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::with_default_precision();
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.fraction_at_or_below(100), 0.0);
        assert!(h.cdf_points().is_empty());
    }

    #[test]
    fn record_n_bulk() {
        let mut h = LogHistogram::new(6);
        h.record_n(10, 5);
        h.record_n(1000, 5);
        assert_eq!(h.total(), 10);
        assert_eq!(h.quantile(0.0), Some(10));
        assert!(h.quantile(1.0).unwrap() >= 992); // within bucket of 1000
    }

    #[test]
    fn quantile_extremes() {
        let mut h = LogHistogram::new(8);
        h.record(5);
        h.record(500);
        h.record(50_000);
        assert_eq!(h.quantile(0.0), Some(5));
        let p100 = h.quantile(1.0).unwrap() as f64;
        assert!((p100 - 50_000.0).abs() / 50_000.0 <= h.relative_error_bound());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::new(6);
        let mut b = LogHistogram::new(6);
        a.record_n(10, 3);
        b.record_n(10, 2);
        b.record(99);
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.fraction_at_or_below(10), 5.0 / 6.0);
    }

    #[test]
    #[should_panic(expected = "different precisions")]
    fn merge_rejects_mismatched_precision() {
        let mut a = LogHistogram::new(6);
        let b = LogHistogram::new(7);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "precision_bits")]
    fn rejects_zero_precision() {
        let _ = LogHistogram::new(0);
    }

    #[test]
    fn fraction_at_or_below_monotone() {
        let mut h = LogHistogram::new(6);
        for v in [1u64, 10, 100, 1000, 10_000] {
            h.record(v);
        }
        let mut prev = 0.0;
        for v in [0u64, 1, 5, 50, 500, 5_000, 50_000] {
            let f = h.fraction_at_or_below(v);
            assert!(f >= prev, "v={v}");
            prev = f;
        }
        assert_eq!(h.fraction_at_or_below(u64::MAX), 1.0);
    }

    #[test]
    fn cdf_points_are_monotone_and_end_at_one() {
        let mut h = LogHistogram::new(6);
        for v in [3u64, 3, 700, 40_000, 40_000, 40_000] {
            h.record(v);
        }
        let pts = h.cdf_points();
        assert!(!pts.is_empty());
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iter_buckets_accounts_for_total() {
        let mut h = LogHistogram::new(5);
        for v in 0..1000u64 {
            h.record(v * 17);
        }
        let sum: u64 = h.iter_buckets().map(|(_, _, c)| c).sum();
        assert_eq!(sum, h.total());
    }

    #[test]
    fn max_value_does_not_overflow() {
        let mut h = LogHistogram::new(6);
        h.record(u64::MAX);
        assert_eq!(h.total(), 1);
        assert!(h.quantile(1.0).is_some());
    }
}
