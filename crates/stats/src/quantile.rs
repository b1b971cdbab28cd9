//! Exact quantiles over owned samples: [`Quantiles`].

/// Exact empirical quantiles over an owned, sorted sample set.
///
/// Uses the common linear-interpolation definition (type 7 in the
/// Hyndman–Fan taxonomy, the default of R and NumPy): for quantile
/// `q ∈ [0, 1]` over `n` sorted samples, the rank is
/// `h = q · (n − 1)` and the result interpolates between
/// `x[⌊h⌋]` and `x[⌈h⌉]`.
///
/// For distributions too large to hold in memory, use
/// [`crate::LogHistogram`] (bounded relative error).
///
/// # Example
///
/// ```
/// use cbs_stats::Quantiles;
///
/// let q = Quantiles::from_unsorted(vec![4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(q.quantile(0.0), Some(1.0));
/// assert_eq!(q.quantile(0.5), Some(2.5));
/// assert_eq!(q.quantile(1.0), Some(4.0));
/// assert_eq!(q.percentile(25.0), Some(1.75));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Builds from unsorted samples.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_unsorted(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "samples must not contain NaN"
        );
        samples.sort_by(f64::total_cmp);
        Quantiles { sorted: samples }
    }

    /// Builds from samples already sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if the samples are not sorted or contain NaN.
    pub fn from_sorted(samples: Vec<f64>) -> Self {
        assert!(
            samples.windows(2).all(|w| w[0] <= w[1]),
            "samples must be sorted ascending"
        );
        Quantiles { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn as_sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// The `q`-quantile for `q ∈ [0, 1]`, or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let h = q * (n - 1) as f64;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        let frac = h - lo as f64;
        Some(self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac)
    }

    /// The `p`-th percentile for `p ∈ [0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or NaN.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        self.quantile(p / 100.0)
    }

    /// The median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// The maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The fraction of samples ≤ `x` (the empirical CDF evaluated at `x`).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Evaluates the classic five groups of percentiles used throughout
    /// the paper's boxplot figures: 25th, 50th, 75th, 90th, 95th.
    pub fn paper_percentiles(&self) -> Option<[f64; 5]> {
        Some([
            self.percentile(25.0)?,
            self.percentile(50.0)?,
            self.percentile(75.0)?,
            self.percentile(90.0)?,
            self.percentile(95.0)?,
        ])
    }
}

impl FromIterator<f64> for Quantiles {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Quantiles::from_unsorted(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_returns_none() {
        let q = Quantiles::from_unsorted(Vec::new());
        assert!(q.is_empty());
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.median(), None);
        assert_eq!(q.min(), None);
        assert_eq!(q.max(), None);
        assert_eq!(q.fraction_at_or_below(3.0), 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let q = Quantiles::from_unsorted(vec![7.0]);
        for p in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(q.quantile(p), Some(7.0));
        }
    }

    #[test]
    fn interpolation_matches_numpy_type7() {
        // numpy.percentile([1,2,3,4], [25, 50, 75]) -> [1.75, 2.5, 3.25]
        let q = Quantiles::from_unsorted(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(q.percentile(25.0), Some(1.75));
        assert_eq!(q.percentile(50.0), Some(2.5));
        assert_eq!(q.percentile(75.0), Some(3.25));
    }

    #[test]
    fn sorted_constructor_validates() {
        let q = Quantiles::from_sorted(vec![1.0, 2.0, 2.0, 5.0]);
        assert_eq!(q.len(), 4);
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn sorted_constructor_rejects_unsorted() {
        let _ = Quantiles::from_sorted(vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_samples() {
        let _ = Quantiles::from_unsorted(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_out_of_range_quantile() {
        let q = Quantiles::from_unsorted(vec![1.0]);
        let _ = q.quantile(1.5);
    }

    #[test]
    fn fraction_at_or_below_counts_ties() {
        let q = Quantiles::from_unsorted(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(q.fraction_at_or_below(0.5), 0.0);
        assert_eq!(q.fraction_at_or_below(2.0), 0.75);
        assert_eq!(q.fraction_at_or_below(3.0), 1.0);
        assert_eq!(q.fraction_at_or_below(99.0), 1.0);
    }

    #[test]
    fn paper_percentiles_present() {
        let q: Quantiles = (1..=100).map(f64::from).collect();
        let [p25, p50, p75, p90, p95] = q.paper_percentiles().unwrap();
        assert!((p25 - 25.75).abs() < 1e-9);
        assert!((p50 - 50.5).abs() < 1e-9);
        assert!((p75 - 75.25).abs() < 1e-9);
        assert!((p90 - 90.1).abs() < 1e-9);
        assert!((p95 - 95.05).abs() < 1e-9);
    }

    #[test]
    fn collects_from_iterator() {
        let q: Quantiles = [3.0, 1.0, 2.0].into_iter().collect();
        assert_eq!(q.as_sorted(), &[1.0, 2.0, 3.0]);
    }
}
