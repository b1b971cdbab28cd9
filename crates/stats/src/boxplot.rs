//! Tukey boxplot summaries: [`BoxplotSummary`].

use crate::Quantiles;

/// The five-number summary plus Tukey whiskers and outlier count — the
/// exact data a boxplot figure renders.
///
/// The whiskers follow the common Tukey convention: the most extreme
/// samples within `1.5 × IQR` of the quartiles; samples beyond them are
/// outliers (the paper's Fig. 11 reports 147 outlier volumes this way).
///
/// # Example
///
/// ```
/// use cbs_stats::BoxplotSummary;
///
/// let b = BoxplotSummary::from_unsorted(vec![
///     1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 100.0,
/// ]).unwrap();
/// assert_eq!(b.median(), 5.0);
/// assert_eq!(b.outlier_count(), 1); // the 100.0
/// assert!(b.whisker_high() <= 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotSummary {
    min: f64,
    q1: f64,
    median: f64,
    q3: f64,
    max: f64,
    whisker_low: f64,
    whisker_high: f64,
    outlier_count: usize,
    count: usize,
}

impl BoxplotSummary {
    /// Builds a summary from unsorted samples; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_unsorted(samples: Vec<f64>) -> Option<Self> {
        Self::from_quantiles(&Quantiles::from_unsorted(samples))
    }

    /// Builds a summary from an existing quantile set; `None` when empty.
    pub fn from_quantiles(q: &Quantiles) -> Option<Self> {
        let q1 = q.quantile(0.25)?;
        let median = q.quantile(0.5)?;
        let q3 = q.quantile(0.75)?;
        let iqr = q3 - q1;
        let fence_low = q1 - 1.5 * iqr;
        let fence_high = q3 + 1.5 * iqr;
        let sorted = q.as_sorted();
        // Whiskers: the most extreme samples inside the fences. Q1/Q3
        // always sit inside their own fence, so the fallbacks never
        // move the whisker past the box.
        let whisker_low = sorted
            .iter()
            .copied()
            .find(|&x| x >= fence_low)
            .unwrap_or(q1);
        let whisker_high = sorted
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= fence_high)
            .unwrap_or(q3);
        let outlier_count = sorted
            .iter()
            .filter(|&&x| x < fence_low || x > fence_high)
            .count();
        Some(BoxplotSummary {
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
            whisker_low,
            whisker_high,
            outlier_count,
            count: sorted.len(),
        })
    }

    /// Smallest sample (including outliers).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// First quartile.
    pub fn q1(&self) -> f64 {
        self.q1
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.median
    }

    /// Third quartile.
    pub fn q3(&self) -> f64 {
        self.q3
    }

    /// Largest sample (including outliers).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Interquartile range (`q3 − q1`).
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Lower whisker (smallest sample within 1.5 × IQR of Q1).
    pub fn whisker_low(&self) -> f64 {
        self.whisker_low
    }

    /// Upper whisker (largest sample within 1.5 × IQR of Q3).
    pub fn whisker_high(&self) -> f64 {
        self.whisker_high
    }

    /// Number of samples outside the whiskers.
    pub fn outlier_count(&self) -> usize {
        self.outlier_count
    }

    /// Number of samples summarized.
    pub fn count(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_yields_none() {
        assert!(BoxplotSummary::from_unsorted(Vec::new()).is_none());
    }

    #[test]
    fn single_sample() {
        let b = BoxplotSummary::from_unsorted(vec![5.0]).unwrap();
        assert_eq!(b.min(), 5.0);
        assert_eq!(b.q1(), 5.0);
        assert_eq!(b.median(), 5.0);
        assert_eq!(b.q3(), 5.0);
        assert_eq!(b.max(), 5.0);
        assert_eq!(b.iqr(), 0.0);
        assert_eq!(b.outlier_count(), 0);
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn quartiles_of_uniform() {
        let b = BoxplotSummary::from_unsorted((1..=9).map(f64::from).collect()).unwrap();
        assert_eq!(b.q1(), 3.0);
        assert_eq!(b.median(), 5.0);
        assert_eq!(b.q3(), 7.0);
        assert_eq!(b.whisker_low(), 1.0);
        assert_eq!(b.whisker_high(), 9.0);
        assert_eq!(b.outlier_count(), 0);
    }

    #[test]
    fn detects_outliers_both_sides() {
        let mut samples: Vec<f64> = (10..=20).map(f64::from).collect();
        samples.push(1000.0);
        samples.push(-1000.0);
        let b = BoxplotSummary::from_unsorted(samples).unwrap();
        assert_eq!(b.outlier_count(), 2);
        assert_eq!(b.max(), 1000.0);
        assert_eq!(b.min(), -1000.0);
        assert!(b.whisker_high() <= 20.0);
        assert!(b.whisker_low() >= 10.0);
    }

    #[test]
    fn whiskers_clamp_to_extremes_without_outliers() {
        let b = BoxplotSummary::from_unsorted(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(b.whisker_low(), b.min());
        assert_eq!(b.whisker_high(), b.max());
    }

    #[test]
    fn ties_everywhere() {
        let b = BoxplotSummary::from_unsorted(vec![2.0; 50]).unwrap();
        assert_eq!(b.median(), 2.0);
        assert_eq!(b.iqr(), 0.0);
        assert_eq!(b.outlier_count(), 0);
    }
}
