//! Empirical cumulative distribution functions: [`Cdf`].

use crate::Quantiles;

/// An empirical CDF over `f64` samples, with figure-friendly plotting
/// helpers.
///
/// Backed by the exact sorted sample set ([`Quantiles`]); use
/// [`crate::LogHistogram::cdf_points`] for distributions too large to
/// materialize.
///
/// # Example
///
/// ```
/// use cbs_stats::Cdf;
///
/// let cdf = Cdf::from_unsorted(vec![1.0, 1.0, 2.0, 10.0]);
/// assert_eq!(cdf.fraction_at_or_below(1.0), 0.5);
/// assert_eq!(cdf.value_at(1.0), Some(10.0));
/// let pts = cdf.points();
/// assert_eq!(pts.first(), Some(&(1.0, 0.5)));
/// assert_eq!(pts.last(), Some(&(10.0, 1.0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cdf {
    quantiles: Quantiles,
}

impl Cdf {
    /// Builds from unsorted samples.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_unsorted(samples: Vec<f64>) -> Self {
        Cdf {
            quantiles: Quantiles::from_unsorted(samples),
        }
    }

    /// Builds from an existing quantile set.
    pub fn from_quantiles(quantiles: Quantiles) -> Self {
        Cdf { quantiles }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.quantiles.len()
    }

    /// Returns `true` if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.quantiles.is_empty()
    }

    /// The underlying quantiles.
    pub fn quantiles(&self) -> &Quantiles {
        &self.quantiles
    }

    /// The fraction of samples ≤ `x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        self.quantiles.fraction_at_or_below(x)
    }

    /// The value below which a `fraction` of samples fall
    /// (inverse CDF), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn value_at(&self, fraction: f64) -> Option<f64> {
        self.quantiles.quantile(fraction)
    }

    /// The full step-function points `(value, cumulative_fraction)`:
    /// one point per distinct sample value.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let sorted = self.quantiles.as_sorted();
        let n = sorted.len();
        let mut points: Vec<(f64, f64)> = Vec::new();
        for (i, &v) in sorted.iter().enumerate() {
            let frac = (i + 1) as f64 / n as f64;
            match points.last_mut() {
                Some(last) if last.0 == v => last.1 = frac,
                _ => points.push((v, frac)),
            }
        }
        points
    }

    /// At most `max_points` points, evenly spaced in cumulative
    /// fraction — what a plotted figure actually needs.
    ///
    /// # Panics
    ///
    /// Panics if `max_points` is zero.
    pub fn downsampled_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        assert!(max_points > 0, "max_points must be positive");
        let full = self.points();
        if full.len() <= max_points {
            return full;
        }
        let mut out = Vec::with_capacity(max_points);
        for k in 0..max_points {
            // evenly spaced target fractions ending exactly at 1.0
            let target = (k + 1) as f64 / max_points as f64;
            let idx = full.partition_point(|&(_, f)| f < target);
            let idx = idx.min(full.len() - 1);
            let p = full[idx];
            if out.last() != Some(&p) {
                out.push(p);
            }
        }
        out
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Cdf::from_unsorted(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf() {
        let cdf = Cdf::from_unsorted(Vec::new());
        assert!(cdf.is_empty());
        assert!(cdf.points().is_empty());
        assert_eq!(cdf.value_at(0.5), None);
    }

    #[test]
    fn points_collapse_ties() {
        let cdf = Cdf::from_unsorted(vec![2.0, 1.0, 2.0, 3.0]);
        assert_eq!(cdf.points(), vec![(1.0, 0.25), (2.0, 0.75), (3.0, 1.0)]);
    }

    #[test]
    fn points_are_monotone() {
        let cdf: Cdf = (0..1000).map(|i| f64::from(i % 37)).collect();
        let pts = cdf.points();
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn downsampling_preserves_endpoints_and_monotonicity() {
        let cdf: Cdf = (0..10_000).map(f64::from).collect();
        let pts = cdf.downsampled_points(50);
        assert!(pts.len() <= 50);
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn downsampling_noop_when_small() {
        let cdf = Cdf::from_unsorted(vec![1.0, 2.0]);
        assert_eq!(cdf.downsampled_points(10), cdf.points());
    }

    #[test]
    #[should_panic(expected = "max_points")]
    fn downsampling_rejects_zero() {
        let cdf = Cdf::from_unsorted(vec![1.0]);
        let _ = cdf.downsampled_points(0);
    }

    #[test]
    fn inverse_cdf() {
        let cdf = Cdf::from_unsorted(vec![10.0, 20.0, 30.0]);
        assert_eq!(cdf.value_at(0.0), Some(10.0));
        assert_eq!(cdf.value_at(0.5), Some(20.0));
        assert_eq!(cdf.value_at(1.0), Some(30.0));
    }
}
