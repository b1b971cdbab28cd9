//! Streaming moment summaries: [`Summary`].

/// Streaming summary of a sequence of `f64` observations: count, sum,
/// min, max, mean, and variance.
///
/// MERGEABLE: summaries form a commutative monoid under
/// [`merge`](Summary::merge) (Chan et al.'s parallel moment
/// combination; an empty summary is the identity), exact up to
/// floating-point rounding, so per-partition summaries combine into
/// the corpus-wide moments in any grouping order.
///
/// The mean and variance use Welford's online algorithm, so the summary
/// is numerically stable over hundreds of millions of observations and
/// two summaries can be merged associatively (parallel per-volume
/// analysis reduces per-thread summaries with `merge`).
///
/// # Example
///
/// ```
/// use cbs_stats::Summary;
///
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(s.count(), 8);
/// assert_eq!(s.mean(), Some(5.0));
/// assert_eq!(s.population_variance(), Some(4.0));
/// assert_eq!(s.min(), Some(2.0));
/// assert_eq!(s.max(), Some(9.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (a NaN would silently poison every derived
    /// statistic).
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations (0.0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Minimum observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Population variance (dividing by *n*), or `None` when empty.
    pub fn population_variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Sample variance (dividing by *n − 1*), or `None` with fewer than
    /// two observations.
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Population standard deviation, or `None` when empty.
    pub fn population_std_dev(&self) -> Option<f64> {
        self.population_variance().map(f64::sqrt)
    }

    /// Merges `other` into `self` (Chan et al. parallel combination).
    ///
    /// `a.merge(&b)` equals recording all of `a`'s and `b`'s
    /// observations into one summary, up to floating-point error.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_returns_none() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.population_variance(), None);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn single_observation() {
        let s: Summary = [3.5].into_iter().collect();
        assert_eq!(s.mean(), Some(3.5));
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
        assert_eq!(s.population_variance(), Some(0.0));
        assert_eq!(s.sample_variance(), None);
    }

    #[test]
    fn known_variance() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.population_variance(), Some(4.0));
        assert_eq!(s.population_std_dev(), Some(2.0));
        let sample = s.sample_variance().unwrap();
        assert!((sample - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole: Summary = all.iter().copied().collect();
        let mut left: Summary = all[..37].iter().copied().collect();
        let right: Summary = all[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!(
            (left.population_variance().unwrap() - whole.population_variance().unwrap()).abs()
                < 1e-9
        );
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: Summary = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn extend_accumulates() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0]);
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(2.0));
    }

    #[test]
    fn handles_negative_values() {
        let s: Summary = [-5.0, 5.0].into_iter().collect();
        assert_eq!(s.mean(), Some(0.0));
        assert_eq!(s.min(), Some(-5.0));
        assert_eq!(s.max(), Some(5.0));
    }
}
