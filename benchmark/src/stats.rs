//! Median and quartiles of a handful of run samples.

/// Order statistics of one metric over the runs of one invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median — the spread the
    /// regression bound is compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread computed here
/// agrees with one computed over the same values by the PR driver.
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller passes measured
/// samples of at least one run.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = sorted.len();
    let quantile = |i: usize| {
        if n == 1 {
            return sorted[0];
        }
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // May exceed 4 (or the subtraction go negative) at the clamped
        // ends: the exclusive method extrapolates there, as Python does.
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Summary {
        median: quantile(2),
        q1: quantile(1),
        q3: quantile(3),
        min: sorted[0],
        max: sorted[n - 1],
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 2.0, 2));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(summarize(&[0.0, 0.0]).spread(), 0.0);
    }
}
