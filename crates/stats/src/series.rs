//! Fixed-width time-binned counters: [`TimeBins`].

/// A sequence of fixed-width time bins accumulating `u64` counts.
///
/// This is the primitive behind Table II: the corpus's *peak
/// intensity* is the maximum count over one-minute bins. Bins are
/// indexed from the epoch; the structure grows lazily to the highest
/// bin touched.
///
/// # Example
///
/// ```
/// use cbs_stats::TimeBins;
///
/// let mut bins = TimeBins::new(60_000_000); // 1-minute bins in µs
/// bins.add(30_000_000, 1);   // minute 0
/// bins.add(90_000_000, 2);   // minute 1
/// bins.add(95_000_000, 1);   // minute 1
/// assert_eq!(bins.max_count(), 3);
/// assert_eq!(bins.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeBins {
    width: u64,
    counts: Vec<u64>,
}

impl TimeBins {
    /// Creates bins of `width` time units (the workbench uses
    /// microseconds throughout).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u64) -> Self {
        assert!(width > 0, "bin width must be non-zero");
        TimeBins {
            width,
            counts: Vec::new(),
        }
    }

    /// The bin width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Adds `n` to the bin containing time `t`.
    pub fn add(&mut self, t: u64, n: u64) {
        let idx = (t / self.width) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// The maximum bin count (0 when empty).
    pub fn max_count(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// The total across all bins.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates over `(bin_index, count)` for all allocated bins,
    /// including zero bins (figures plot gaps explicitly).
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_assign_by_width() {
        let mut b = TimeBins::new(10);
        b.add(0, 1);
        b.add(9, 1);
        b.add(10, 1);
        b.add(25, 1);
        let all: Vec<_> = b.iter().collect();
        assert_eq!(all, vec![(0, 2), (1, 1), (2, 1)]);
        assert_eq!(b.total(), 4);
    }

    #[test]
    fn empty_bins() {
        let b = TimeBins::new(5);
        assert_eq!(b.iter().count(), 0);
        assert_eq!(b.max_count(), 0);
        assert_eq!(b.total(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_width() {
        let _ = TimeBins::new(0);
    }

    #[test]
    fn max_and_non_empty() {
        let mut b = TimeBins::new(100);
        b.add(50, 7);
        b.add(250, 3);
        b.add(260, 5);
        assert_eq!(b.max_count(), 8);
        let idx: Vec<_> = b.iter().filter(|&(_, c)| c > 0).map(|(i, _)| i).collect();
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn iter_includes_zero_bins() {
        let mut b = TimeBins::new(10);
        b.add(25, 1);
        let all: Vec<_> = b.iter().collect();
        assert_eq!(all, vec![(0, 0), (1, 0), (2, 1)]);
    }
}
