//! Miss-ratio curves: [`MissRatioCurve`].

/// The LRU miss-ratio curve implied by a reuse-distance histogram.
///
/// Under LRU's stack property, an access with reuse distance `d` hits a
/// cache of capacity `c` iff `d < c`; cold (infinite-distance) accesses
/// always miss. The curve therefore is
/// `miss(c) = (cold + #{d ≥ c}) / total` — monotonically non-increasing
/// in `c`.
///
/// # Example
///
/// ```
/// use cbs_cache::ReuseDistances;
/// use cbs_trace::BlockId;
///
/// let mut rd = ReuseDistances::new();
/// // two rounds over 4 blocks
/// for &x in &[0u64, 1, 2, 3, 0, 1, 2, 3] {
///     rd.access(BlockId::new(x));
/// }
/// let mrc = rd.to_mrc();
/// assert_eq!(mrc.miss_ratio_at(4), 0.5);  // only the cold misses
/// assert_eq!(mrc.miss_ratio_at(3), 1.0);  // distance-3 reuses miss too
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MissRatioCurve {
    /// `hits_below[c]` = number of accesses with reuse distance < c,
    /// i.e. the hit count at capacity c. Index 0 is always 0.
    hits_below: Vec<u64>,
    total: u64,
}

impl MissRatioCurve {
    /// Builds a curve from a finite-distance histogram
    /// (`histogram[d]` = accesses with distance exactly `d`) plus the
    /// cold-miss count.
    pub fn from_histogram(histogram: Vec<u64>, cold_misses: u64) -> Self {
        let finite: u64 = histogram.iter().sum();
        let mut hits_below = Vec::with_capacity(histogram.len() + 1);
        hits_below.push(0);
        let mut acc = 0u64;
        for &count in &histogram {
            acc += count;
            hits_below.push(acc);
        }
        MissRatioCurve {
            hits_below,
            total: finite + cold_misses,
        }
    }

    /// Total accesses behind the curve.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// The miss ratio of an LRU cache with capacity `capacity` blocks.
    ///
    /// Returns 1.0 for an empty curve (no accesses ⇒ conventionally all
    /// misses, keeping callers' comparisons total).
    pub fn miss_ratio_at(&self, capacity: usize) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let idx = capacity.min(self.hits_below.len() - 1);
        let hits = self.hits_below[idx];
        1.0 - hits as f64 / self.total as f64
    }

    /// The hit ratio at `capacity` (complement of the miss ratio).
    pub fn hit_ratio_at(&self, capacity: usize) -> f64 {
        1.0 - self.miss_ratio_at(capacity)
    }

    /// The smallest capacity whose miss ratio is ≤ `target`, or `None`
    /// if even an unbounded cache misses more than `target` (compulsory
    /// misses dominate).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ target ≤ 1`.
    pub fn capacity_for_miss_ratio(&self, target: f64) -> Option<usize> {
        assert!(
            (0.0..=1.0).contains(&target),
            "target miss ratio must be in [0, 1]"
        );
        // miss ratio is non-increasing in capacity → binary search works,
        // but the vector is small; scan for clarity.
        (0..self.hits_below.len()).find(|&c| self.miss_ratio_at(c) <= target)
    }

    /// Samples the curve at `steps` evenly spaced capacities up to
    /// `max_capacity`, returning `(capacity, miss_ratio)` points.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn points(&self, max_capacity: usize, steps: usize) -> Vec<(usize, f64)> {
        assert!(steps > 0, "steps must be positive");
        (0..=steps)
            .map(|k| {
                let c = max_capacity * k / steps;
                (c, self.miss_ratio_at(c))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_curve_is_all_misses() {
        let mrc = MissRatioCurve::from_histogram(Vec::new(), 0);
        assert_eq!(mrc.total_accesses(), 0);
        assert_eq!(mrc.miss_ratio_at(0), 1.0);
        assert_eq!(mrc.miss_ratio_at(1000), 1.0);
    }

    #[test]
    fn cold_only_curve() {
        let mrc = MissRatioCurve::from_histogram(Vec::new(), 10);
        assert_eq!(mrc.miss_ratio_at(0), 1.0);
        assert_eq!(
            mrc.miss_ratio_at(100),
            1.0,
            "compulsory misses never disappear"
        );
    }

    #[test]
    fn simple_histogram() {
        // 4 accesses at distance 0, 4 at distance 2, 2 cold
        let mrc = MissRatioCurve::from_histogram(vec![4, 0, 4], 2);
        assert_eq!(mrc.total_accesses(), 10);
        assert_eq!(mrc.miss_ratio_at(0), 1.0);
        assert_eq!(mrc.miss_ratio_at(1), 0.6); // distance-0 hits
        assert_eq!(mrc.miss_ratio_at(2), 0.6);
        assert!((mrc.miss_ratio_at(3) - 0.2).abs() < 1e-12); // + distance-2 hits
        assert!((mrc.miss_ratio_at(999) - 0.2).abs() < 1e-12);
        assert!((mrc.hit_ratio_at(3) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone_non_increasing() {
        let mrc = MissRatioCurve::from_histogram(vec![3, 1, 4, 1, 5, 9, 2, 6], 7);
        let mut prev = f64::INFINITY;
        for c in 0..12 {
            let m = mrc.miss_ratio_at(c);
            assert!(m <= prev, "c={c}");
            prev = m;
        }
    }

    #[test]
    fn capacity_for_target() {
        let mrc = MissRatioCurve::from_histogram(vec![5, 5], 0);
        // miss(0)=1.0, miss(1)=0.5, miss(2)=0.0
        assert_eq!(mrc.capacity_for_miss_ratio(1.0), Some(0));
        assert_eq!(mrc.capacity_for_miss_ratio(0.5), Some(1));
        assert_eq!(mrc.capacity_for_miss_ratio(0.1), Some(2));
        let cold = MissRatioCurve::from_histogram(vec![], 3);
        assert_eq!(cold.capacity_for_miss_ratio(0.5), None);
    }

    #[test]
    fn points_sample_the_curve() {
        let mrc = MissRatioCurve::from_histogram(vec![10; 10], 0);
        let pts = mrc.points(10, 5);
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], (0, 1.0));
        assert_eq!(pts[5].0, 10);
        assert!(pts.windows(2).all(|w| w[1].1 <= w[0].1));
    }

    #[test]
    #[should_panic(expected = "target miss ratio")]
    fn rejects_bad_target() {
        let mrc = MissRatioCurve::from_histogram(vec![1], 0);
        let _ = mrc.capacity_for_miss_ratio(1.5);
    }
}
