//! Property-based tests for the statistics substrate.

use proptest::prelude::*;

use cbs_stats::{BoxplotSummary, Cdf, LogHistogram, Quantiles, TimeBins};

fn arb_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e9f64..1e9, 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles stay within the advertised relative error of
    /// the exact quantiles, for any positive-value sample set.
    #[test]
    fn histogram_quantile_error_bound(
        values in proptest::collection::vec(1u64..(1 << 48), 1..500),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
        bits in 4u32..10,
    ) {
        let mut h = LogHistogram::new(bits);
        for &v in &values {
            h.record(v);
        }
        let exact = Quantiles::from_unsorted(values.iter().map(|&v| v as f64).collect());
        for &q in &qs {
            let est = h.quantile(q).unwrap() as f64;
            // The histogram quantile equals the bucket midpoint of some
            // sample at a rank adjacent to the exact rank. It must be
            // within the relative error bound of *a sample value*, and
            // the nearest-rank exact quantile brackets it.
            // We check against the nearest-rank sample directly:
            let n = exact.len();
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let sample = exact.as_sorted()[rank - 1];
            let tol = h.relative_error_bound() * sample + 1.0;
            prop_assert!(
                (est - sample).abs() <= tol,
                "q={q} est={est} sample={sample} tol={tol}"
            );
        }
    }

    /// Histogram total and CDF endpoint invariants.
    #[test]
    fn histogram_totals(values in proptest::collection::vec(0u64..u64::MAX, 0..300)) {
        let mut h = LogHistogram::with_default_precision();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total(), values.len() as u64);
        let bucket_sum: u64 = h.iter_buckets().map(|(_, _, c)| c).sum();
        prop_assert_eq!(bucket_sum, h.total());
        if !values.is_empty() {
            let pts = h.cdf_points();
            prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
            prop_assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        }
    }

    /// Merging histograms equals recording the concatenated stream.
    #[test]
    fn histogram_merge_is_concat(
        a in proptest::collection::vec(0u64..(1 << 50), 0..200),
        b in proptest::collection::vec(0u64..(1 << 50), 0..200),
    ) {
        let mut ha = LogHistogram::new(6);
        let mut hb = LogHistogram::new(6);
        let mut hall = LogHistogram::new(6);
        for &v in &a { ha.record(v); hall.record(v); }
        for &v in &b { hb.record(v); hall.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha, hall);
    }

    /// Exact quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(samples in arb_samples()) {
        let q = Quantiles::from_unsorted(samples);
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=20 {
            let v = q.quantile(k as f64 / 20.0).unwrap();
            prop_assert!(v >= prev);
            prev = v;
        }
        prop_assert_eq!(q.quantile(0.0), q.min());
        prop_assert_eq!(q.quantile(1.0), q.max());
    }

    /// CDF round-trip: `value_at(f)` interpolates between the samples at
    /// ranks ⌊f(n−1)⌋ and ⌈f(n−1)⌉ (type-7), so at least ⌊f(n−1)⌋+1
    /// samples fall at or below it.
    #[test]
    fn cdf_inverse_consistency(samples in arb_samples(), f in 0.0f64..=1.0) {
        let cdf = Cdf::from_unsorted(samples);
        let n = cdf.len();
        let v = cdf.value_at(f).unwrap();
        let lower_rank = (f * (n - 1) as f64).floor() as usize + 1;
        prop_assert!(
            cdf.fraction_at_or_below(v) >= lower_rank as f64 / n as f64 - 1e-12,
            "f={f} v={v}"
        );
    }

    /// Boxplot invariants: ordering of the five numbers, whiskers inside
    /// fences, outliers counted consistently.
    #[test]
    fn boxplot_ordering(samples in arb_samples()) {
        let b = BoxplotSummary::from_unsorted(samples.clone()).unwrap();
        prop_assert!(b.min() <= b.q1());
        prop_assert!(b.q1() <= b.median());
        prop_assert!(b.median() <= b.q3());
        prop_assert!(b.q3() <= b.max());
        // Whiskers are actual samples inside the Tukey fences. They always
        // exist (the median sample is inside both fences) and bracket it.
        prop_assert!(b.whisker_low() >= b.min());
        prop_assert!(b.whisker_high() <= b.max());
        prop_assert!(b.whisker_low() <= b.whisker_high());
        prop_assert!(b.whisker_low() >= b.q1() - 1.5 * b.iqr() - 1e-6);
        prop_assert!(b.whisker_high() <= b.q3() + 1.5 * b.iqr() + 1e-6);
        prop_assert!(b.outlier_count() <= b.count());
        prop_assert_eq!(b.count(), samples.len());
    }

    /// TimeBins totals equal the number of added events; max ≤ total.
    #[test]
    fn timebins_totals(
        width in 1u64..1_000_000,
        events in proptest::collection::vec(0u64..(1 << 40), 0..300),
    ) {
        let mut bins = TimeBins::new(width);
        for &t in &events {
            bins.add(t, 1);
        }
        prop_assert_eq!(bins.total(), events.len() as u64);
        prop_assert!(bins.max_count() <= bins.total());
        prop_assert!(bins.iter().filter(|&(_, c)| c > 0).count() <= events.len());
        let iter_total: u64 = bins.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(iter_total, bins.total());
    }
}
