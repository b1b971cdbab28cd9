//! Findings 1-3 (F1, F2, F3) — load intensities and burstiness
//! (Fig. 5, Table II, Fig. 6).

use cbs_stats::{Cdf, TimeBins};
use cbs_trace::{IoRequest, Timestamp, Trace};

use crate::config::AnalysisConfig;
use crate::metrics::VolumeMetrics;

/// Fig. 5 — per-volume average and peak intensities, sorted by average
/// intensity descending (paired).
#[derive(Debug, Clone, PartialEq)]
pub struct IntensitySeries {
    /// Average intensity (req/s) per volume, descending.
    pub avg: Vec<f64>,
    /// Peak intensity (req/s) of the same volume at the same index.
    pub peak: Vec<f64>,
}

impl IntensitySeries {
    /// Builds the series.
    pub fn from_metrics(metrics: &[VolumeMetrics], config: &AnalysisConfig) -> Self {
        let mut pairs: Vec<(f64, f64)> = metrics
            .iter()
            .map(|m| (m.avg_intensity(), m.peak_intensity(config)))
            .collect();
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
        IntensitySeries {
            avg: pairs.iter().map(|p| p.0).collect(),
            peak: pairs.iter().map(|p| p.1).collect(),
        }
    }

    /// Fraction of volumes with average intensity above `threshold`
    /// req/s (paper: 1.90 % / 2.78 % above 100).
    pub fn fraction_avg_above(&self, threshold: f64) -> f64 {
        if self.avg.is_empty() {
            return 0.0;
        }
        self.avg.iter().filter(|&&a| a > threshold).count() as f64 / self.avg.len() as f64
    }

    /// Median of the average intensities.
    pub fn median_avg(&self) -> Option<f64> {
        cbs_stats::Quantiles::from_unsorted(self.avg.clone()).median()
    }

    /// The maximum peak intensity across volumes.
    pub fn max_peak(&self) -> Option<f64> {
        self.peak.iter().copied().reduce(f64::max)
    }
}

/// Table II — corpus-level intensities: all volumes aggregated into one
/// stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverallIntensity {
    /// Peak intensity of the aggregate stream (req/s).
    pub peak_rps: f64,
    /// Average intensity of the aggregate stream (req/s).
    pub avg_rps: f64,
}

impl OverallIntensity {
    /// The trace's rows, volume-major, through one [`OverallBins`]:
    /// binning is a sum, so it needs no time-ordered merge.
    pub fn from_trace(trace: &Trace, config: &AnalysisConfig) -> Option<Self> {
        let mut bins = OverallBins::new(trace.start()?, config);
        bins.add(trace.requests());
        bins.finish(config)
    }

    /// The overall burstiness ratio (paper: 2.11 AliCloud, 7.39 MSRC).
    pub fn burstiness_ratio(&self) -> f64 {
        self.peak_rps / self.avg_rps
    }
}

/// Table II's partial sums: request counts per peak interval under the
/// corpus epoch, and the latest timestamp. MERGEABLE: counts add and
/// the latest timestamp is a maximum, so partials over any split of a
/// corpus merge into its [`OverallIntensity`].
#[derive(Debug, Clone, PartialEq)]
pub struct OverallBins {
    epoch: Timestamp,
    bins: TimeBins,
    last: Option<Timestamp>,
}

impl OverallBins {
    /// Empty bins of `config`'s peak interval from `epoch`.
    pub fn new(epoch: Timestamp, config: &AnalysisConfig) -> Self {
        OverallBins {
            epoch,
            bins: TimeBins::new(config.peak_interval.as_micros()),
            last: None,
        }
    }

    /// Counts `requests`, in any order; like the analyzer, it counts a
    /// request before the epoch in the first interval.
    pub fn add(&mut self, requests: &[IoRequest]) {
        for req in requests {
            let rel = req.ts().saturating_duration_since(self.epoch);
            self.bins.add(rel.as_micros(), 1);
            self.last = self.last.max(Some(req.ts()));
        }
    }

    /// Adds `other`'s counts; both share the epoch and the interval.
    pub fn merge(&mut self, other: &OverallBins) {
        for (bin, n) in other.bins.iter() {
            self.bins.add(bin as u64 * other.bins.width(), n);
        }
        self.last = self.last.max(other.last);
    }

    /// The aggregate intensities; `None` when nothing was counted.
    pub fn finish(&self, config: &AnalysisConfig) -> Option<OverallIntensity> {
        let span = self.last?.saturating_duration_since(self.epoch);
        Some(OverallIntensity {
            peak_rps: self.bins.max_count() as f64 / config.peak_interval.as_secs_f64(),
            avg_rps: self.bins.total() as f64 / span.as_secs_f64().max(1.0),
        })
    }
}

/// Fig. 6 — the distribution of per-volume burstiness ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstinessDistribution {
    /// Empirical CDF of burstiness ratios.
    pub cdf: Cdf,
}

impl BurstinessDistribution {
    /// Builds the distribution.
    pub fn from_metrics(metrics: &[VolumeMetrics], config: &AnalysisConfig) -> Self {
        BurstinessDistribution {
            cdf: metrics.iter().map(|m| m.burstiness_ratio(config)).collect(),
        }
    }

    /// Fraction of volumes with burstiness ratio below `x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        self.cdf.fraction_at_or_below(x)
    }

    /// Fraction of volumes with burstiness ratio above `x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.cdf.fraction_at_or_below(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::testutil::fixture;

    #[test]
    fn series_is_sorted_and_paired() {
        let (_, metrics) = fixture();
        let config = AnalysisConfig::default();
        let s = IntensitySeries::from_metrics(&metrics, &config);
        assert_eq!(s.avg.len(), 3);
        assert!(s.avg.windows(2).all(|w| w[0] >= w[1]));
        // vol 2 (burst of 20 in ~20 ms, counted against one second)
        // has the highest average; its minute-normalized peak is below
        // its average — exactly the short-lived-volume artifact the
        // definitions allow.
        assert!(s.avg[0] >= 20.0 - 1e-9);
        // the steady volumes have peak >= avg
        for (a, p) in s.avg.iter().zip(&s.peak).skip(1) {
            assert!(p >= a, "peak {p} < avg {a}");
        }
    }

    #[test]
    fn fraction_and_median_helpers() {
        let (_, metrics) = fixture();
        let config = AnalysisConfig::default();
        let s = IntensitySeries::from_metrics(&metrics, &config);
        assert_eq!(s.fraction_avg_above(f64::MAX), 0.0);
        assert!((s.fraction_avg_above(0.0) - 1.0).abs() < 1e-12);
        assert!(s.median_avg().is_some());
        assert!(s.max_peak().unwrap() > 0.0);
    }

    #[test]
    fn overall_intensity_aggregates_volumes() {
        let (trace, _) = fixture();
        let config = AnalysisConfig::default();
        let o = OverallIntensity::from_trace(&trace, &config).unwrap();
        let span_secs = trace.span().unwrap().as_secs_f64();
        let expected_avg = trace.request_count() as f64 / span_secs;
        assert!((o.avg_rps - expected_avg).abs() < 1e-9);
        assert!(o.peak_rps >= o.avg_rps);
        assert!(o.burstiness_ratio() >= 1.0);
    }

    /// The merge the linear pass replaced: bins in global time order.
    fn time_ordered_reference(trace: &Trace, config: &AnalysisConfig) -> Option<OverallIntensity> {
        let start = trace.start()?;
        let mut bins = TimeBins::new(config.peak_interval.as_micros());
        for req in trace.iter_time_ordered() {
            bins.add((req.ts() - start).as_micros(), 1);
        }
        Some(OverallIntensity {
            peak_rps: bins.max_count() as f64 / config.peak_interval.as_secs_f64(),
            avg_rps: trace.request_count() as f64 / (trace.end()? - start).as_secs_f64().max(1.0),
        })
    }

    /// Per minute, volume 0 issues 3, 2, 0 and volume 1 issues 0, 2, 3:
    /// each volume peaks at 3, but the aggregate peaks at 4 in minute 1,
    /// where their requests interleave.
    fn interleaved_pair() -> Trace {
        use cbs_trace::{OpKind, VolumeId};
        let req = |v: u32, secs: u64| {
            IoRequest::new(
                VolumeId::new(v),
                OpKind::Write,
                0,
                4096,
                Timestamp::from_secs(secs),
            )
        };
        Trace::from_requests(vec![
            req(0, 0),
            req(0, 20),
            req(0, 40),
            req(0, 65),
            req(0, 100),
            req(1, 70),
            req(1, 110),
            req(1, 125),
            req(1, 150),
            req(1, 175),
        ])
    }

    #[test]
    fn overall_intensity_peak_exists_only_in_the_sum() {
        let trace = interleaved_pair();
        let config = AnalysisConfig::default();
        let o = OverallIntensity::from_trace(&trace, &config).unwrap();
        assert_eq!(o.peak_rps, 4.0 / 60.0);
        assert_eq!(o.avg_rps, 10.0 / 175.0);
        assert_eq!(Some(o), time_ordered_reference(&trace, &config));
        let (fixture, _) = fixture();
        assert_eq!(
            OverallIntensity::from_trace(&fixture, &config),
            time_ordered_reference(&fixture, &config)
        );
    }

    /// Through the by-volume driver the two volumes land on different
    /// workers at 2 threads (each waits for the other inside the
    /// source), so the peak minute exists only once the per-worker bins
    /// are merged.
    #[test]
    fn driver_merges_the_peak_across_workers() {
        let trace = interleaved_pair();
        let views: Vec<_> = trace.volumes().collect();
        let config = AnalysisConfig::default();
        let expected = OverallIntensity::from_trace(&trace, &config);
        for threads in [0, 2] {
            let both_taken = std::sync::Barrier::new(threads.max(1));
            let (metrics, overall) =
                crate::analyze_volumes(2, Timestamp::ZERO, &config, threads, |i| {
                    both_taken.wait();
                    views[i].requests()
                })
                .unwrap();
            assert_eq!(metrics.len(), 2);
            assert_eq!(overall, expected, "threads={threads}");
        }
    }

    #[test]
    fn overall_bins_merge_is_associative_and_splits_freely() {
        let (trace, _) = fixture();
        let config = AnalysisConfig::default();
        let epoch = trace.start().unwrap();
        let rows = trace.requests();
        let part = |range: std::ops::Range<usize>| {
            let mut bins = OverallBins::new(epoch, &config);
            bins.add(&rows[range]);
            bins
        };
        let (a, b, c) = (part(0..7), part(7..19), part(19..rows.len()));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left, part(0..rows.len()));
        assert_eq!(
            left.finish(&config),
            OverallIntensity::from_trace(&trace, &config)
        );
    }

    #[test]
    fn overall_intensity_empty_trace() {
        let config = AnalysisConfig::default();
        assert!(OverallIntensity::from_trace(&Trace::new(), &config).is_none());
    }

    #[test]
    fn burstiness_distribution() {
        let (_, metrics) = fixture();
        let config = AnalysisConfig::default();
        let b = BurstinessDistribution::from_metrics(&metrics, &config);
        assert_eq!(b.cdf.len(), 3);
        assert!((b.fraction_below(f64::MAX) - 1.0).abs() < 1e-12);
        assert!(b.fraction_above(0.5) > 0.0);
        assert!((b.fraction_below(1000.0) + b.fraction_above(1000.0) - 1.0).abs() < 1e-12);
    }
}
