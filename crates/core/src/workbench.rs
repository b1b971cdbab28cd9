//! The high-level API: [`Workbench`] and [`Analysis`].

use std::ops::Deref;

use cbs_analysis::findings::{
    activeness::{ActiveDays, ActivePeriods, ActivenessSeries},
    adjacency::AdjacencyTimes,
    aggregation::AggregationBoxplots,
    basic::TraceTotals,
    cache::LruMissRatios,
    intensity::{BurstinessDistribution, IntensitySeries, OverallIntensity},
    interarrival::InterarrivalBoxplots,
    randomness::{top_traffic_volumes, RandomnessDistribution, TrafficRandomnessPoint},
    request_size::{MeanSizeDistribution, RequestSizeDistribution},
    rw_mostly::RwMostly,
    rw_ratio::WriteReadRatios,
    update_coverage::UpdateCoverage,
    update_interval::{IntervalGroupProportions, OverallUpdateIntervals, UpdateIntervalBoxplots},
};
use cbs_analysis::{analyze_volumes, AnalysisConfig, InvalidConfig, VolumeMetrics};
use cbs_synth::CorpusGenerator;
use cbs_trace::{IoRequest, Timestamp, Trace};

/// The default worker count of [`Workbench::analyze`] and
/// [`crate::StreamingWorkbench::new`]: the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A trace to characterize with the paper's analysis parameters — the
/// session object of the workbench.
///
/// # Example
///
/// ```
/// use cbs_core::Workbench;
/// use cbs_trace::{IoRequest, OpKind, Timestamp, Trace, VolumeId};
///
/// let trace = Trace::from_requests(vec![IoRequest::new(
///     VolumeId::new(0), OpKind::Write, 0, 4096, Timestamp::ZERO,
/// )]);
/// let analysis = Workbench::new(trace).analyze();
/// assert_eq!(analysis.totals().writes, 1);
/// ```
#[derive(Debug)]
pub struct Workbench {
    trace: Trace,
}

impl Workbench {
    /// Creates a workbench with the paper's default analysis
    /// parameters.
    pub fn new(trace: Trace) -> Self {
        Workbench { trace }
    }

    /// Characterizes every volume, fanning out across all available
    /// cores.
    pub fn analyze(self) -> Analysis {
        self.analyze_with_threads(default_threads())
    }

    /// Characterizes every volume with an explicit worker count (`0`
    /// runs inline on the calling thread) through [`analyze_volumes`].
    /// Each volume is analyzed whole by one worker, so every count gives
    /// bit-identical metrics and verdicts.
    ///
    /// # Panics
    ///
    /// Propagates worker panics: no partial [`Analysis`] is ever
    /// returned.
    pub fn analyze_with_threads(self, threads: usize) -> Analysis {
        let views: Vec<_> = self.trace.volumes().collect();
        let epoch = self.trace.start().unwrap_or(Timestamp::ZERO);
        Analysis::from_volumes(views.len(), epoch, threads, |i| views[i].requests())
    }
}

/// A completed analysis: the per-volume metrics plus accessors building
/// every table/figure data set of the paper.
///
/// It holds metrics, not a trace: Table II, a sum of per-minute counts,
/// is binned while the analysis is built. Every volume is analyzed
/// whole, so records computed separately under the corpus epoch combine
/// by concatenation: passing them to [`from_parts`](Analysis::from_parts)
/// gives the whole-corpus run, every finding verdict included.
#[derive(Debug, Clone)]
pub struct Analysis {
    overall: Option<OverallIntensity>,
    config: AnalysisConfig,
    metrics: Vec<VolumeMetrics>,
}

impl Analysis {
    /// Characterizes a synthetic corpus without holding it: each of
    /// `threads` workers (`0` runs inline) generates the volumes it
    /// analyzes ([`CorpusGenerator::generate_volume`]), under the
    /// generated trace's start. Equals [`Workbench`] over
    /// `generator.generate()`; worker panics propagate.
    pub fn from_generator(generator: &CorpusGenerator, threads: usize) -> Self {
        let first = generator.stream().next();
        let epoch = first.map_or(Timestamp::ZERO, |r| r.ts());
        Analysis::from_volumes(generator.profiles().len(), epoch, threads, |i| {
            generator.generate_volume(i).unwrap_or_default()
        })
    }

    /// [`analyze_volumes`] under the default config, which is valid.
    fn from_volumes<R: Deref<Target = [IoRequest]>>(
        volumes: usize,
        epoch: Timestamp,
        threads: usize,
        volume: impl Fn(usize) -> R + Sync,
    ) -> Self {
        let config = AnalysisConfig::default();
        match analyze_volumes(volumes, epoch, &config, threads, volume) {
            Ok((metrics, overall)) => Analysis {
                overall,
                config,
                metrics,
            },
            #[expect(
                clippy::unreachable,
                reason = "the default config is valid, so rejection is unreachable"
            )]
            Err(e) => unreachable!("default config rejected: {e}"),
        }
    }

    /// Assembles an analysis from already-computed per-volume records,
    /// each analyzed whole under the corpus epoch. `metrics` is
    /// re-sorted into ascending volume-id order. `trace` is read once,
    /// for Table II, and then dropped; an empty trace leaves
    /// [`overall_intensity`](Analysis::overall_intensity) at `None`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if `config` fails validation.
    pub fn from_parts(
        trace: Trace,
        config: AnalysisConfig,
        mut metrics: Vec<VolumeMetrics>,
    ) -> Result<Self, InvalidConfig> {
        config.validate()?;
        metrics.sort_by_key(|m| m.id);
        Ok(Analysis {
            overall: OverallIntensity::from_trace(&trace, &config),
            config,
            metrics,
        })
    }

    /// The per-volume metric records, ascending by volume id.
    pub fn metrics(&self) -> &[VolumeMetrics] {
        &self.metrics
    }

    /// The analysis parameters used.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Table I — corpus totals.
    pub fn totals(&self) -> TraceTotals {
        TraceTotals::from_metrics(&self.metrics, u64::from(self.config.block_size.bytes()))
    }

    /// Fig. 2(a) — corpus-wide request-size distributions.
    pub fn request_sizes(&self) -> RequestSizeDistribution {
        RequestSizeDistribution::from_metrics(&self.metrics)
    }

    /// Fig. 2(b) — per-volume mean request-size distributions.
    pub fn mean_sizes(&self) -> MeanSizeDistribution {
        MeanSizeDistribution::from_metrics(&self.metrics)
    }

    /// Fig. 3 — active-day distribution.
    pub fn active_days(&self) -> ActiveDays {
        ActiveDays::from_metrics(&self.metrics)
    }

    /// Fig. 4 — write-to-read ratios.
    pub fn write_read_ratios(&self) -> WriteReadRatios {
        WriteReadRatios::from_metrics(&self.metrics)
    }

    /// Fig. 5 — sorted per-volume intensities.
    pub fn intensity_series(&self) -> IntensitySeries {
        IntensitySeries::from_metrics(&self.metrics, &self.config)
    }

    /// Table II — aggregate intensities, binned when the analysis was
    /// built; `None` for an empty trace.
    pub fn overall_intensity(&self) -> Option<OverallIntensity> {
        self.overall
    }

    /// Fig. 6 — burstiness-ratio distribution.
    pub fn burstiness(&self) -> BurstinessDistribution {
        BurstinessDistribution::from_metrics(&self.metrics, &self.config)
    }

    /// Fig. 7 — inter-arrival percentile boxplots.
    pub fn interarrival_boxplots(&self) -> InterarrivalBoxplots {
        InterarrivalBoxplots::from_metrics(&self.metrics)
    }

    /// Fig. 8 — active-volume time series.
    pub fn activeness_series(&self) -> ActivenessSeries {
        ActivenessSeries::from_metrics(&self.metrics)
    }

    /// Fig. 9 — active-period distributions.
    pub fn active_periods(&self) -> ActivePeriods {
        ActivePeriods::from_metrics(&self.metrics, &self.config)
    }

    /// Fig. 10(a) — randomness-ratio distribution.
    pub fn randomness(&self) -> RandomnessDistribution {
        RandomnessDistribution::from_metrics(&self.metrics)
    }

    /// Fig. 10(b) — the top-`k` traffic volumes with their randomness.
    pub fn top_traffic(&self, k: usize) -> Vec<TrafficRandomnessPoint> {
        top_traffic_volumes(&self.metrics, k)
    }

    /// Fig. 11 — traffic-aggregation boxplots.
    pub fn aggregation(&self) -> AggregationBoxplots {
        AggregationBoxplots::from_metrics(&self.metrics)
    }

    /// Table III + Fig. 12 — read-/write-mostly traffic shares.
    pub fn rw_mostly(&self) -> RwMostly {
        RwMostly::from_metrics(&self.metrics)
    }

    /// Table IV + Fig. 13 — update coverage.
    pub fn update_coverage(&self) -> UpdateCoverage {
        UpdateCoverage::from_metrics(&self.metrics)
    }

    /// Figs. 14-15 + Table V — adjacency times and counts.
    pub fn adjacency(&self) -> AdjacencyTimes {
        AdjacencyTimes::from_metrics(&self.metrics)
    }

    /// Table VI — overall update-interval percentiles.
    pub fn update_intervals(&self) -> OverallUpdateIntervals {
        OverallUpdateIntervals::from_metrics(&self.metrics)
    }

    /// Fig. 16 — per-volume update-interval percentile boxplots.
    pub fn update_interval_boxplots(&self) -> UpdateIntervalBoxplots {
        UpdateIntervalBoxplots::from_metrics(&self.metrics)
    }

    /// Fig. 17 — update-interval duration-group proportions.
    pub fn interval_groups(&self) -> IntervalGroupProportions {
        IntervalGroupProportions::from_metrics(&self.metrics)
    }

    /// Fig. 18 — LRU miss-ratio boxplots.
    pub fn lru_miss_ratios(&self) -> LruMissRatios {
        LruMissRatios::from_metrics(&self.metrics, &self.config)
    }

    /// Section V — per-volume design recommendations with default
    /// thresholds.
    pub fn assessments(&self) -> Vec<cbs_analysis::recommend::VolumeAssessment> {
        cbs_analysis::recommend::assess_all(&self.metrics, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};

    fn workbench() -> Workbench {
        let mut reqs = Vec::new();
        for v in 0..4u32 {
            for i in 0..100u64 {
                reqs.push(IoRequest::new(
                    VolumeId::new(v),
                    if i % 4 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    (i % 20) * 4096,
                    4096,
                    Timestamp::from_secs(i * 30),
                ));
            }
        }
        Workbench::new(Trace::from_requests(reqs))
    }

    #[test]
    fn end_to_end_accessors() {
        let analysis = workbench().analyze_with_threads(2);
        assert_eq!(analysis.metrics().len(), 4);
        let totals = analysis.totals();
        assert_eq!(totals.volumes, 4);
        assert_eq!(totals.requests(), 400);
        assert!(analysis.overall_intensity().is_some());
        assert_eq!(analysis.intensity_series().avg.len(), 4);
        assert_eq!(analysis.burstiness().cdf.len(), 4);
        assert_eq!(analysis.active_days().cdf.len(), 4);
        assert!(analysis.write_read_ratios().fraction_write_dominant() > 0.9);
        assert_eq!(analysis.randomness().cdf.len(), 4);
        assert_eq!(analysis.top_traffic(2).len(), 2);
        assert!(analysis.update_coverage().median().is_some());
        assert!(
            analysis
                .adjacency()
                .count(cbs_analysis::findings::adjacency::PairKind::Waw)
                > 0
        );
        assert!(analysis.update_intervals().percentiles_hours().is_some());
        assert!(!analysis.lru_miss_ratios().write_small.is_empty());
        assert!(!analysis.aggregation().write_top1.is_empty());
        assert!(analysis.rw_mostly().overall_write_share.is_some());
        assert!(!analysis.activeness_series().active.is_empty());
        assert_eq!(analysis.active_periods().active_days.len(), 4);
        assert!(analysis.interarrival_boxplots().boxplots[0].is_some());
        assert!(analysis.request_sizes().write_p75().is_some());
        assert_eq!(analysis.mean_sizes().write_means.len(), 4);
        assert!(analysis.update_interval_boxplots().boxplots[0].is_some());
        assert!(analysis
            .interval_groups()
            .median(cbs_analysis::findings::update_interval::IntervalGroup::Under5Min)
            .is_some());
        assert_eq!(analysis.config().randomness_window, 32);
        assert_eq!(analysis.assessments().len(), 4);
    }

    #[test]
    fn analyze_with_threads_matches_one_thread_exactly() {
        let sequential = workbench().analyze_with_threads(1);
        for threads in [0, 2, 5, 16] {
            let run = workbench().analyze_with_threads(threads);
            assert_eq!(run.metrics(), sequential.metrics(), "threads={threads}");
        }
    }

    #[test]
    fn empty_trace_yields_empty_analysis() {
        for threads in [0, 2] {
            let analysis = Workbench::new(Trace::new()).analyze_with_threads(threads);
            assert!(analysis.metrics().is_empty());
        }
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
