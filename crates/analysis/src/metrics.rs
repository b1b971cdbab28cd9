//! Per-volume analysis results: [`VolumeMetrics`].

use cbs_cache::MissRatioCurve;
use cbs_stats::LogHistogram;
use cbs_trace::{TimeDelta, Timestamp, VolumeId};

use crate::config::AnalysisConfig;

/// Everything the analyzer measured about one volume — a passive record
/// consumed by the [`crate::findings`] modules.
///
/// Fields are public (this is a result record, not an invariant-bearing
/// type); the derived paper metrics (intensities, ratios, coverage) are
/// provided as methods.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeMetrics {
    /// The volume.
    pub id: VolumeId,
    /// Number of read requests.
    pub reads: u64,
    /// Number of write requests.
    pub writes: u64,
    /// Total bytes read.
    pub read_bytes: u64,
    /// Total bytes written.
    pub write_bytes: u64,
    /// Bytes written to blocks that had already been written
    /// (overwrite/update traffic).
    pub updated_bytes: u64,
    /// Timestamp of the first request.
    pub first_ts: Timestamp,
    /// Timestamp of the last request.
    pub last_ts: Timestamp,
    /// Maximum number of requests in any peak interval (1 minute).
    pub peak_interval_requests: u64,
    /// Distribution of read request sizes (bytes).
    pub read_size_hist: LogHistogram,
    /// Distribution of write request sizes (bytes).
    pub write_size_hist: LogHistogram,
    /// Distribution of inter-arrival times (µs).
    pub interarrival_hist: LogHistogram,
    /// Sorted indices of 10-minute intervals with ≥ 1 request
    /// (relative to the corpus epoch).
    pub active_intervals: Vec<u32>,
    /// Sorted indices of intervals with ≥ 1 read.
    pub read_active_intervals: Vec<u32>,
    /// Sorted indices of intervals with ≥ 1 write.
    pub write_active_intervals: Vec<u32>,
    /// Sorted indices of days with ≥ 1 request.
    pub active_days: Vec<u32>,
    /// Number of requests classified random (min distance to the
    /// previous 32 request offsets > 128 KiB).
    pub random_requests: u64,
    /// Unique blocks touched.
    pub wss_blocks: u64,
    /// Unique blocks read.
    pub wss_read_blocks: u64,
    /// Unique blocks written.
    pub wss_write_blocks: u64,
    /// Unique blocks written at least twice.
    pub wss_update_blocks: u64,
    /// Share of read traffic landing in the top-1 % / top-10 % read
    /// blocks (`None` if the volume has no reads).
    pub top_read_shares: Option<(f64, f64)>,
    /// Share of write traffic landing in the top-1 % / top-10 % write
    /// blocks (`None` if the volume has no writes).
    pub top_write_shares: Option<(f64, f64)>,
    /// Bytes read from read-mostly blocks.
    pub read_bytes_to_read_mostly: u64,
    /// Bytes written to write-mostly blocks.
    pub write_bytes_to_write_mostly: u64,
    /// Elapsed-time distribution of read-after-write pairs (µs).
    pub raw_hist: LogHistogram,
    /// Elapsed-time distribution of write-after-write pairs (µs).
    pub waw_hist: LogHistogram,
    /// Elapsed-time distribution of read-after-read pairs (µs).
    pub rar_hist: LogHistogram,
    /// Elapsed-time distribution of write-after-read pairs (µs).
    pub war_hist: LogHistogram,
    /// Elapsed-time distribution of update intervals (consecutive
    /// writes to the same block, reads allowed between; µs).
    pub update_interval_hist: LogHistogram,
    /// LRU miss-ratio curve of read block-accesses (exact, from reuse
    /// distances over the unified read/write stream).
    pub read_mrc: MissRatioCurve,
    /// LRU miss-ratio curve of write block-accesses.
    pub write_mrc: MissRatioCurve,
}

impl VolumeMetrics {
    /// Total requests.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Elapsed time between the first and last request.
    pub fn span(&self) -> TimeDelta {
        self.last_ts - self.first_ts
    }

    /// Average intensity in requests/second: total requests over the
    /// elapsed time between first and last request (Finding 1). A
    /// single-request volume (zero span) counts its requests against
    /// one second.
    pub fn avg_intensity(&self) -> f64 {
        let secs = self.span().as_secs_f64().max(1.0);
        self.requests() as f64 / secs
    }

    /// Peak intensity in requests/second: the busiest peak interval's
    /// request count, normalized to seconds (Finding 1).
    pub fn peak_intensity(&self, config: &AnalysisConfig) -> f64 {
        self.peak_interval_requests as f64 / config.peak_interval.as_secs_f64()
    }

    /// Burstiness ratio: peak over average intensity (Finding 2).
    pub fn burstiness_ratio(&self, config: &AnalysisConfig) -> f64 {
        self.peak_intensity(config) / self.avg_intensity()
    }

    /// Write-to-read request ratio; `None` when the volume has no
    /// reads (an infinite ratio — callers decide how to bin it).
    pub fn write_read_ratio(&self) -> Option<f64> {
        (self.reads > 0).then(|| self.writes as f64 / self.reads as f64)
    }

    /// Returns `true` if writes outnumber reads.
    pub fn is_write_dominant(&self) -> bool {
        self.writes > self.reads
    }

    /// Fraction of requests classified random (Finding 8).
    pub fn randomness_ratio(&self) -> f64 {
        if self.requests() == 0 {
            return 0.0;
        }
        self.random_requests as f64 / self.requests() as f64
    }

    /// Update coverage: update WSS over total WSS (Finding 11).
    pub fn update_coverage(&self) -> f64 {
        if self.wss_blocks == 0 {
            return 0.0;
        }
        self.wss_update_blocks as f64 / self.wss_blocks as f64
    }

    /// Total active time (number of active intervals × interval
    /// length).
    pub fn active_period(&self, config: &AnalysisConfig) -> TimeDelta {
        TimeDelta::from_micros(
            self.active_intervals.len() as u64 * config.active_interval.as_micros(),
        )
    }

    /// Read-active time.
    pub fn read_active_period(&self, config: &AnalysisConfig) -> TimeDelta {
        TimeDelta::from_micros(
            self.read_active_intervals.len() as u64 * config.active_interval.as_micros(),
        )
    }

    /// Write-active time.
    pub fn write_active_period(&self, config: &AnalysisConfig) -> TimeDelta {
        TimeDelta::from_micros(
            self.write_active_intervals.len() as u64 * config.active_interval.as_micros(),
        )
    }

    /// Mean read request size in bytes; `None` without reads.
    pub fn mean_read_size(&self) -> Option<f64> {
        (self.reads > 0).then(|| self.read_bytes as f64 / self.reads as f64)
    }

    /// Mean write request size in bytes; `None` without writes.
    pub fn mean_write_size(&self) -> Option<f64> {
        (self.writes > 0).then(|| self.write_bytes as f64 / self.writes as f64)
    }

    /// Fraction of read traffic going to read-mostly blocks
    /// (Finding 10); `None` without read traffic.
    pub fn read_mostly_share(&self) -> Option<f64> {
        (self.read_bytes > 0)
            .then(|| self.read_bytes_to_read_mostly as f64 / self.read_bytes as f64)
    }

    /// Fraction of write traffic going to write-mostly blocks
    /// (Finding 10); `None` without write traffic.
    pub fn write_mostly_share(&self) -> Option<f64> {
        (self.write_bytes > 0)
            .then(|| self.write_bytes_to_write_mostly as f64 / self.write_bytes as f64)
    }

    /// The LRU cache capacity (blocks) corresponding to a WSS
    /// fraction, at least one block (Finding 15).
    pub fn cache_blocks_for_fraction(&self, fraction: f64) -> usize {
        ((self.wss_blocks as f64 * fraction).ceil() as usize).max(1)
    }

    /// Read miss ratio under LRU with a cache of `fraction` × WSS;
    /// `None` if the volume has no read block-accesses.
    pub fn read_miss_ratio(&self, fraction: f64) -> Option<f64> {
        (self.read_mrc.total_accesses() > 0).then(|| {
            self.read_mrc
                .miss_ratio_at(self.cache_blocks_for_fraction(fraction))
        })
    }

    /// Write miss ratio under LRU with a cache of `fraction` × WSS;
    /// `None` if the volume has no write block-accesses.
    pub fn write_miss_ratio(&self, fraction: f64) -> Option<f64> {
        (self.write_mrc.total_accesses() > 0).then(|| {
            self.write_mrc
                .miss_ratio_at(self.cache_blocks_for_fraction(fraction))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> VolumeMetrics {
        VolumeMetrics {
            id: VolumeId::new(1),
            reads: 100,
            writes: 300,
            read_bytes: 100 * 8192,
            write_bytes: 300 * 4096,
            updated_bytes: 200 * 4096,
            first_ts: Timestamp::from_secs(0),
            last_ts: Timestamp::from_secs(400),
            peak_interval_requests: 120,
            read_size_hist: LogHistogram::default(),
            write_size_hist: LogHistogram::default(),
            interarrival_hist: LogHistogram::default(),
            active_intervals: vec![0, 1, 5],
            read_active_intervals: vec![0],
            write_active_intervals: vec![0, 1, 5],
            active_days: vec![0],
            random_requests: 100,
            wss_blocks: 1000,
            wss_read_blocks: 300,
            wss_write_blocks: 800,
            wss_update_blocks: 400,
            top_read_shares: Some((0.2, 0.5)),
            top_write_shares: Some((0.3, 0.6)),
            read_bytes_to_read_mostly: 50 * 8192,
            write_bytes_to_write_mostly: 250 * 4096,
            raw_hist: LogHistogram::default(),
            waw_hist: LogHistogram::default(),
            rar_hist: LogHistogram::default(),
            war_hist: LogHistogram::default(),
            update_interval_hist: LogHistogram::default(),
            read_mrc: MissRatioCurve::from_histogram(vec![10, 10], 5),
            write_mrc: MissRatioCurve::from_histogram(vec![40], 10),
        }
    }

    #[test]
    fn derived_intensities() {
        let m = dummy();
        let config = AnalysisConfig::default();
        assert_eq!(m.requests(), 400);
        assert_eq!(m.span(), TimeDelta::from_secs(400));
        assert_eq!(m.avg_intensity(), 1.0);
        assert_eq!(m.peak_intensity(&config), 2.0);
        assert_eq!(m.burstiness_ratio(&config), 2.0);
    }

    #[test]
    fn ratios_and_coverage() {
        let m = dummy();
        assert_eq!(m.write_read_ratio(), Some(3.0));
        assert!(m.is_write_dominant());
        assert_eq!(m.randomness_ratio(), 0.25);
        assert_eq!(m.update_coverage(), 0.4);
        assert_eq!(m.read_mostly_share(), Some(0.5));
        assert!((m.write_mostly_share().unwrap() - 250.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn active_periods() {
        let m = dummy();
        let config = AnalysisConfig::default();
        assert_eq!(m.active_period(&config), TimeDelta::from_mins(30));
        assert_eq!(m.read_active_period(&config), TimeDelta::from_mins(10));
        assert_eq!(m.write_active_period(&config), TimeDelta::from_mins(30));
    }

    #[test]
    fn mean_sizes() {
        let m = dummy();
        assert_eq!(m.mean_read_size(), Some(8192.0));
        assert_eq!(m.mean_write_size(), Some(4096.0));
        let mut no_reads = dummy();
        no_reads.reads = 0;
        assert_eq!(no_reads.mean_read_size(), None);
        assert_eq!(no_reads.write_read_ratio(), None);
    }

    #[test]
    fn cache_fractions_floor_at_one_block() {
        let mut m = dummy();
        m.wss_blocks = 10;
        assert_eq!(m.cache_blocks_for_fraction(0.01), 1);
        assert_eq!(m.cache_blocks_for_fraction(0.10), 1);
        m.wss_blocks = 1000;
        assert_eq!(m.cache_blocks_for_fraction(0.01), 10);
        assert_eq!(m.cache_blocks_for_fraction(0.10), 100);
    }

    #[test]
    fn miss_ratio_accessors() {
        let m = dummy();
        // read mrc: hits at capacity 10 = 20, total 25 → miss 0.2
        assert!((m.read_miss_ratio(0.01).unwrap() - 0.2).abs() < 1e-12);
        // write mrc: capacity 100 ≥ 1 → hits 40 of 50 → miss 0.2
        assert!((m.write_miss_ratio(0.10).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_span_guard() {
        let mut m = dummy();
        m.last_ts = m.first_ts;
        m.reads = 5;
        m.writes = 0;
        assert_eq!(m.avg_intensity(), 5.0); // counted against one second
    }
}
