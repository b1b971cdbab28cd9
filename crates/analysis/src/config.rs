//! Analysis parameters: [`AnalysisConfig`].

use cbs_trace::{BlockSize, TimeDelta};

/// Parameters of the trace analysis, defaulting to the paper's choices.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// Block unit for all block-granular metrics (4 KiB).
    pub block_size: BlockSize,
    /// Number of preceding requests inspected by the randomness metric
    /// (32, following DiskAccel / VMware's characterization; at most
    /// [`MAX_RANDOMNESS_WINDOW`]).
    pub randomness_window: usize,
    /// Minimum-distance threshold in bytes beyond which a request is
    /// *random* (128 KiB).
    pub randomness_threshold: u64,
    /// Interval defining fine-grained activeness (10 minutes).
    pub active_interval: TimeDelta,
    /// Interval defining peak intensity (1 minute).
    pub peak_interval: TimeDelta,
    /// Traffic share above which a block is read-mostly / write-mostly
    /// (0.95).
    pub rw_mostly_threshold: f64,
    /// The two "top blocks" fractions of the aggregation analysis
    /// (1 % and 10 %).
    pub top_fractions: (f64, f64),
    /// The two cache sizes of the LRU analysis, as fractions of a
    /// volume's WSS (1 % and 10 %).
    pub cache_fractions: (f64, f64),
    /// Precision of the elapsed-time histograms (relative error
    /// `2^-bits`).
    pub hist_precision_bits: u32,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            block_size: BlockSize::DEFAULT,
            randomness_window: 32,
            randomness_threshold: 128 * 1024,
            active_interval: TimeDelta::from_mins(10),
            peak_interval: TimeDelta::from_mins(1),
            rw_mostly_threshold: 0.95,
            top_fractions: (0.01, 0.10),
            cache_fractions: (0.01, 0.10),
            hist_precision_bits: 6,
        }
    }
}

/// The largest accepted [`AnalysisConfig::randomness_window`]. Every
/// request is compared against the whole window, and each analyzer
/// reserves it up front, so the bound keeps both finite: 65 536 offsets
/// is 512 KiB per live volume and 2 048× the paper's window.
pub const MAX_RANDOMNESS_WINDOW: usize = 1 << 16;

/// A rejected [`AnalysisConfig`]: the typed error every constructor
/// taking a config propagates instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig(String);

impl InvalidConfig {
    /// Human-readable description of the first invalid field.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid analysis config: {}", self.0)
    }
}

impl std::error::Error for InvalidConfig {}

impl AnalysisConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns an [`InvalidConfig`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        if !(1..=MAX_RANDOMNESS_WINDOW).contains(&self.randomness_window) {
            return Err(InvalidConfig(format!(
                "randomness_window must be in 1..={MAX_RANDOMNESS_WINDOW}, got {}",
                self.randomness_window
            )));
        }
        if self.active_interval.is_zero() || self.peak_interval.is_zero() {
            return Err(InvalidConfig("intervals must be non-zero".to_owned()));
        }
        if !(0.0..=1.0).contains(&self.rw_mostly_threshold) {
            return Err(InvalidConfig(format!(
                "rw_mostly_threshold must be in [0,1], got {}",
                self.rw_mostly_threshold
            )));
        }
        for (name, f) in [
            ("top_fractions.0", self.top_fractions.0),
            ("top_fractions.1", self.top_fractions.1),
            ("cache_fractions.0", self.cache_fractions.0),
            ("cache_fractions.1", self.cache_fractions.1),
        ] {
            if !(f > 0.0 && f <= 1.0) {
                return Err(InvalidConfig(format!("{name} must be in (0,1], got {f}")));
            }
        }
        if !(1..=16).contains(&self.hist_precision_bits) {
            return Err(InvalidConfig(format!(
                "hist_precision_bits must be in 1..=16, got {}",
                self.hist_precision_bits
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = AnalysisConfig::default();
        assert_eq!(c.block_size.bytes(), 4096);
        assert_eq!(c.randomness_window, 32);
        assert_eq!(c.randomness_threshold, 128 * 1024);
        assert_eq!(c.active_interval, TimeDelta::from_mins(10));
        assert_eq!(c.peak_interval, TimeDelta::from_mins(1));
        assert_eq!(c.rw_mostly_threshold, 0.95);
        assert_eq!(c.top_fractions, (0.01, 0.10));
        assert_eq!(c.cache_fractions, (0.01, 0.10));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_names_offenders() {
        let broken = |f: &dyn Fn(&mut AnalysisConfig)| {
            let mut c = AnalysisConfig::default();
            f(&mut c);
            c.validate().unwrap_err().message().to_owned()
        };
        assert!(broken(&|c| c.randomness_window = 0).contains("randomness_window"));
        assert!(broken(&|c| c.randomness_window = usize::MAX).contains("randomness_window"));
        assert!(broken(&|c| c.randomness_window = MAX_RANDOMNESS_WINDOW + 1)
            .contains("randomness_window"));
        assert!(broken(&|c| c.active_interval = TimeDelta::ZERO).contains("intervals"));
        assert!(broken(&|c| c.rw_mostly_threshold = 1.5).contains("rw_mostly_threshold"));
        assert!(broken(&|c| c.top_fractions = (0.0, 0.1)).contains("top_fractions.0"));
        assert!(broken(&|c| c.cache_fractions = (0.01, 1.5)).contains("cache_fractions.1"));
        assert!(broken(&|c| c.hist_precision_bits = 0).contains("hist_precision_bits"));
    }
}
