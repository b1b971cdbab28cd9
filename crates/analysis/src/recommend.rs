//! Per-volume design recommendations — Section V of the paper turned
//! into code.
//!
//! The paper closes by mapping its findings onto three design
//! considerations: load balancing (place bursty volumes apart), cache
//! efficiency (spend cache on volumes whose miss-ratio curves respond),
//! and storage cluster management (shield flash from random small
//! writes, plan garbage collection around update-heavy volumes). This
//! module classifies each analyzed volume against those criteria so an
//! operator — or the `volume_triage` example — can act per volume.

use core::fmt;

use cbs_trace::VolumeId;

use crate::config::AnalysisConfig;
use crate::metrics::VolumeMetrics;

/// Classification thresholds, defaulting to values motivated by the
/// paper's findings.
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    /// Burstiness ratio above which placement must treat the volume as
    /// spiky (Findings 2-3; the paper calls out ratios above 100).
    pub bursty_ratio: f64,
    /// LRU miss ratio at a 10 %-of-WSS cache *below* which the volume
    /// is considered cache-friendly (Finding 15).
    pub cache_friendly_miss: f64,
    /// Fraction of active time spent read-active *below* which write
    /// offloading would idle the volume (Findings 5-7).
    pub offload_read_active: f64,
    /// Randomness ratio above which the volume stresses flash
    /// (Finding 8).
    pub flash_hostile_randomness: f64,
    /// Update coverage above which garbage collection pressure is
    /// significant (Findings 11, 14).
    pub update_heavy_coverage: f64,
    /// Active-day count at or below which the volume counts as
    /// short-lived (Fig. 3's one-day volumes).
    pub short_lived_days: usize,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            bursty_ratio: 100.0,
            cache_friendly_miss: 0.4,
            offload_read_active: 0.25,
            flash_hostile_randomness: 0.5,
            update_heavy_coverage: 0.65,
            short_lived_days: 1,
        }
    }
}

/// One actionable trait of a volume.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VolumeTrait {
    /// Writes outnumber reads (most cloud volumes; informs log-
    /// structured placement).
    WriteDominant,
    /// Peak-to-average intensity is extreme: spread such volumes across
    /// nodes (load balancing, Findings 2-3).
    Bursty {
        /// The measured burstiness ratio.
        ratio: f64,
    },
    /// A modest write cache absorbs most write traffic (Finding 15).
    CacheFriendlyWrites {
        /// LRU write miss ratio at a 10 %-of-WSS cache.
        miss_at_10pct: f64,
    },
    /// A modest read cache absorbs most read traffic.
    CacheFriendlyReads {
        /// LRU read miss ratio at a 10 %-of-WSS cache.
        miss_at_10pct: f64,
    },
    /// Nearly read-idle: redirecting writes would create long idle
    /// periods (write off-loading, Findings 5-7).
    OffloadCandidate {
        /// Read-active share of the volume's active time.
        read_active_fraction: f64,
    },
    /// Random small I/O stresses flash endurance (Finding 8): a
    /// log-structured layer or I/O clustering is advised.
    FlashHostile {
        /// The volume's randomness ratio.
        randomness: f64,
    },
    /// Most of the working set is overwritten: plan garbage-collection
    /// headroom (Findings 11, 14).
    UpdateHeavy {
        /// The volume's update coverage.
        coverage: f64,
    },
    /// Active only briefly — a batch-job volume whose capacity can be
    /// reclaimed quickly.
    ShortLived {
        /// Days with at least one request.
        active_days: usize,
    },
}

impl fmt::Display for VolumeTrait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VolumeTrait::WriteDominant => write!(f, "write-dominant"),
            VolumeTrait::Bursty { ratio } => write!(f, "bursty (ratio {ratio:.0})"),
            VolumeTrait::CacheFriendlyWrites { miss_at_10pct } => {
                write!(
                    f,
                    "cache-friendly writes ({:.0}% miss @10% WSS)",
                    miss_at_10pct * 100.0
                )
            }
            VolumeTrait::CacheFriendlyReads { miss_at_10pct } => {
                write!(
                    f,
                    "cache-friendly reads ({:.0}% miss @10% WSS)",
                    miss_at_10pct * 100.0
                )
            }
            VolumeTrait::OffloadCandidate {
                read_active_fraction,
            } => {
                write!(
                    f,
                    "offload candidate ({:.0}% read-active)",
                    read_active_fraction * 100.0
                )
            }
            VolumeTrait::FlashHostile { randomness } => {
                write!(f, "flash-hostile ({:.0}% random)", randomness * 100.0)
            }
            VolumeTrait::UpdateHeavy { coverage } => {
                write!(f, "update-heavy ({:.0}% coverage)", coverage * 100.0)
            }
            VolumeTrait::ShortLived { active_days } => {
                write!(f, "short-lived ({active_days} active days)")
            }
        }
    }
}

/// The full assessment of one volume.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeAssessment {
    /// The volume.
    pub id: VolumeId,
    /// Every trait that applies, in declaration order.
    pub traits: Vec<VolumeTrait>,
}

impl VolumeAssessment {
    /// Returns `true` if any trait of the given discriminant applies.
    pub fn has(&self, probe: fn(&VolumeTrait) -> bool) -> bool {
        self.traits.iter().any(probe)
    }
}

impl fmt::Display for VolumeAssessment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.id)?;
        if self.traits.is_empty() {
            return write!(f, " unremarkable");
        }
        for (i, t) in self.traits.iter().enumerate() {
            write!(f, "{} {t}", if i == 0 { "" } else { "," })?;
        }
        Ok(())
    }
}

/// Assesses one volume against the thresholds.
pub fn assess(
    m: &VolumeMetrics,
    config: &AnalysisConfig,
    thresholds: &Thresholds,
) -> VolumeAssessment {
    let mut traits = Vec::new();
    if m.is_write_dominant() {
        traits.push(VolumeTrait::WriteDominant);
    }
    let ratio = m.burstiness_ratio(config);
    if ratio > thresholds.bursty_ratio {
        traits.push(VolumeTrait::Bursty { ratio });
    }
    if let Some(miss) = m.write_miss_ratio(0.10) {
        if miss < thresholds.cache_friendly_miss {
            traits.push(VolumeTrait::CacheFriendlyWrites {
                miss_at_10pct: miss,
            });
        }
    }
    if let Some(miss) = m.read_miss_ratio(0.10) {
        if miss < thresholds.cache_friendly_miss {
            traits.push(VolumeTrait::CacheFriendlyReads {
                miss_at_10pct: miss,
            });
        }
    }
    let active = m.active_period(config).as_secs_f64();
    if active > 0.0 {
        let read_active_fraction = m.read_active_period(config).as_secs_f64() / active;
        if read_active_fraction < thresholds.offload_read_active {
            traits.push(VolumeTrait::OffloadCandidate {
                read_active_fraction,
            });
        }
    }
    let randomness = m.randomness_ratio();
    if randomness > thresholds.flash_hostile_randomness {
        traits.push(VolumeTrait::FlashHostile { randomness });
    }
    let coverage = m.update_coverage();
    if coverage > thresholds.update_heavy_coverage {
        traits.push(VolumeTrait::UpdateHeavy { coverage });
    }
    if m.active_days.len() <= thresholds.short_lived_days {
        traits.push(VolumeTrait::ShortLived {
            active_days: m.active_days.len(),
        });
    }
    VolumeAssessment { id: m.id, traits }
}

/// Assesses every volume with default thresholds.
pub fn assess_all(metrics: &[VolumeMetrics], config: &AnalysisConfig) -> Vec<VolumeAssessment> {
    let thresholds = Thresholds::default();
    metrics
        .iter()
        .map(|m| assess(m, config, &thresholds))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_trace;
    use cbs_trace::{IoRequest, OpKind, Timestamp, Trace};

    fn assess_trace(reqs: Vec<IoRequest>) -> VolumeAssessment {
        let trace = Trace::from_requests(reqs);
        let config = AnalysisConfig::default();
        let metrics = analyze_trace(&trace, &config, 0).expect("valid config");
        assess(&metrics[0], &config, &Thresholds::default())
    }

    fn w(offset: u64, secs: u64) -> IoRequest {
        IoRequest::new(
            VolumeId::new(0),
            OpKind::Write,
            offset,
            4096,
            Timestamp::from_secs(secs),
        )
    }

    #[test]
    fn hot_writer_is_write_dominant_update_heavy_offloadable() {
        // same block rewritten once a minute for two days
        let reqs: Vec<_> = (0..2880).map(|i| w(0, i * 60)).collect();
        let a = assess_trace(reqs);
        assert!(a.has(|t| matches!(t, VolumeTrait::WriteDominant)), "{a}");
        assert!(
            a.has(|t| matches!(t, VolumeTrait::UpdateHeavy { .. })),
            "{a}"
        );
        assert!(
            a.has(|t| matches!(t, VolumeTrait::OffloadCandidate { .. })),
            "{a}"
        );
        assert!(
            a.has(|t| matches!(t, VolumeTrait::CacheFriendlyWrites { .. })),
            "{a}"
        );
        assert!(
            !a.has(|t| matches!(t, VolumeTrait::ShortLived { .. })),
            "{a}"
        );
    }

    #[test]
    fn single_burst_volume_is_short_lived_and_bursty() {
        // one 1000-request burst in a ms, then one straggler 2 hours on
        let mut reqs: Vec<_> = (0u32..1000)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new(0),
                    OpKind::Write,
                    u64::from(i) * (1 << 24), // far apart: random
                    4096,
                    Timestamp::from_micros(u64::from(i)),
                )
            })
            .collect();
        reqs.push(w(0, 7200));
        let a = assess_trace(reqs);
        assert!(a.has(|t| matches!(t, VolumeTrait::Bursty { .. })), "{a}");
        assert!(
            a.has(|t| matches!(t, VolumeTrait::ShortLived { active_days: 1 })),
            "{a}"
        );
        assert!(
            a.has(|t| matches!(t, VolumeTrait::FlashHostile { .. })),
            "{a}"
        );
    }

    #[test]
    fn sequential_reader_is_unremarkable() {
        let reqs: Vec<_> = (0..2880u64)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new(0),
                    OpKind::Read,
                    i * 4096,
                    4096,
                    Timestamp::from_secs(i * 60),
                )
            })
            .collect();
        let a = assess_trace(reqs);
        assert!(!a.has(|t| matches!(t, VolumeTrait::WriteDominant)), "{a}");
        assert!(
            !a.has(|t| matches!(t, VolumeTrait::FlashHostile { .. })),
            "{a}"
        );
        assert!(
            !a.has(|t| matches!(t, VolumeTrait::UpdateHeavy { .. })),
            "{a}"
        );
        // reads-only volume has zero write-active time → not offloadable
        // by the read-active criterion (it is always read-active)
        assert!(
            !a.has(|t| matches!(t, VolumeTrait::OffloadCandidate { .. })),
            "{a}"
        );
    }

    #[test]
    fn display_renders_traits() {
        let a = VolumeAssessment {
            id: VolumeId::new(3),
            traits: vec![
                VolumeTrait::WriteDominant,
                VolumeTrait::Bursty { ratio: 512.0 },
                VolumeTrait::UpdateHeavy { coverage: 0.8 },
            ],
        };
        let text = a.to_string();
        assert!(text.contains("vol-3"));
        assert!(text.contains("write-dominant"));
        assert!(text.contains("bursty (ratio 512)"));
        assert!(text.contains("update-heavy (80% coverage)"));
        let empty = VolumeAssessment {
            id: VolumeId::new(4),
            traits: vec![],
        };
        assert!(empty.to_string().contains("unremarkable"));
    }

    #[test]
    fn assess_all_covers_every_volume() {
        let trace = Trace::from_requests(vec![
            w(0, 1),
            IoRequest::new(
                VolumeId::new(5),
                OpKind::Read,
                0,
                512,
                Timestamp::from_secs(2),
            ),
        ]);
        let config = AnalysisConfig::default();
        let metrics = analyze_trace(&trace, &config, 0).expect("valid config");
        let all = assess_all(&metrics, &config);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].id, VolumeId::new(0));
        assert_eq!(all[1].id, VolumeId::new(5));
    }
}
