//! Bursty request-arrival process: [`ArrivalModel`] and [`ArrivalGen`].
//!
//! Requests arrive in *bursts*: burst start times follow an ON/OFF
//! (interrupted Poisson) process with optional diurnal modulation, and
//! requests within a burst are separated by microsecond-scale gaps.
//! This structure reproduces three findings at once:
//!
//! * **Finding 4** (short-term burstiness): most inter-arrival times are
//!   the µs-scale intra-burst gaps regardless of average load;
//! * **Findings 2-3** (burstiness ratios): the ON-fraction knob directly
//!   sets peak-to-average intensity — a volume active 0.1 % of the time
//!   at full rate has a burstiness ratio near 1000;
//! * **Finding 1** (intensities): the average rate is an explicit
//!   parameter.

use cbs_trace::{TimeDelta, Timestamp};
use rand::Rng;

use crate::dist::{Exponential, Geometric, LogNormal};
use crate::error::InvalidProfile;

/// Parameters of a volume's arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalModel {
    /// Target long-run average request rate (requests per second) while
    /// the volume is live.
    pub avg_rate_rps: f64,
    /// Fraction of live time spent in the ON state, in `(0, 1]`.
    /// Burstiness ratio is roughly `1/on_fraction`.
    pub on_fraction: f64,
    /// Mean duration of one ON episode, seconds.
    pub mean_on_secs: f64,
    /// Mean number of requests per burst (≥ 1).
    pub burst_size_mean: f64,
    /// Median intra-burst gap, microseconds.
    pub intra_gap_median_us: f64,
    /// Log-normal sigma of the intra-burst gap.
    pub intra_gap_sigma: f64,
    /// Diurnal modulation amplitude in `[0, 1)`: the ON/OFF process is
    /// thinned by `1 + a·sin(2πt/24h + phase)`.
    pub diurnal_amplitude: f64,
    /// Diurnal phase in radians.
    pub diurnal_phase: f64,
    /// Fraction of the average rate delivered as a steady Poisson
    /// stream of single requests, independent of the ON/OFF bursts.
    ///
    /// This is the "heartbeat" traffic real volumes exhibit (metadata
    /// probes, periodic flushes): it keeps volumes *active* in nearly
    /// every 10-minute interval (Findings 5-7) without materially
    /// moving the peak intensity.
    pub background_fraction: f64,
}

impl ArrivalModel {
    /// A steady low-burstiness model: mostly-ON, small bursts.
    pub fn steady(avg_rate_rps: f64) -> Self {
        ArrivalModel {
            avg_rate_rps,
            on_fraction: 0.6,
            mean_on_secs: 120.0,
            burst_size_mean: 3.0,
            intra_gap_median_us: 200.0,
            intra_gap_sigma: 1.2,
            diurnal_amplitude: 0.3,
            diurnal_phase: 0.0,
            background_fraction: 0.2,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.avg_rate_rps.is_finite() && self.avg_rate_rps > 0.0) {
            return Err(format!(
                "avg_rate_rps must be positive, got {}",
                self.avg_rate_rps
            ));
        }
        if !(self.on_fraction > 0.0 && self.on_fraction <= 1.0) {
            return Err(format!(
                "on_fraction must be in (0,1], got {}",
                self.on_fraction
            ));
        }
        if !(self.mean_on_secs.is_finite() && self.mean_on_secs > 0.0) {
            return Err(format!(
                "mean_on_secs must be positive, got {}",
                self.mean_on_secs
            ));
        }
        if !(self.burst_size_mean.is_finite() && self.burst_size_mean >= 1.0) {
            return Err(format!(
                "burst_size_mean must be >= 1, got {}",
                self.burst_size_mean
            ));
        }
        if !(self.intra_gap_median_us.is_finite() && self.intra_gap_median_us > 0.0) {
            return Err(format!(
                "intra_gap_median_us must be positive, got {}",
                self.intra_gap_median_us
            ));
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(format!(
                "diurnal_amplitude must be in [0,1), got {}",
                self.diurnal_amplitude
            ));
        }
        if !(0.0..=1.0).contains(&self.background_fraction) {
            return Err(format!(
                "background_fraction must be in [0,1], got {}",
                self.background_fraction
            ));
        }
        Ok(())
    }
}

/// Streaming generator of request timestamps from an [`ArrivalModel`]
/// within a live window `[start, end)`.
#[derive(Debug)]
pub struct ArrivalGen<R> {
    rng: R,
    end: Timestamp,
    /// Current position of the episode clock.
    now: Timestamp,
    /// End of the current ON episode (when in ON).
    on_until: Timestamp,
    /// Remaining requests of the burst in flight.
    burst_left: u64,
    /// Timestamp of the next emitted request.
    next_ts: Timestamp,
    exhausted: bool,

    on_len: Exponential,
    off_len: Option<Exponential>,
    burst_gap: Exponential,
    burst_size: Geometric,
    intra_gap: LogNormal,
    diurnal_amplitude: f64,
    diurnal_phase: f64,
}

impl<R: Rng> ArrivalGen<R> {
    /// Creates a generator over `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProfile`] if the model fails
    /// [`ArrivalModel::validate`] or `start >= end`.
    pub fn new(
        model: &ArrivalModel,
        start: Timestamp,
        end: Timestamp,
        rng: R,
    ) -> Result<Self, InvalidProfile> {
        model
            .validate()
            .map_err(|e| InvalidProfile(format!("arrival model: {e}")))?;
        if start >= end {
            return Err(InvalidProfile(format!(
                "empty live window: {start} >= {end}"
            )));
        }

        // The burst stream carries the non-background share of the
        // average rate: avg·(1-bg) = on_fraction · burst_rate_on · burst_size.
        // Diurnal thinning accepts 1/(1+a) of bursts on average, so the
        // raw rate is boosted by (1+a) to preserve the configured average.
        let burst_rate_on = model.avg_rate_rps
            * (1.0 - model.background_fraction)
            * (1.0 + model.diurnal_amplitude)
            / (model.on_fraction * model.burst_size_mean);
        let mean_off_secs = model.mean_on_secs * (1.0 - model.on_fraction) / model.on_fraction;
        let invalid = |what: &str| InvalidProfile(format!("arrival model: {what}"));
        let off_len = if model.on_fraction >= 1.0 || mean_off_secs <= f64::EPSILON {
            None
        } else {
            Some(Exponential::new(1.0 / mean_off_secs).ok_or_else(|| invalid("off-period rate"))?)
        };
        // log-normal gap: median = exp(mu)
        let intra_gap = LogNormal::from_median(model.intra_gap_median_us, model.intra_gap_sigma)
            .ok_or_else(|| invalid("intra-gap median"))?;

        let mut gen = ArrivalGen {
            rng,
            end,
            now: start,
            on_until: start,
            burst_left: 0,
            next_ts: start,
            exhausted: false,
            on_len: Exponential::new(1.0 / model.mean_on_secs)
                .ok_or_else(|| invalid("on-period rate"))?,
            off_len,
            burst_gap: Exponential::new(burst_rate_on.max(1e-12))
                .ok_or_else(|| invalid("burst rate"))?,
            burst_size: Geometric::from_mean(model.burst_size_mean)
                .ok_or_else(|| invalid("burst size mean"))?,
            intra_gap,
            diurnal_amplitude: model.diurnal_amplitude,
            diurnal_phase: model.diurnal_phase,
        };
        gen.begin_on_episode();
        gen.advance_to_next_burst();
        Ok(gen)
    }

    fn begin_on_episode(&mut self) {
        let dur = TimeDelta::from_secs_f64(self.on_len.sample(&mut self.rng).min(1e9));
        self.on_until = self.now.checked_add(dur).unwrap_or(Timestamp::MAX);
    }

    /// Diurnal thinning acceptance probability at time `t`.
    fn diurnal_accept(&mut self, t: Timestamp) -> bool {
        if self.diurnal_amplitude == 0.0 {
            return true;
        }
        let day_frac = (t.as_micros() % cbs_trace::time::MICROS_PER_DAY) as f64
            / cbs_trace::time::MICROS_PER_DAY as f64;
        let factor = 1.0
            + self.diurnal_amplitude
                * (std::f64::consts::TAU * day_frac + self.diurnal_phase).sin();
        let p = factor / (1.0 + self.diurnal_amplitude);
        self.rng.gen::<f64>() < p
    }

    /// Moves the episode clock to the start of the next accepted burst
    /// and arms `burst_left`/`next_ts`. Sets `exhausted` past `end`.
    fn advance_to_next_burst(&mut self) {
        loop {
            if self.now >= self.end {
                self.exhausted = true;
                return;
            }
            // gap to the next burst within the ON state
            let gap = TimeDelta::from_secs_f64(self.burst_gap.sample(&mut self.rng).min(1e9));
            let mut t = self.now.checked_add(gap).unwrap_or(Timestamp::MAX);
            // skip OFF time: any portion of the gap beyond the ON episode
            // is stretched by inserting the OFF period.
            while t > self.on_until {
                let overshoot = t - self.on_until;
                let off = match &self.off_len {
                    Some(off_len) => {
                        TimeDelta::from_secs_f64(off_len.sample(&mut self.rng).min(1e9))
                    }
                    None => TimeDelta::ZERO,
                };
                self.now = self.on_until.checked_add(off).unwrap_or(Timestamp::MAX);
                self.begin_on_episode();
                t = self.now.checked_add(overshoot).unwrap_or(Timestamp::MAX);
            }
            self.now = t;
            if self.now >= self.end {
                self.exhausted = true;
                return;
            }
            if self.diurnal_accept(t) {
                self.burst_left = self.burst_size.sample(&mut self.rng);
                self.next_ts = t;
                return;
            }
        }
    }
}

impl<R: Rng> Iterator for ArrivalGen<R> {
    type Item = Timestamp;

    fn next(&mut self) -> Option<Timestamp> {
        if self.exhausted {
            return None;
        }
        let ts = self.next_ts;
        if ts >= self.end {
            self.exhausted = true;
            return None;
        }
        self.burst_left = self.burst_left.saturating_sub(1);
        if self.burst_left > 0 {
            let gap_us = self
                .intra_gap
                .sample(&mut self.rng)
                .clamp(1.0, 60_000_000.0);
            self.next_ts = self
                .next_ts
                .checked_add(TimeDelta::from_micros(gap_us as u64))
                .unwrap_or(Timestamp::MAX);
        } else {
            self.now = self.next_ts;
            self.advance_to_next_burst();
        }
        Some(ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// `ArrivalGen` generates only the burst stream; the background
    /// share is added by the volume generator, so these tests zero it.
    fn no_bg(model: ArrivalModel) -> ArrivalModel {
        ArrivalModel {
            background_fraction: 0.0,
            ..model
        }
    }

    fn gen_times(model: &ArrivalModel, hours: u64, seed: u64) -> Vec<Timestamp> {
        ArrivalGen::new(
            model,
            Timestamp::ZERO,
            Timestamp::from_hours(hours),
            SmallRng::seed_from_u64(seed),
        )
        .expect("valid model")
        .collect()
    }

    #[test]
    fn timestamps_are_monotone_and_in_window() {
        let model = no_bg(ArrivalModel::steady(5.0));
        let times = gen_times(&model, 2, 1);
        assert!(!times.is_empty());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| t < Timestamp::from_hours(2)));
    }

    #[test]
    fn average_rate_is_respected() {
        let model = no_bg(ArrivalModel::steady(10.0));
        let times = gen_times(&model, 6, 2);
        let rate = times.len() as f64 / (6.0 * 3600.0);
        assert!((rate - 10.0).abs() / 10.0 < 0.25, "rate={rate} (target 10)");
    }

    #[test]
    fn low_on_fraction_creates_high_burstiness() {
        let bursty = ArrivalModel {
            avg_rate_rps: 2.0,
            on_fraction: 0.002,
            mean_on_secs: 90.0,
            burst_size_mean: 60.0,
            intra_gap_median_us: 150.0,
            intra_gap_sigma: 1.0,
            diurnal_amplitude: 0.0,
            diurnal_phase: 0.0,
            background_fraction: 0.0,
        };
        let steady = no_bg(ArrivalModel::steady(2.0));
        let ratio = |model: &ArrivalModel, seed| {
            let times = gen_times(model, 12, seed);
            let mut per_min = std::collections::HashMap::<u64, u64>::new();
            for t in &times {
                *per_min.entry(t.as_micros() / 60_000_000).or_default() += 1;
            }
            let peak = per_min.values().copied().max().unwrap_or(0) as f64 / 60.0;
            let avg = times.len() as f64 / (12.0 * 3600.0);
            peak / avg
        };
        let r_bursty = ratio(&bursty, 3); // ~1/on_fraction when an ON span fills a minute
        let r_steady = ratio(&steady, 3);
        assert!(
            r_bursty > 10.0 * r_steady,
            "bursty={r_bursty} steady={r_steady}"
        );
        assert!(r_bursty > 100.0, "bursty={r_bursty}");
    }

    #[test]
    fn intra_burst_gaps_dominate_interarrivals() {
        let model = ArrivalModel {
            avg_rate_rps: 5.0,
            on_fraction: 0.05,
            mean_on_secs: 30.0,
            burst_size_mean: 40.0,
            intra_gap_median_us: 150.0,
            intra_gap_sigma: 1.0,
            diurnal_amplitude: 0.2,
            diurnal_phase: 0.0,
            background_fraction: 0.0,
        };
        let times = gen_times(&model, 6, 4);
        let mut gaps: Vec<u64> = times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_micros())
            .collect();
        gaps.sort_unstable();
        let med = gaps[gaps.len() / 2];
        // median inter-arrival is µs/ms-scale despite a 5 req/s average
        assert!(med < 5_000, "median gap {med}us");
    }

    #[test]
    fn deterministic_per_seed() {
        let model = no_bg(ArrivalModel::steady(3.0));
        assert_eq!(gen_times(&model, 1, 9), gen_times(&model, 1, 9));
        assert_ne!(gen_times(&model, 1, 9), gen_times(&model, 1, 10));
    }

    #[test]
    fn full_on_fraction_has_no_off_state() {
        let model = no_bg(ArrivalModel {
            on_fraction: 1.0,
            ..ArrivalModel::steady(4.0)
        });
        let times = gen_times(&model, 2, 5);
        let rate = times.len() as f64 / (2.0 * 3600.0);
        assert!((rate - 4.0).abs() / 4.0 < 0.3, "rate={rate}");
    }

    #[test]
    fn rejects_invalid_model() {
        let model = ArrivalModel {
            on_fraction: 0.0,
            ..ArrivalModel::steady(1.0)
        };
        let err = ArrivalGen::new(
            &model,
            Timestamp::ZERO,
            Timestamp::from_hours(1),
            SmallRng::seed_from_u64(0),
        )
        .unwrap_err();
        assert!(err.message().contains("on_fraction"), "{err}");
    }

    #[test]
    fn rejects_empty_window() {
        let err = ArrivalGen::new(
            &ArrivalModel::steady(1.0),
            Timestamp::from_hours(1),
            Timestamp::from_hours(1),
            SmallRng::seed_from_u64(0),
        )
        .unwrap_err();
        assert!(err.message().contains("empty live window"), "{err}");
    }

    #[test]
    fn validate_messages_name_fields() {
        let mut m = ArrivalModel::steady(1.0);
        m.avg_rate_rps = -1.0;
        assert!(m.validate().unwrap_err().contains("avg_rate_rps"));
        let mut m = ArrivalModel::steady(1.0);
        m.burst_size_mean = 0.5;
        assert!(m.validate().unwrap_err().contains("burst_size_mean"));
        let mut m = ArrivalModel::steady(1.0);
        m.diurnal_amplitude = 1.5;
        assert!(m.validate().unwrap_err().contains("diurnal_amplitude"));
        let mut m = ArrivalModel::steady(1.0);
        m.intra_gap_median_us = 0.0;
        assert!(m.validate().unwrap_err().contains("intra_gap_median_us"));
        let mut m = ArrivalModel::steady(1.0);
        m.mean_on_secs = f64::NAN;
        assert!(m.validate().unwrap_err().contains("mean_on_secs"));
        assert!(ArrivalModel::steady(1.0).validate().is_ok());
    }
}
