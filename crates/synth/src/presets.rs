//! Calibrated corpus presets: [`alicloud_like`] and [`msrc_like`].
//!
//! Each preset samples per-volume profiles from a mixture of volume
//! classes whose parameters are tuned to the marginals the paper
//! reports. The calibration targets (paper → knob) are:
//!
//! | Paper observation | Knob |
//! |---|---|
//! | 91.5 % of AliCloud volumes write-dominant, 42.4 % with W:R > 100 (Fig. 4) | class weights × `write_fraction` ranges |
//! | median average intensity 2.55 / 3.36 req/s, ~2 % above 100 req/s (Finding 1) | log-normal rate (median, σ) |
//! | burstiness CDF: AliCloud 25.8 % < 10, 20.7 % > 100, 2.6 % > 1000; MSRC 2.8 % < 10, 38.9 % > 100, none > 1000 (Findings 2-3) | per-volume target ratio → the internal `solve_burst_shape` solver |
//! | µs-scale inter-arrival percentiles (Finding 4) | intra-burst gap medians |
//! | 15.7 % of AliCloud volumes active 1 day; all MSRC volumes active 7 days (Fig. 3) | live-window sampler |
//! | most volumes active ≥ 95 % of 10-min intervals (Findings 5-7) | `background_fraction` heartbeat |
//! | randomness: 20 % of AliCloud volumes > 50 % random; all MSRC < 46 % (Finding 8) | `seq_prob` ranges |
//! | write traffic aggregates in top-1 % blocks (Finding 9) | `hot_prob`, `hot_zipf_s` |
//! | AliCloud read WSS ⊂ write WSS (Table I: 34 % vs 89 % of total, overlap ≈ 24 %); MSRC write WSS ⊂ read WSS (13 % vs 98 %) | region containment layout |
//! | reads→read-mostly 59 %/76 %, writes→write-mostly 81 %/34 % (Finding 10) | same containment layout |
//! | update coverage median 61 % vs 9.4 % (Finding 11) | writes-per-block target |
//! | WAW ≫ RAW in AliCloud; bimodal MSRC update intervals (Findings 12, 14) | write hot sets + `src1_0` daily rewrite |
//!
//! # Intensity scaling caveats
//!
//! `CorpusConfig::intensity_scale` shrinks per-volume request rates so a
//! laptop-scale run stays in the tens of millions of requests. Rates,
//! traffic, and pair counts scale linearly and stay comparable as
//! ratios. Two artifacts remain and are documented per experiment:
//! peak intensities become noisier (a peak minute holds few requests,
//! so Poisson extremes inflate the measured burstiness ratio — the
//! generator compensates via the internal `solve_burst_shape` solver),
//! and the *overall*
//! burstiness of the aggregate stream (Table II) loses the massive
//! statistical multiplexing of 1,000 full-rate volumes.

use cbs_trace::{Timestamp, VolumeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::arrival::ArrivalModel;
use crate::dist::{log_uniform, LogNormal};
use crate::generator::{validated, CorpusGenerator};
use crate::profile::{DailyRewrite, VolumeProfile};
use crate::size::SizeModel;
use crate::spatial::SpatialModel;

const KIB: u64 = 1 << 10;
const GIB: u64 = 1 << 30;
const BLOCK: u64 = 4096;

/// Configuration of a synthetic corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusConfig {
    /// Number of volumes.
    pub volumes: usize,
    /// Trace duration in days.
    pub days: u64,
    /// Extra trace duration in hours (on top of `days`) — lets a
    /// corpus cover a sub-day window, e.g. a one-hour full-intensity
    /// run for short-term metrics.
    pub hours: u64,
    /// Master seed; every volume derives its own stream from it.
    pub seed: u64,
    /// Multiplier on per-volume request rates. The paper's corpus has
    /// 20.2 B requests; scaling intensity (not duration) keeps every
    /// clock-based metric meaningful while bounding request counts.
    pub intensity_scale: f64,
}

impl CorpusConfig {
    /// Creates a config with the given shape and `intensity_scale = 1`.
    pub fn new(volumes: usize, days: u64, seed: u64) -> Self {
        CorpusConfig {
            volumes,
            days,
            hours: 0,
            seed,
            intensity_scale: 1.0,
        }
    }

    /// Adds extra hours to the trace duration.
    pub fn with_extra_hours(mut self, hours: u64) -> Self {
        self.hours = hours;
        self
    }

    /// Sets the intensity scale.
    pub fn with_intensity_scale(mut self, scale: f64) -> Self {
        self.intensity_scale = scale;
        self
    }

    /// End-of-trace timestamp.
    pub fn trace_end(&self) -> Timestamp {
        Timestamp::from_hours(self.days * 24 + self.hours)
    }
}

/// Samples the per-volume average request rate: log-normal with the
/// paper's median, capped to keep any single volume's request count
/// bounded.
fn sample_rate(rng: &mut SmallRng, median_rps: f64, sigma: f64, scale: f64) -> f64 {
    // the preset medians are positive constants, so the distribution
    // always constructs; the fallback is dead
    let rate = LogNormal::from_median(median_rps, sigma)
        .map(|dist| dist.sample(rng))
        .unwrap_or(median_rps);
    (rate * scale).clamp(1e-6, median_rps * scale * 150.0)
}

/// Solves the ON/OFF burst shape for a target burstiness ratio.
///
/// The measured peak intensity is a per-minute maximum, so at scaled
/// (low) rates Poisson extremes inflate it: over many minutes the peak
/// count is roughly `λ_on + k·√(λ_on·s)` where `λ_on = 60·r/f` is the
/// expected per-ON-minute count (burst-stream rate `r`, ON-fraction
/// `f`) and `s` the burst size (bursts make the count over-dispersed).
/// Given the target peak count `P = ratio·avg·60`, solving
/// `x + k·√(s·x) = P` for `x = λ_on` yields the ON fraction that
/// *realizes* the target ratio at this scale instead of overshooting
/// it.
///
/// Returns `(on_fraction, burst_size_mean, mean_on_secs)`.
fn solve_burst_shape(
    rng: &mut SmallRng,
    burst_rate_rps: f64,
    avg_rate_rps: f64,
    target_ratio: f64,
) -> (f64, f64, f64) {
    const K: f64 = 5.5;
    let target_peak_count = (target_ratio * avg_rate_rps * 60.0).max(1.0);
    // burst size: large enough that most requests sit in µs-gap bursts,
    // small enough that several bursts fit in a peak minute
    let burst_size = (target_peak_count / 6.0).clamp(1.5, 60.0);
    // solve x + K·√(s·x) = P  (quadratic in √x)
    let sqrt_x =
        ((K * K * burst_size + 4.0 * target_peak_count).sqrt() - K * burst_size.sqrt()) / 2.0;
    let lambda_on = (sqrt_x * sqrt_x).max(1e-9);
    let on_fraction = (60.0 * burst_rate_rps / lambda_on).clamp(2e-4, 1.0);
    // ON episodes must span whole minutes so a peak minute stays ON
    let mean_on_secs = log_uniform(rng, 90.0, 600.0);
    (on_fraction, burst_size, mean_on_secs)
}

/// Samples a target burstiness ratio from weighted log-uniform buckets.
fn sample_target_ratio(rng: &mut SmallRng, weights: [f64; 4], buckets: [(f64, f64); 4]) -> f64 {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            let (lo, hi) = buckets[i];
            return log_uniform(rng, lo, hi);
        }
        u -= w;
    }
    let (lo, hi) = buckets[3];
    log_uniform(rng, lo, hi)
}

/// The burstiness buckets matching the paper's Fig. 6 thresholds.
const RATIO_BUCKETS: [(f64, f64); 4] = [
    (2.0, 10.0),
    (10.0, 100.0),
    (100.0, 1000.0),
    (1000.0, 4000.0),
];
/// MSRC has no volume above 1000; its top bucket stops earlier.
const MSRC_RATIO_BUCKETS: [(f64, f64); 4] =
    [(3.0, 10.0), (10.0, 80.0), (80.0, 350.0), (350.0, 400.0)];

/// Sizes a region (in bytes) so the expected op count revisits each
/// block `per_block` times on average.
fn region_for(expected_ops: f64, per_block: f64, min_blocks: u64, max_bytes: u64) -> u64 {
    let blocks = (expected_ops / per_block.max(1e-9)).ceil() as u64;
    (blocks.max(min_blocks) * BLOCK).min(max_bytes.max(min_blocks * BLOCK))
}

/// Builds an AliCloud-like corpus: the paper's cloud block storage
/// workload mixture (write-dominant, diverse burstiness, short-lived
/// volumes, high update coverage, random-but-aggregated traffic, reads
/// mostly landing on previously written data).
pub fn alicloud_like(config: &CorpusConfig) -> CorpusGenerator {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xA11C_100D);
    let mut profiles = Vec::with_capacity(config.volumes);
    for i in 0..config.volumes {
        profiles.push(alicloud_volume(config, &mut rng, i as u32));
    }
    // the samplers draw every parameter from validated ranges
    validated(CorpusGenerator::new(profiles))
}

fn alicloud_volume(config: &CorpusConfig, rng: &mut SmallRng, id: u32) -> VolumeProfile {
    let seed = rng.gen();
    let capacity = log_uniform(rng, 40.0, 5120.0) as u64 * GIB;

    // --- read/write mix (Fig. 4 targets) ---
    let class = rng.gen::<f64>();
    let (write_fraction, logger) = if class < 0.424 {
        // W:R > 100 (heavy loggers / journals / backups)
        let ratio = log_uniform(rng, 110.0, 3000.0);
        (ratio / (1.0 + ratio), true)
    } else if class < 0.774 {
        // clearly write-dominant
        let ratio = log_uniform(rng, 2.0, 60.0);
        (ratio / (1.0 + ratio), false)
    } else if class < 0.914 {
        // mildly write-dominant
        let ratio = log_uniform(rng, 1.05, 2.0);
        (ratio / (1.0 + ratio), false)
    } else {
        // read-dominant minority (8.6 %)
        let ratio = log_uniform(rng, 0.05, 0.9);
        (ratio / (1.0 + ratio), false)
    };

    // --- live window (Fig. 3: 15.7 % single-day volumes) ---
    let life = rng.gen::<f64>();
    let (live_start, live_end) = if life < 0.157 && config.days > 1 {
        // short-lived batch job, confined to one calendar day
        let day = rng.gen_range(0..config.days);
        let start =
            Timestamp::from_days(day) + cbs_trace::TimeDelta::from_secs(rng.gen_range(0..46_800));
        let dur = cbs_trace::TimeDelta::from_secs(rng.gen_range(1_800..36_000));
        (start, start + dur)
    } else if life < 0.25 && config.days > 3 {
        let span_days = rng.gen_range(2..=(config.days - 1).min(12));
        let day = rng.gen_range(0..=(config.days - span_days));
        (
            Timestamp::from_days(day),
            Timestamp::from_days(day + span_days),
        )
    } else {
        (Timestamp::ZERO, config.trace_end())
    };

    // --- intensity & burstiness (Findings 1-4) ---
    // aggregate W:R is 3:1 while most volumes are write-dominant:
    // read-heavy volumes run slower, loggers a touch faster
    let rate_class_factor = if write_fraction < 0.5 {
        1.0
    } else if logger {
        0.7
    } else {
        1.0
    };
    let avg_rate_rps = sample_rate(rng, 2.55, 1.8, config.intensity_scale) * rate_class_factor;
    let background_fraction = rng.gen_range(0.45..0.70);
    let target_ratio = sample_target_ratio(rng, [0.26, 0.53, 0.18, 0.03], RATIO_BUCKETS);
    let (on_fraction, burst_size_mean, mean_on_secs) = solve_burst_shape(
        rng,
        avg_rate_rps * (1.0 - background_fraction),
        avg_rate_rps,
        target_ratio,
    );
    let arrival = ArrivalModel {
        avg_rate_rps,
        on_fraction,
        mean_on_secs,
        burst_size_mean,
        intra_gap_median_us: log_uniform(rng, 30.0, 600.0),
        intra_gap_sigma: rng.gen_range(0.8..1.6),
        diurnal_amplitude: rng.gen_range(0.1..0.6),
        diurnal_phase: rng.gen_range(0.0..std::f64::consts::TAU),
        background_fraction,
    };

    // --- spatial layout (Findings 8-11, Table I WSS fractions) ---
    let span_secs = (live_end - live_start).as_secs_f64();
    let expected = avg_rate_rps * span_secs;
    let expected_writes = expected * write_fraction;
    let expected_reads = expected - expected_writes;

    // high update coverage: most volumes revisit written blocks often
    let writes_per_block = log_uniform(rng, 1.2, 50.0);
    let write_len = region_for(expected_writes, writes_per_block, 256, capacity / 4);
    let reads_per_block = log_uniform(rng, 2.0, 20.0);
    let read_len = region_for(expected_reads.max(1.0), reads_per_block, 256, capacity / 4);

    // Table I: read WSS is only ~34 % of total while write WSS is
    // ~89 % and they overlap by ~24 % of the WSS — most read blocks
    // were also written. Model: for most volumes the read region sits
    // *inside* the write region (cache-miss reads of recently written
    // data); a minority reads a disjoint (never-written) region.
    // Only write-dominant volumes read back their own writes; the
    // read region is capped below the write region so the two hot sets
    // never coincide exactly.
    // High-rate volumes read the blocks they write (fully aligned hot
    // sets): they carry the corpus-level traffic, pulling the overall
    // read-to-read-mostly share toward the paper's 59 % while the
    // *median* volume keeps its reads on read-mostly blocks (Fig. 12).
    let high_rate = avg_rate_rps > 10.0 * 2.55 * config.intensity_scale;
    let contained = write_fraction > 0.5 && (high_rate || rng.gen::<f64>() < 0.30);
    let (read_start, read_len) = if contained {
        if high_rate || rng.gen::<f64>() < 0.08 {
            // fully aligned with the write region: the two hot sets
            // coincide, producing genuinely mixed blocks (keeps the
            // corpus-level read-mostly share near the paper's 59 %
            // and feeds RAW pairs)
            (0, write_len)
        } else {
            let len = read_len
                .min(write_len * 4 / 5)
                .max(256 * BLOCK)
                .min(write_len);
            let max_start = (write_len - len) / BLOCK;
            (rng.gen_range(0..=max_start) * BLOCK, len)
        }
    } else {
        (write_len, read_len)
    };

    // AliCloud is random-heavy (Finding 8): low sequential share except
    // for loggers
    let seq_prob = if logger {
        rng.gen_range(0.30..0.70)
    } else {
        rng.gen_range(0.02..0.30)
    };
    let write_spatial = SpatialModel {
        region_start: 0,
        region_len: write_len,
        seq_prob,
        hot_prob: rng.gen_range(0.40..0.88),
        hot_fraction: log_uniform(rng, 0.0015, 0.012),
        hot_zipf_s: rng.gen_range(1.2..1.5),
        block_size: cbs_trace::BlockSize::DEFAULT,
    };
    // reads re-hit a small hot set quickly (Finding 13: RAR median is
    // minutes)
    let read_spatial = SpatialModel {
        region_start: read_start,
        region_len: read_len,
        seq_prob: rng.gen_range(0.05..0.35),
        hot_prob: rng.gen_range(0.40..0.75),
        hot_fraction: log_uniform(rng, 0.002, 0.015),
        hot_zipf_s: rng.gen_range(1.0..1.35),
        block_size: cbs_trace::BlockSize::DEFAULT,
    };

    VolumeProfile {
        id: VolumeId::new(id),
        capacity_bytes: capacity.max(read_start + read_len + write_len + GIB),
        live_start,
        live_end,
        write_fraction,
        arrival,
        read_spatial,
        write_spatial,
        read_size: SizeModel::small_reads(),
        write_size: SizeModel::small_writes(),
        daily_rewrite: None,
        seed,
    }
}

/// Builds an MSRC-like corpus: the enterprise data-center mixture the
/// paper compares against (read-heavier in aggregate, steadier
/// activity, low update coverage, writes landing on read data, one
/// `src1_0`-style daily source-control rewrite).
pub fn msrc_like(config: &CorpusConfig) -> CorpusGenerator {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x5EED_4D5C_0000_0001);
    let mut profiles = Vec::with_capacity(config.volumes);
    for i in 0..config.volumes {
        profiles.push(msrc_volume(config, &mut rng, i as u32));
    }
    // the samplers draw every parameter from validated ranges
    validated(CorpusGenerator::new(profiles))
}

fn msrc_volume(config: &CorpusConfig, rng: &mut SmallRng, id: u32) -> VolumeProfile {
    let seed = rng.gen();
    let capacity = log_uniform(rng, 30.0, 800.0) as u64 * GIB;

    // one volume in ~36 is the src1_0-style daily updater
    let is_daily_updater = id as usize == 0;

    // --- read/write mix: 53 % of volumes write-dominant, yet the
    // corpus is read-dominant (0.42 W:R): write-dominant volumes are
    // the low-rate ones ---
    let write_dominant = is_daily_updater || rng.gen::<f64>() < 0.55;
    let write_fraction = if is_daily_updater {
        0.9
    } else if write_dominant {
        let ratio = log_uniform(rng, 1.1, 40.0);
        ratio / (1.0 + ratio)
    } else {
        let ratio = log_uniform(rng, 0.08, 0.95);
        ratio / (1.0 + ratio)
    };

    // --- all volumes live the whole week (Fig. 3) ---
    let (live_start, live_end) = (Timestamp::ZERO, config.trace_end());

    // --- intensity & burstiness ---
    let rate_class_factor = if write_dominant { 0.35 } else { 2.2 };
    let avg_rate_rps = sample_rate(rng, 3.36, 1.5, config.intensity_scale) * rate_class_factor;
    let background_fraction = rng.gen_range(0.02..0.10);
    let target_ratio = sample_target_ratio(rng, [0.03, 0.58, 0.39, 0.0], MSRC_RATIO_BUCKETS);
    let (on_fraction, burst_size_mean, mean_on_secs) = solve_burst_shape(
        rng,
        avg_rate_rps * (1.0 - background_fraction),
        avg_rate_rps,
        target_ratio,
    );
    let arrival = ArrivalModel {
        avg_rate_rps,
        on_fraction,
        mean_on_secs,
        burst_size_mean,
        intra_gap_median_us: log_uniform(rng, 8.0, 400.0),
        intra_gap_sigma: rng.gen_range(1.0..2.0),
        diurnal_amplitude: rng.gen_range(0.5..0.95),
        diurnal_phase: rng.gen_range(0.0..std::f64::consts::TAU),
        background_fraction,
    };

    // --- spatial layout ---
    let span_secs = (live_end - live_start).as_secs_f64();
    let expected = avg_rate_rps * span_secs;
    let expected_writes = expected * write_fraction;
    let expected_reads = expected - expected_writes;

    // low update coverage: write-dominant volumes write blocks about
    // once; read-heavy volumes rewrite their small hot sets
    let writes_per_block = if write_dominant {
        log_uniform(rng, 0.3, 2.0)
    } else {
        log_uniform(rng, 1.5, 8.0)
    };
    let write_len = region_for(
        expected_writes.max(1.0),
        writes_per_block,
        256,
        capacity / 4,
    );
    let reads_per_block = log_uniform(rng, 0.3, 3.0);
    let read_len = region_for(expected_reads.max(1.0), reads_per_block, 256, capacity / 4);

    // Table I: read WSS ≈ 98 % of total, write WSS ≈ 13 % — the write
    // working set is small, and on the (read-heavy, high-rate) volumes
    // it sits *inside* read territory (WAR pairs, weak corpus-level
    // write-mostly aggregation: Table III's 33.5 %) while most
    // write-dominant volumes write a disjoint area (the per-volume
    // write-mostly median stays high: Fig. 12's 75 %).
    let aligned = !write_dominant && rng.gen::<f64>() < 0.85; // read-heavy: writes land on read-hot blocks
    let contained = aligned || rng.gen::<f64>() < 0.25;
    let read_len = read_len.max(write_len + BLOCK * 64);
    let (write_start, write_len) = if aligned {
        (0, read_len)
    } else if contained {
        let max_start = (read_len - write_len) / BLOCK;
        (rng.gen_range(0..=max_start) * BLOCK, write_len)
    } else {
        (read_len, write_len) // disjoint, right after the read region
    };

    // MSRC is more sequential (Finding 8: all randomness ratios < 46 %)
    let read_hot_fraction = log_uniform(rng, 0.003, 0.015);
    let read_spatial = SpatialModel {
        region_start: 0,
        region_len: read_len,
        seq_prob: rng.gen_range(0.45..0.80),
        hot_prob: rng.gen_range(0.40..0.70),
        hot_fraction: read_hot_fraction,
        hot_zipf_s: rng.gen_range(1.0..1.35),
        block_size: cbs_trace::BlockSize::DEFAULT,
    };
    let write_spatial = SpatialModel {
        region_start: write_start,
        region_len: write_len,
        seq_prob: if aligned {
            rng.gen_range(0.55..0.85)
        } else {
            rng.gen_range(0.45..0.85)
        },
        hot_prob: if aligned {
            rng.gen_range(0.65..0.90)
        } else {
            rng.gen_range(0.50..0.80)
        },
        // aligned volumes share the read hot set (same region + same
        // deterministic stride → coinciding hot blocks)
        hot_fraction: if aligned {
            read_hot_fraction * rng.gen_range(0.4..1.0)
        } else {
            log_uniform(rng, 0.002, 0.008)
        },
        hot_zipf_s: rng.gen_range(1.2..1.5),
        block_size: cbs_trace::BlockSize::DEFAULT,
    };

    let daily_rewrite = is_daily_updater.then(|| {
        // a source-control tree rewritten once a day: enough blocks that
        // 24 h intervals form a visible mode in the corpus distribution
        let region_blocks = ((expected_writes * 4.0).max(8192.0) as u64).min(512 * 1024);
        DailyRewrite {
            at_hour: 2.0,
            region_start: capacity / 2,
            region_len: region_blocks * BLOCK,
            request_size: 16 * KIB as u32,
            gap_us: 300,
        }
    });

    VolumeProfile {
        id: VolumeId::new(id),
        capacity_bytes: capacity.max(read_len + write_len + read_len + GIB),
        live_start,
        live_end,
        write_fraction,
        arrival,
        read_spatial,
        write_spatial,
        read_size: SizeModel::bulk(),
        write_size: SizeModel::small_writes(),
        daily_rewrite,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(volumes: usize, days: u64) -> CorpusConfig {
        CorpusConfig::new(volumes, days, 1234).with_intensity_scale(0.001)
    }

    /// Regenerating one volume is exact: on the four shapes of the
    /// report's tiny run (`ReproConfig::tiny(7)` in `cbs-report`), every
    /// `generate_volume(i)` equals profile `i`'s rows in the whole
    /// corpus, which is what lets the Fig. 18 sweep skip holding it.
    #[test]
    fn generate_volume_equals_the_volume_of_the_whole_corpus() {
        let seed = 7;
        let shapes = [
            alicloud_like(&CorpusConfig::new(25, 4, seed).with_intensity_scale(0.001)),
            msrc_like(&CorpusConfig::new(12, 3, seed).with_intensity_scale(0.004)),
            alicloud_like(
                &CorpusConfig::new(6, 0, seed ^ 0xB)
                    .with_extra_hours(1)
                    .with_intensity_scale(0.5),
            ),
            msrc_like(
                &CorpusConfig::new(6, 0, seed ^ 0xB)
                    .with_extra_hours(1)
                    .with_intensity_scale(0.5),
            ),
        ];
        for corpus in shapes {
            let trace = corpus.generate();
            for (i, profile) in corpus.profiles().iter().enumerate() {
                let whole = trace.volume(profile.id).map_or(&[][..], |v| v.requests());
                let alone = corpus.generate_volume(i).expect("index in range");
                assert_eq!(alone, whole, "volume {}", profile.id);
            }
        }
    }

    #[test]
    fn alicloud_profiles_validate() {
        let corpus = alicloud_like(&tiny(50, 5));
        assert_eq!(corpus.profiles().len(), 50);
        for p in corpus.profiles() {
            assert_eq!(p.validate(), Ok(()), "{}", p.id);
        }
    }

    #[test]
    fn msrc_profiles_validate() {
        let corpus = msrc_like(&tiny(36, 7));
        assert_eq!(corpus.profiles().len(), 36);
        for p in corpus.profiles() {
            assert_eq!(p.validate(), Ok(()), "{}", p.id);
        }
        // exactly one daily updater
        let updaters = corpus
            .profiles()
            .iter()
            .filter(|p| p.daily_rewrite.is_some())
            .count();
        assert_eq!(updaters, 1);
    }

    #[test]
    fn alicloud_is_write_dominant() {
        let corpus = alicloud_like(&tiny(200, 3));
        let dominant = corpus
            .profiles()
            .iter()
            .filter(|p| p.write_fraction > 0.5)
            .count();
        let frac = dominant as f64 / 200.0;
        assert!(
            (frac - 0.915).abs() < 0.07,
            "write-dominant fraction {frac}"
        );
        let extreme = corpus
            .profiles()
            .iter()
            .filter(|p| p.write_fraction > 100.0 / 101.0)
            .count();
        let frac = extreme as f64 / 200.0;
        assert!((frac - 0.424).abs() < 0.10, "W:R>100 fraction {frac}");
    }

    #[test]
    fn msrc_mix_is_balanced() {
        let corpus = msrc_like(&tiny(36, 7));
        let dominant = corpus
            .profiles()
            .iter()
            .filter(|p| p.write_fraction > 0.5)
            .count();
        // paper: 19 of 36
        assert!((10..=28).contains(&dominant), "dominant={dominant}");
        // everyone lives the whole trace
        assert!(corpus
            .profiles()
            .iter()
            .all(|p| p.live_start == Timestamp::ZERO && p.live_end == Timestamp::from_days(7)));
    }

    #[test]
    fn alicloud_has_short_lived_volumes() {
        let corpus = alicloud_like(&tiny(300, 31));
        let one_day = corpus
            .profiles()
            .iter()
            .filter(|p| (p.live_end - p.live_start).as_days_f64() <= 1.0)
            .count();
        let frac = one_day as f64 / 300.0;
        assert!((frac - 0.157).abs() < 0.06, "single-day fraction {frac}");
    }

    #[test]
    fn msrc_read_heavy_volumes_mostly_write_inside_read_region() {
        let corpus = msrc_like(&tiny(60, 3));
        let (mut read_heavy, mut contained) = (0, 0);
        for p in corpus.profiles() {
            if p.write_fraction < 0.5 {
                read_heavy += 1;
                if p.write_spatial.region_end() <= p.read_spatial.region_end() {
                    contained += 1;
                }
            }
            // every write region is either inside or right after it
            assert!(
                p.write_spatial.region_start <= p.read_spatial.region_end(),
                "{}",
                p.id
            );
        }
        assert!(read_heavy > 5, "fixture has read-heavy volumes");
        // ~85% aligned + a share of the rest contained
        assert!(
            contained * 3 >= read_heavy * 2,
            "{contained} of {read_heavy} contained"
        );
    }

    #[test]
    fn burst_shape_solver_tracks_target() {
        let mut rng = SmallRng::seed_from_u64(1);
        // high target ratio ⇒ small ON fraction
        let (f_hi, s_hi, _) = solve_burst_shape(&mut rng, 0.005, 0.007, 1000.0);
        let (f_lo, s_lo, _) = solve_burst_shape(&mut rng, 0.005, 0.007, 5.0);
        assert!(f_hi < f_lo, "f_hi={f_hi} f_lo={f_lo}");
        assert!(s_hi >= s_lo, "s_hi={s_hi} s_lo={s_lo}");
        assert!((2e-4..=1.0).contains(&f_hi));
        assert!((2e-4..=1.0).contains(&f_lo));
        // at full (unscaled) rates the solver approaches 1/ratio
        let (f, _, _) = solve_burst_shape(&mut rng, 2.0, 2.5, 100.0);
        assert!((0.002..0.06).contains(&f), "f={f}");
    }

    #[test]
    fn presets_are_deterministic() {
        let a = alicloud_like(&tiny(10, 2));
        let b = alicloud_like(&tiny(10, 2));
        assert_eq!(a.profiles(), b.profiles());
        let c = alicloud_like(&CorpusConfig::new(10, 2, 999).with_intensity_scale(0.001));
        assert_ne!(a.profiles(), c.profiles());
    }

    #[test]
    fn generated_corpora_are_non_trivial() {
        let trace = alicloud_like(&tiny(8, 2)).generate();
        assert!(trace.request_count() > 100, "got {}", trace.request_count());
        assert!(trace.volume_count() >= 6);
        let trace = msrc_like(&tiny(6, 2)).generate();
        assert!(trace.request_count() > 100);
    }

    #[test]
    fn config_builder() {
        let c = CorpusConfig::new(5, 3, 7).with_intensity_scale(0.5);
        assert_eq!(c.volumes, 5);
        assert_eq!(c.days, 3);
        assert_eq!(c.seed, 7);
        assert_eq!(c.intensity_scale, 0.5);
        assert_eq!(c.trace_end(), Timestamp::from_days(3));
    }
}
